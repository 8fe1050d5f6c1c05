"""Pluggable ready-task schedulers for the real threaded runtime.

The machine *simulator* reproduces the paper's three software stacks as
:class:`~repro.runtime.base.SchedulerPolicy` subclasses; this module is
their **real-thread twin**: the same scheduling shapes, but driving live
worker threads in :mod:`repro.runtime.threaded` instead of a virtual
clock.  §IV of the paper argues that multicore performance is decided by
exactly these policy differences, so the threaded engine lets each one
be measured on real wall-clock:

* :class:`GlobalFifoScheduler` (``"fifo"``) — the engine's historical
  baseline: one shared FIFO queue.  Every push and pop crosses one lock;
  no locality, no priorities.  Kept as the reference the perf gate
  measures the others against.
* :class:`WorkStealingScheduler` (``"ws"``) — PaStiX-native twin: one
  deque per worker, LIFO push/pop on the owner's end (depth-first, warm
  caches) and randomized FIFO stealing from victims' opposite end.
* :class:`CriticalPathScheduler` (``"priority"``) — dmda/StarPU twin: a
  shared heap ordered by flops-weighted longest-path-to-sink levels
  (:func:`repro.dag.analysis.longest_path_levels`), so the critical
  chain never waits behind bulk updates.
* :class:`LastPanelAffinityScheduler` (``"affinity"``) — PaRSEC
  cache-reuse twin: an update task is routed to the worker that last
  touched its target panel, keeping a panel's scatter-adds on the core
  whose cache holds it; stealing backstops load balance.
* :class:`InversePriorityScheduler` (``"inverse-priority"``) — a
  deliberately mis-prioritized heap (shortest path first).  Exists only
  as fault injection for the robustness tests (the worst admissible
  pop order must still give the same factor); never a sensible choice.

Thread-safety contract: ``push``/``pop``/``on_complete`` are called
concurrently from worker threads.  ``pop`` may transiently return
``None`` while ``has_work()`` is true (a steal race); callers must
re-poll rather than treat ``None`` as termination — the runtime's
parking protocol in :mod:`repro.runtime.threaded` does exactly that.
"""

from __future__ import annotations

import heapq
import random
import threading
from collections import deque
from typing import Callable, Optional

from repro.dag.tasks import TaskDAG, TaskKind

__all__ = [
    "ThreadScheduler",
    "GlobalFifoScheduler",
    "WorkStealingScheduler",
    "CriticalPathScheduler",
    "LastPanelAffinityScheduler",
    "InversePriorityScheduler",
    "THREAD_SCHEDULERS",
    "get_thread_scheduler",
]

#: Seed base for the randomized victim orders (deterministic per worker).
_STEAL_SEED = 0x5EED


class ThreadScheduler:
    """Base class: a thread-safe ready-task pool with routing hints."""

    #: Registry key; also stamped into ``ExecutionTrace.meta`` so the
    #: S2xx verifier can audit which policy produced a trace.
    name = "abstract"

    #: Optional instrumentation callback installed by the runtime:
    #: ``observer(kind, worker, victim, task)`` with ``kind="steal"``
    #: and ``task=-1`` for a failed probe.  Lets the C7xx concurrency
    #: auditor see steal traffic without the scheduler importing any
    #: tracing machinery; ``None`` (the default) costs one attribute
    #: read on the steal path and nothing on the local path.
    observer: Optional[Callable[[str, int, int, int], None]] = None

    #: Optional health oracle installed by the runtime when worker
    #: health monitoring is armed: ``health_rank(worker) -> 0|1|2``
    #: (see :data:`repro.resilience.HEALTH_RANK`).  Policies use it to
    #: degrade gracefully — a rank>=1 (degraded) worker receives no
    #: routed work and steals nothing, so a limping core drains its own
    #: queue without accreting more.  ``None`` (the default) costs one
    #: attribute read; scheduling is then byte-identical to a build
    #: without health monitoring.
    health_rank: Optional[Callable[[int], int]] = None

    dag: TaskDAG
    n_workers: int

    def bind(self, dag: TaskDAG, n_workers: int) -> None:
        """Attach to one run.  Re-binding resets all internal state."""
        self.dag = dag
        self.n_workers = int(n_workers)
        self.setup()

    def setup(self) -> None:
        """Per-run initialisation (queues, priorities, counters)."""

    # -- the concurrent surface ----------------------------------------
    def push(self, task: int, worker: int) -> int:
        """Make ``task`` ready.  ``worker`` is the discovering worker
        (``-1`` for initial seeding).  Returns the worker index the task
        was routed to (a wakeup hint), or ``-1`` for shared pools."""
        raise NotImplementedError

    def pop(self, worker: int) -> Optional[int]:
        """Hand ``worker`` a task, or ``None`` if it found nothing."""
        raise NotImplementedError

    def on_complete(self, task: int, worker: int) -> None:
        """Bookkeeping hook after ``task`` finished on ``worker``."""

    def has_work(self) -> bool:
        """Approximate emptiness probe (used by the parking protocol)."""
        raise NotImplementedError

    # -- measured-duration feedback ------------------------------------
    #: Set by policies that want :meth:`on_duration` called; the runtime
    #: checks this flag so non-adaptive schedulers pay no clock reads.
    wants_durations = False

    def on_duration(self, task: int, seconds: float) -> None:
        """Measured wall-clock duration of a *committed* ``task``.

        Called by the threaded runtime once per successful task body
        (never for a failed attempt), from
        the worker thread that ran it.  The default is a no-op; the
        adaptive scheduler folds the sample into its
        :class:`~repro.runtime.adaptive.PerfHistory`.
        """

    # -- diagnostics ---------------------------------------------------
    def snapshot(self, limit: int = 15) -> list[int]:
        """A bounded sample of queued tasks (watchdog diagnostics)."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Counters for benchmark reports (best-effort, race-tolerant)."""
        return {}


class GlobalFifoScheduler(ThreadScheduler):
    """One shared FIFO deque behind one lock (the legacy engine)."""

    name = "fifo"

    def setup(self) -> None:
        self._queue: deque[int] = deque()
        self._lock = threading.Lock()

    def push(self, task: int, worker: int) -> int:
        with self._lock:
            self._queue.append(task)
        return -1

    def pop(self, worker: int) -> Optional[int]:
        with self._lock:
            if self._queue:
                return self._queue.popleft()
        return None

    def has_work(self) -> bool:
        # Deliberately lock-free: a deque's truthiness is a single
        # atomic length read under CPython's GIL (append/popleft never
        # leave the length transiently wrong), and the parking protocol
        # re-polls after a false positive/negative, so a stale answer
        # costs at most one bounded nap — never a lost task.
        return bool(self._queue)  # noqa: RV405

    def snapshot(self, limit: int = 15) -> list[int]:
        with self._lock:
            return [int(t) for t in list(self._queue)[:limit]]


class WorkStealingScheduler(ThreadScheduler):
    """Per-worker deques, LIFO locally, randomized FIFO stealing.

    The PaStiX-native shape: a worker pushes newly released tasks onto
    its *own* deque and pops from the same end (depth-first traversal of
    the elimination tree keeps the panels it just wrote hot in cache);
    an idle worker steals from the *opposite* end of a random victim,
    taking the oldest — and therefore most cache-cold — entry.  Victim
    order is drawn from a per-worker seeded RNG so runs are
    reproducible under ``PYTHONHASHSEED``-free conditions.
    """

    name = "ws"

    def setup(self) -> None:
        n = self.n_workers
        self._local: list[deque[int]] = [deque() for _ in range(n)]
        self._locks = [threading.Lock() for _ in range(n)]
        self._rngs = [random.Random(_STEAL_SEED + w) for w in range(n)]
        self._victims = [
            [v for v in range(n) if v != w] for w in range(n)
        ]
        self._seed_lock = threading.Lock()
        self._seed_next = 0
        self._n_steals = [0] * n
        self._n_local = [0] * n

    def _route(self, task: int, worker: int) -> int:
        """Which deque should ``task`` land on?"""
        hr = self.health_rank
        if 0 <= worker < self.n_workers:
            if hr is None or hr(worker) == 0:
                return worker
        for _ in range(self.n_workers):
            with self._seed_lock:
                w = self._seed_next
                self._seed_next = (w + 1) % self.n_workers
            if hr is None or hr(w) == 0:
                return w
        # Every worker is degraded or worse: fall back to anyone rather
        # than strand the task (the monitor never quarantines the last
        # dispatchable worker, so w is at worst degraded).
        return w

    def push(self, task: int, worker: int) -> int:
        w = self._route(task, worker)
        with self._locks[w]:
            self._local[w].append(task)
        return w

    def pop(self, worker: int) -> Optional[int]:
        with self._locks[worker]:
            if self._local[worker]:
                self._n_local[worker] += 1
                return self._local[worker].pop()      # LIFO: own end
        hr = self.health_rank
        if hr is not None and hr(worker) >= 1:
            # A degraded worker drains its own deque but never steals:
            # pulling work onto a limping core only makes it slower for
            # everyone.  (Stealing *from* it stays allowed — that is
            # how its queue drains when the runtime parks it.)
            return None
        order = self._victims[worker]
        if order:
            self._rngs[worker].shuffle(order)
            for v in order:
                if not self._local[v]:
                    continue
                t: Optional[int] = None
                with self._locks[v]:
                    if self._local[v]:
                        self._n_steals[worker] += 1
                        t = self._local[v].popleft()  # FIFO: cold end
                obs = self.observer
                if obs is not None:
                    obs("steal", worker, v, -1 if t is None else int(t))
                if t is not None:
                    return t
        return None

    def has_work(self) -> bool:
        # Deliberately lock-free (same memory-model argument as the
        # FIFO probe): len() of a deque is one atomic read per victim,
        # and the parking protocol tolerates stale answers by
        # re-polling with a bounded nap.
        return any(len(q) > 0 for q in self._local)  # noqa: RV405

    def snapshot(self, limit: int = 15) -> list[int]:
        out: list[int] = []
        for w in range(self.n_workers):
            with self._locks[w]:
                out.extend(int(t) for t in self._local[w])
            if len(out) >= limit:
                break
        return out[:limit]

    def stats(self) -> dict:
        # Best-effort diagnostic snapshot: the counters are per-worker
        # int cells written under each worker's own lock; summing them
        # without all N locks may be momentarily stale but never torn.
        return {  # noqa: RV405
            "steals": int(sum(self._n_steals)),
            "local_pops": int(sum(self._n_local)),
        }


class LastPanelAffinityScheduler(WorkStealingScheduler):
    """Route a panel's updates to the worker that last touched it.

    The PaRSEC cache-reuse shape (§V-A): the completion hook records
    which worker last wrote each panel; when an update task into that
    panel becomes ready it is pushed onto that worker's deque, so the
    scatter-adds into one facing panel tend to run where the panel is
    already cached.  Everything else (local LIFO, randomized stealing)
    is inherited from :class:`WorkStealingScheduler` — stealing keeps
    the affinity preference from starving idle workers.
    """

    name = "affinity"

    def setup(self) -> None:
        super().setup()
        n_panels = (
            self.dag.symbol.n_cblk if self.dag.symbol is not None
            else int(self.dag.target.max()) + 1 if self.dag.n_tasks else 0
        )
        # owner[p] == worker that last touched panel p (-1: nobody yet).
        self._owner = [-1] * n_panels
        self._n_affine = [0] * self.n_workers

    def _route(self, task: int, worker: int) -> int:
        if int(self.dag.kind[task]) == int(TaskKind.UPDATE):
            owner = self._owner[int(self.dag.target[task])]
            if 0 <= owner < self.n_workers:
                hr = self.health_rank
                if hr is not None and hr(owner) >= 1:
                    # Cache affinity loses to health: a warm cache on a
                    # limping core is still a limping core.
                    return super()._route(task, worker)
                if 0 <= worker < self.n_workers:
                    # Best-effort counter: a lost increment only skews a
                    # benchmark stat, never routing.
                    self._n_affine[worker] += 1  # noqa: RV401
                return owner
        return super()._route(task, worker)

    def on_complete(self, task: int, worker: int) -> None:
        # A panel task touches its own panel; an update task touches the
        # facing panel it scattered into.
        self._owner[int(self.dag.target[task])] = worker

    def stats(self) -> dict:
        out = super().stats()
        out["affine_routes"] = int(sum(self._n_affine))
        return out


class CriticalPathScheduler(ThreadScheduler):
    """Shared max-heap on longest-path-to-sink levels (dmda twin).

    StarPU's dmda ranks by a cost model of expected completion; on a
    homogeneous CPU pool that collapses to critical-path list
    scheduling, which this implements exactly: the ready task with the
    heaviest remaining dependency chain runs first.  One lock guards the
    heap — the point of this policy is *ordering*, and the bench harness
    quantifies what that ordering buys against the lock's cost.
    """

    name = "priority"

    #: +1 pops the highest level first; the inverse subclass flips it.
    _sign = 1.0

    def setup(self) -> None:
        from repro.dag.analysis import longest_path_levels

        self._levels = longest_path_levels(self.dag)
        self._heap: list[tuple[float, int]] = []
        self._lock = threading.Lock()

    def push(self, task: int, worker: int) -> int:
        entry = (-self._sign * float(self._levels[task]), task)
        with self._lock:
            heapq.heappush(self._heap, entry)
        return -1

    def pop(self, worker: int) -> Optional[int]:
        with self._lock:
            if self._heap:
                return heapq.heappop(self._heap)[1]
        return None

    def has_work(self) -> bool:
        # Under the lock, unlike the deque-based probes: a heap is a
        # plain list that ``heapq`` mutates through multi-step sift
        # operations, so even a truthiness read can observe it
        # mid-rearrangement — there is no CPython-atomicity argument
        # to lean on here (RV405 flags the unguarded form).
        with self._lock:
            return bool(self._heap)

    def snapshot(self, limit: int = 15) -> list[int]:
        with self._lock:
            return [int(t) for _, t in sorted(self._heap)[:limit]]


class InversePriorityScheduler(CriticalPathScheduler):
    """Anti-critical-path heap: fault injection for the tests.

    Pops the ready task with the *shortest* remaining chain first —
    the worst admissible list schedule, which the scheduler sweeps and
    the watchdog/quarantine tests run the pool under; it must never be
    reachable from production entry points.
    """

    name = "inverse-priority"

    _sign = -1.0


THREAD_SCHEDULERS: dict[str, type[ThreadScheduler]] = {
    GlobalFifoScheduler.name: GlobalFifoScheduler,
    WorkStealingScheduler.name: WorkStealingScheduler,
    CriticalPathScheduler.name: CriticalPathScheduler,
    LastPanelAffinityScheduler.name: LastPanelAffinityScheduler,
    InversePriorityScheduler.name: InversePriorityScheduler,
}
# :class:`repro.runtime.adaptive.AdaptiveScheduler` ("adaptive")
# registers itself when its module is imported (see the bottom of this
# file); it lives apart because it pulls in the measured-history model.


def get_thread_scheduler(
    spec: ThreadScheduler | type[ThreadScheduler] | str,
) -> ThreadScheduler:
    """Resolve a scheduler: registry name, instance, or subclass."""
    if isinstance(spec, ThreadScheduler):
        return spec
    if isinstance(spec, type) and issubclass(spec, ThreadScheduler):
        return spec()
    try:
        cls = THREAD_SCHEDULERS[spec]
    except (KeyError, TypeError):
        raise KeyError(
            f"unknown thread scheduler {spec!r}; "
            f"available: {sorted(THREAD_SCHEDULERS)}"
        ) from None
    return cls()


# Imported last so the cycle resolves whichever module loads first:
# repro.runtime.adaptive subclasses ThreadScheduler (defined above) and
# registers itself in THREAD_SCHEDULERS at its own import time.  A plain
# ``import`` (no attribute access) keeps this safe even when adaptive's
# own import of this module triggered it.
import repro.runtime.adaptive  # noqa: E402,F401  isort:skip
