"""Ready-task schedulers for the real threaded runtime.

The machine *simulator* reproduces the paper's three software stacks as
:class:`~repro.runtime.base.SchedulerPolicy` subclasses, dmda's
measured-model loop included; this module holds the few policies the
live worker pool of :mod:`repro.runtime.threaded` needs.  The pool runs
a handful of unit tasks per worker, and on it no ordering measurably
beats plain work stealing, so that is the default for both phases:

* :class:`WorkStealingScheduler` (``"ws"``) — PaStiX-native twin: one
  deque per worker, LIFO push/pop on the owner's end (depth-first, warm
  caches) and randomized FIFO stealing from victims' opposite end.
* :class:`CriticalPathScheduler` (``"priority"``) — a shared heap
  ordered by flops-weighted longest-path-to-sink levels
  (:func:`repro.dag.analysis.longest_path_levels`), so the critical
  chain never waits behind bulk work; kept for DAGs with more tasks than
  the unit DAG, where an order could start to matter.
* :class:`InversePriorityScheduler` (``"inverse-priority"``) — a
  deliberately mis-prioritized heap (shortest path first).  Exists only
  as fault injection for the robustness tests (the worst admissible
  pop order must still give the same factor); never a sensible choice.

Thread-safety contract: ``push``/``pop`` are called concurrently from
worker threads.  ``pop`` may transiently return ``None`` while
``has_work()`` is true (a steal race); callers must re-poll rather than
treat ``None`` as termination — the runtime's parking protocol in
:mod:`repro.runtime.threaded` does exactly that.
"""

from __future__ import annotations

import heapq
import random
import threading
from collections import deque
from typing import Callable, Optional

from repro.dag.tasks import TaskDAG

__all__ = [
    "ThreadScheduler",
    "WorkStealingScheduler",
    "CriticalPathScheduler",
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

    def has_work(self) -> bool:
        """Approximate emptiness probe (used by the parking protocol)."""
        raise NotImplementedError

    # -- diagnostics ---------------------------------------------------
    def snapshot(self, limit: int = 15) -> list[int]:
        """A bounded sample of queued tasks (watchdog diagnostics)."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Counters for benchmark reports (best-effort, race-tolerant)."""
        return {}


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

    def push(self, task: int, worker: int) -> int:
        # A worker keeps what it releases; initial seeding (worker -1)
        # deals the sources round-robin.
        w = worker
        if not 0 <= w < self.n_workers:
            with self._seed_lock:
                w = self._seed_next
                self._seed_next = (w + 1) % self.n_workers
        with self._locks[w]:
            self._local[w].append(task)
        return w

    def pop(self, worker: int) -> Optional[int]:
        with self._locks[worker]:
            if self._local[worker]:
                self._n_local[worker] += 1
                return self._local[worker].pop()      # LIFO: own end
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
        # Deliberately lock-free: len() of a deque is one atomic read
        # per victim under CPython's GIL (append/pop never leave the
        # length transiently wrong), and the parking protocol tolerates
        # a stale answer by re-polling after a bounded nap — never a
        # lost task.
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


class CriticalPathScheduler(ThreadScheduler):
    """Shared max-heap on longest-path-to-sink levels (dmda twin).

    StarPU's dmda ranks by a cost model of expected completion; on a
    homogeneous CPU pool that collapses to critical-path list
    scheduling, which this implements exactly: the ready task with the
    heaviest remaining dependency chain runs first.  One lock guards the
    heap — the point of this policy is *ordering*, not throughput.
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
    WorkStealingScheduler.name: WorkStealingScheduler,
    CriticalPathScheduler.name: CriticalPathScheduler,
    InversePriorityScheduler.name: InversePriorityScheduler,
}


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

