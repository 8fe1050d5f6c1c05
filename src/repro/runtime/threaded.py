"""Real parallel execution of the factorization DAG on Python threads.

NumPy's BLAS kernels release the GIL, so panel factorizations and GEMM
updates genuinely overlap across worker threads.  Scheduling is
pluggable (:mod:`repro.runtime.scheduling`): per-worker work-stealing
deques (PaStiX twin), a critical-path-priority heap (dmda twin), a
last-panel-affinity router (PaRSEC cache-reuse twin), or the legacy
global FIFO baseline — selected via ``factorize_threaded(...,
scheduler=...)`` and stamped into the trace's ``meta`` for the S2xx
verifier.

What the pool executes by default is the *unit* DAG
(``build_dag(granularity="unit")``): one left-looking task per panel or
fused leaf subtree, edges along the supernode tree only.  A unit task
applies, panel by panel, the updates its panels receive (ascending
source order) and then factorizes them; every write lands in a panel the
task owns and every read is ordered by a tree edge, so the bodies take
**no lock** and the factor is bit-for-bit the sequential driver's —
whatever the worker count, scheduler and interleaving
(:class:`_ThreadedUnitRun`).  The solve runs the same way
(:class:`_ThreadedSolve`).

The 2D couple DAG (``granularity="2d"``: a panel task per cblk, an
update task per couple) stays executable for the options defined on
couples — fan-in ``accumulate``, ``split_rows``, hedged re-execution
(:class:`_ThreadedRun`).  There several updates race into one facing
panel, and the lock discipline is deliberately narrow:

* the sparse GEMM of an update runs *outside* the target-panel mutex
  (:func:`repro.kernels.panel.panel_update_compute`); only the
  scatter-add into the facing panel serializes
  (:func:`~repro.kernels.panel.panel_update_scatter`);
* the order updates reach a panel varies run to run, so the 2D factor
  agrees with the sequential one to roundoff, not to the bit.

Common to both (:class:`_PoolRun`):

* completion notifications use per-worker wakeup events instead of one
  global condition variable, so finishing a task never stampedes the
  whole pool;
* trace rows are buffered per worker and merged once at ``run()`` exit,
  so tracing never contends with the scheduler.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from repro.core.factor import NumericFactor
from repro.core.factorization import contributing_cblks
from repro.dag.builder import get_dag
from repro.dag.tasks import TaskKind
from repro.kernels import native
from repro.kernels.dense import triangular_solve
from repro.kernels.panel import (
    panel_factorize,
    panel_update,
    panel_update_compute,
    panel_update_scatter,
)
from repro.resilience import (
    FaultModel,
    HealthMonitor,
    HealthPolicy,
    bucket_key,
    window_factor,
)
from repro.runtime.scheduling import ThreadScheduler, get_thread_scheduler
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["factorize_threaded", "solve_threaded"]

#: Bound on a parked worker's nap.  Wakeups are evented, so this only
#: matters if a wakeup races the parking protocol; it turns a lost
#: signal into a few-ms hiccup instead of a hang.
_PARK_TIMEOUT_S = 0.02


class _PoolRun:
    """Scheduler-driven thread-pool execution of one task DAG.

    The shared engine beneath the factorization and solve runs; a
    subclass supplies the task body (:meth:`_run_task`).  Hardening is
    uniform across both phases:

    * a task body that raises is retried up to ``max_retries`` times
      (each failed attempt lands in the trace as a ``"task-error"``
      fault with a ``"requeue"`` recovery);
    * past the budget the task is *quarantined* — its exception is kept,
      its not-yet-run descendants are abandoned, and every independent
      task still executes (no whole-run abort).  ``run()`` re-raises the
      first quarantined exception once the rest of the DAG drained;
    * ``watchdog_s`` bounds the wait for progress: instead of joining
      forever on a wedged pool, ``run()`` raises a diagnostic naming the
      scheduler queue and the blocked frontier.

    NOTE: retrying is only sound for task bodies that fail *before*
    mutating shared state (argument validation, resource errors).  For
    factorization updates the compute/scatter split makes the whole GEMM
    re-runnable; a partially applied scatter is not.  Production
    runtimes checkpoint the panel first, which an in-memory engine
    cannot.
    """

    #: Used in stall/watchdog messages ("factorization" / "solve").
    phase_label = "run"

    def __init__(self, dag, n_workers: int,
                 trace: Optional[ExecutionTrace],
                 scheduler: ThreadScheduler | str,
                 max_retries: int = 0,
                 watchdog_s: float | None = None,
                 record_sync: bool = False,
                 faults: Optional[FaultModel] = None,
                 health: Optional[HealthPolicy] = None) -> None:
        self.dag = dag
        self.n_workers = max(1, int(n_workers))
        self.trace = trace
        self.max_retries = max_retries
        self.watchdog_s = watchdog_s
        self.scheduler = get_thread_scheduler(scheduler)
        self.scheduler.bind(dag, self.n_workers)
        self.deps_left = dag.n_deps.copy()
        self.n_done = 0
        self.done = np.zeros(dag.n_tasks, dtype=bool)
        # One lock for dependency/completion state; queue state lives in
        # the scheduler behind its own (finer) locks.
        self.state = threading.Lock()
        self.wakeups = [threading.Event() for _ in range(self.n_workers)]
        self._trace_rows: list[list[tuple[int, float, float]]] = [
            [] for _ in range(self.n_workers)
        ]
        # Sync instrumentation is all-or-nothing: when off, every hook
        # is a single `is None` branch — no clock reads, no buffers, no
        # observer — so untraced runs stay bit-identical.  Buffers are
        # per worker (slot -1 = the driver thread) and lock-free; they
        # merge into the trace at run() exit like the task rows.
        self._sync_rows: Optional[list[list[tuple]]] = (
            [[] for _ in range(self.n_workers + 1)]
            if (record_sync and trace is not None) else None
        )
        self.attempts: dict[int, int] = {}
        self.quarantined: dict[int, BaseException] = {}
        self.abandoned: set[int] = set()
        self.aborted = False
        self.t0 = time.perf_counter()

        # Fault injection (wall-clock engine).  Only *declarative*
        # fault state is consumed — spec-pinned stragglers and the
        # persistent limplock windows; rate-based kinds draw from a
        # shared RNG whose consumption order is thread-racy here, so
        # the simulators own those.  Slowdowns are injected as sleeps
        # proportional to measured kernel time, which perturbs timing
        # only: the numerics stay bitwise identical to a fault-free
        # run.
        self.faults = faults
        self._limp: dict[int, list] = {}
        self._straggle: dict[int, float] = {}
        if faults is not None:
            self._limp = faults.pop_windows("limplock")
            # Only task-pinned stragglers: which attempt a floating or
            # rate-drawn spec matches depends on thread interleaving.
            for s in list(faults.specs):
                if s.kind == "straggler" and s.task >= 0:
                    self._straggle[s.task] = max(s.factor, 1.0)
                    faults.specs.remove(s)
            if trace is not None:
                trace.meta["faults"] = {"seed": faults.seed}
                for w, spans in sorted(self._limp.items()):
                    for (w0, _until, _f) in spans:
                        trace.record_fault("limplock", -1, -1,
                                           f"cpu{w}", w0, w0)
                        trace.record_recovery("degrade", -1, -1,
                                              f"cpu{w}", w0)

        # Worker health monitoring + hedged re-execution.  Every hook
        # below is gated on ``self.health is not None`` so a run
        # without monitoring goes through byte-identical code paths.
        self.health: Optional[HealthMonitor] = None
        self.n_hedges = 0
        if health is not None:
            self.health = HealthMonitor(
                (f"cpu{w}" for w in range(self.n_workers)), policy=health)
            #: task -> (worker, start) for attempts begun through the
            #: plain execute path (the hedging candidate pool).
            self._inflight: dict[int, tuple[int, float]] = {}
            #: Tasks whose side effects have been committed (the
            #: exactly-once gate both attempts of a hedged task race).
            self._committed: set[int] = set()
            #: Hedged tasks: ``task -> primary worker``.
            self._hedged: dict[int, int] = {}
            # Per-worker event buffers, merged at run() exit like the
            # task rows (recording never takes a shared lock).
            self._health_rows: list[list[tuple]] = [
                [] for _ in range(self.n_workers)
            ]
            self._hedge_rows: list[list[tuple]] = [
                [] for _ in range(self.n_workers)
            ]
            #: Wall time of each worker's last completed task (watchdog
            #: diagnostics; single-writer per slot, lock-free).
            self._last_done = [0.0] * self.n_workers
            #: Kernel seconds of the attempt just run, stamped by the
            #: task body (single-writer per slot).  The monitor must
            #: see the worker's own execution speed — wall elapsed
            #: includes mutex wait, which is queueing, not health: a
            #: worker stuck behind a limping peer's lock hold would
            #: otherwise get flagged for the peer's slowness.
            self._kern = [0.0] * self.n_workers
            self.scheduler.health_rank = (
                lambda w: self.health.rank(f"cpu{w}"))
            if trace is not None:
                trace.meta["health"] = {"hedge": bool(health.hedge)}
        if trace is not None:
            trace.meta["producer"] = "runtime.threaded"
            # Wall clock: timings and thread placement vary run to run,
            # so ExecutionTrace.fingerprint() only digests the
            # order-insensitive deterministic content (see tracing.py).
            trace.meta["clock"] = "wall"
            trace.meta["scheduler"] = self.scheduler.name
            trace.meta["n_workers"] = self.n_workers
            if self._sync_rows is not None:
                trace.meta["sync_trace"] = True
        if self._sync_rows is not None:
            self.scheduler.observer = self._observe_steal
        for t in dag.sources():
            self._push(int(t), -1)

    # -- sync instrumentation ------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self.t0

    def _sync(self, kind: str, worker: int, obj: str, task: int,
              start: float, end: float, wait_s: float = 0.0,
              n: int = 1) -> None:
        """Buffer one sync event (caller checked ``_sync_rows``)."""
        assert self._sync_rows is not None
        self._sync_rows[worker].append(
            (kind, worker, obj, task, start, end, wait_s, n)
        )

    def _observe_steal(self, kind: str, worker: int, victim: int,
                       task: int) -> None:
        """Scheduler observer: steal probes land in the thief's buffer."""
        if self._sync_rows is not None:
            now = self._now()
            self._sync(kind, worker, f"worker{victim}", task, now, now)

    # -- fault injection and health monitoring --------------------------
    def _health_key(self, t: int) -> str:
        """(kernel, size-bucket) expectation key for task ``t``."""
        kind = int(self.dag.kind[t])
        flops = getattr(self.dag, "flops", None)
        if flops is None:
            return bucket_key(kind, 0.0)
        return bucket_key(kind, float(flops[t]))

    def _record_health(self, worker: int, transitions) -> None:
        """Buffer monitor transitions (caller is worker ``worker``)."""
        if transitions and self.trace is not None:
            self._health_rows[worker].extend(transitions)

    def _record_hedge(self, worker: int, kind: str, t: int,
                      resource: str, when: float, primary: str) -> None:
        if self.trace is not None:
            self._hedge_rows[worker].append(
                (kind, t, resource, when, primary))

    def _inject(self, t: int, worker: int, kern_s: float) -> None:
        """Sleep out the injected slowdown of task ``t`` on ``worker``.

        The sleep is proportional to the just-measured kernel time
        (``factor``x slowdown = ``(factor-1) * kern_s`` extra), so the
        perturbation is purely temporal: numerics stay bitwise
        identical to a fault-free run.  Callers place this *between*
        a task's lock-free compute and its locked commit, which is
        exactly where a limping core loses the race to a healthy
        hedge duplicate.
        """
        if self.faults is None:
            return
        now = self._now()
        factor = window_factor(self._limp[worker], now) \
            if worker in self._limp else 1.0
        sf = self._straggle.pop(t, None)
        if sf is not None:
            factor *= sf
        if factor <= 1.0:
            return
        extra = kern_s * (factor - 1.0)
        if sf is not None and self.trace is not None:
            cblk = int(self.dag.cblk[t])
            # One-shot straggler: trace-visible as a fault absorbed in
            # place (the R601 pairing for stragglers).  Persistent
            # limplock was already recorded once at its onset.
            with self.state:
                self.trace.record_fault(
                    "straggler", t, cblk, f"cpu{worker}", now, now + extra)
                self.trace.record_recovery(
                    "absorb", t, cblk, f"cpu{worker}", now + extra)
        # The nap IS the fault being modeled (a limping core burning
        # wall time), not a synchronization shortcut.
        time.sleep(extra)  # noqa: RV404

    def _hedgeable(self, t: int) -> bool:
        """May ``t`` be speculatively duplicated?  Only task bodies with
        an idempotent-commit step (subclasses opt in)."""
        return False

    # -- task body (subclass surface) ----------------------------------
    def _run_task(self, t: int, worker: int) -> None:
        raise NotImplementedError

    def _push(self, t: int, worker: int) -> int:
        """Make ``t`` ready.  Subclass hook wrapping ``scheduler.push``
        so runs that need ready-task accounting can observe every
        enqueue (the fan-in batching guard)."""
        # The scheduler binding is final after bind(); push/pop guard
        # the scheduler's internal state with its own lock.
        return self.scheduler.push(t, worker)  # noqa: RV405

    def _execute(self, t: int, worker: int) -> Optional[bool]:
        start = time.perf_counter() - self.t0
        if self.health is None:
            self._run_task(t, worker)
            if self.trace is not None or self.scheduler.wants_durations:
                end = time.perf_counter() - self.t0
                if self.trace is not None:
                    # Buffered: merged into the trace at run() exit so
                    # a traced completion never takes a shared lock.
                    self._trace_rows[worker].append((t, start, end))
                if self.scheduler.wants_durations:
                    # Measured-duration feedback for the adaptive
                    # model; exactly once per committed task.
                    self.scheduler.on_duration(t, end - start)
            return None
        # Monitored: register the in-flight attempt (the hedging
        # candidate pool and the watchdog's in-flight ages), time the
        # body, and feed the duration to the health monitor.  A body
        # that returns False lost the idempotent-commit race to a hedge
        # duplicate: its side effects were discarded at the gate, so it
        # gets no trace row and no completion — but its elapsed time is
        # still observed (a worker that always loses its hedges would
        # otherwise never complete anything and its EWMA would freeze).
        self._inflight[t] = (worker, start)
        self._kern[worker] = 0.0
        try:
            committed = self._run_task(t, worker)
        finally:
            self._inflight.pop(t, None)
        end = time.perf_counter() - self.t0
        dur = self._kern[worker] or (end - start)
        self._record_health(worker, self.health.observe(
            f"cpu{worker}", self._health_key(t), dur, end))
        if committed is False:
            self._record_hedge(worker, "cancel", t, f"cpu{worker}", end,
                               self._hedged.get(t, ""))
            return False
        self._last_done[worker] = end
        if self.scheduler.wants_durations:
            self.scheduler.on_duration(t, dur)
        if self.trace is not None:
            self._trace_rows[worker].append((t, start, end))
        if t in self._hedged:
            self._record_hedge(worker, "win", t, f"cpu{worker}", end,
                               self._hedged[t])
        return True

    # -- bookkeeping ---------------------------------------------------
    def _settled(self) -> int:
        """Tasks that will never run again: completed or abandoned.
        Every caller already holds ``self.state``."""
        return self.n_done + len(self.abandoned)  # noqa: RV405

    def _quarantine_locked(self, t: int, exc: BaseException) -> None:
        """Abandon ``t`` and its not-yet-run descendants (state held)."""
        self.quarantined[t] = exc
        stack = [t]
        while stack:
            u = stack.pop()
            if u in self.abandoned:
                continue
            self.abandoned.add(u)
            for s in self.dag.successors(u):
                if not self.done[s]:
                    stack.append(int(s))

    def _wake_all(self) -> None:
        for ev in self.wakeups:
            ev.set()

    def _wake(self, hint: int, me: int) -> None:
        """Wake the routed worker, or any parked one for shared pools."""
        if 0 <= hint < self.n_workers:
            if hint != me:
                self.wakeups[hint].set()
                if self._sync_rows is not None:
                    now = self._now()
                    self._sync("wake", me, f"worker{hint}", -1, now, now)
            return
        self._wake_any(me)

    def _wake_any(self, me: int) -> None:
        for w in range(self.n_workers):
            if w != me and not self.wakeups[w].is_set():
                self.wakeups[w].set()
                if self._sync_rows is not None:
                    now = self._now()
                    self._sync("wake", me, f"worker{w}", -1, now, now)
                return

    def _on_success(self, t: int, worker: int) -> None:
        released: list[int] = []
        with self.state:
            self.n_done += 1
            self.done[t] = True
            for s in self.dag.successors(t):
                self.deps_left[s] -= 1
                if self.deps_left[s] == 0 and s not in self.abandoned:
                    released.append(int(s))
            terminal = self._settled() >= self.dag.n_tasks
            # Publish timestamp is taken *inside* the state lock: the
            # lock serializes completions, so every predecessor's
            # publish time provably precedes the successor-releasing
            # decrement — the C702 ordering the auditor re-checks.
            pub = self._now() if self._sync_rows is not None else 0.0
        if self._sync_rows is not None:
            self._sync("publish", worker, "pool", t, pub, pub)
        # Affinity bookkeeping first, so freshly released successors
        # route to the worker whose cache just touched the panel.
        self.scheduler.on_complete(t, worker)
        if terminal:
            self._wake_all()
            return
        # This worker keeps one released task for itself (it pops next);
        # each task routed elsewhere wakes its target, and each *surplus*
        # local/shared task offers a parked peer the chance to steal it.
        surplus = len(released) - 1
        for s in released:
            hint = self._push(s, worker)
            if 0 <= hint < self.n_workers and hint != worker:
                self.wakeups[hint].set()
                if self._sync_rows is not None:
                    now = self._now()
                    self._sync("wake", worker, f"worker{hint}", s, now, now)
            elif surplus > 0:
                self._wake_any(worker)
                surplus -= 1

    def _on_failure(self, t: int, worker: int, exc: BaseException) -> None:
        cblk = int(self.dag.cblk[t])
        with self.state:
            att = self.attempts.get(t, 0) + 1
            self.attempts[t] = att
            now = time.perf_counter() - self.t0
            retry = att <= self.max_retries
            if self.trace is not None:
                self.trace.record_fault(
                    "task-error", t, cblk, f"cpu{worker}", now, now, att,
                )
                if retry:
                    self.trace.record_recovery(
                        "requeue", t, cblk, f"cpu{worker}", now, att,
                    )
            if not retry:
                self._quarantine_locked(t, exc)
        if retry:
            hint = self._push(t, worker)
            self._wake(hint, worker)
        else:
            self._wake_all()

    # -- the worker loop -----------------------------------------------
    def _park(self, worker: int) -> None:
        ev = self.wakeups[worker]
        ev.clear()
        # Recheck *after* clearing: a push that landed before the clear
        # is visible here; one that lands after will set the event.
        if self.scheduler.has_work() or self.aborted:
            return
        with self.state:
            if self._settled() >= self.dag.n_tasks:
                return
        if self._sync_rows is None:
            ev.wait(timeout=_PARK_TIMEOUT_S)
        else:
            t_park = self._now()
            ev.wait(timeout=_PARK_TIMEOUT_S)
            self._sync("park", worker, f"worker{worker}", -1,
                       t_park, self._now())

    def _process(self, t: int, worker: int) -> None:
        """Run one popped task through execute/success/failure.

        Subclass hook: the factorization override batches same-target
        updates here (fan-in accumulation) before completing them.
        """
        try:
            committed = self._execute(t, worker)
        except BaseException as exc:
            if self.health is not None and t in self._committed:
                # A hedge duplicate already committed and completed this
                # task; the primary's late failure is absorbed.
                return
            self._on_failure(t, worker, exc)
            return
        if committed is False:
            return  # lost the hedge race; the winner published it
        self._on_success(t, worker)

    def _worker(self, worker: int) -> None:
        while True:
            with self.state:
                if self.aborted or self._settled() >= self.dag.n_tasks:
                    return
            if self.health is not None \
                    and self.health.rank(f"cpu{worker}") == 2:
                # Quarantined: take no work (the R703 contract).  Park
                # on the usual timeout and tick the monitor so the
                # dwell timer can release us into probation; peers keep
                # stealing whatever sits in our deque.
                self._record_health(
                    worker, self.health.tick(self._now()))
                ev = self.wakeups[worker]
                ev.clear()
                ev.wait(timeout=_PARK_TIMEOUT_S)
                continue
            t = self.scheduler.pop(worker)
            if t is None:
                if self.health is not None and self._try_hedge(worker):
                    continue
                self._park(worker)
                continue
            with self.state:
                if t in self.abandoned:
                    continue
            self._process(t, worker)

    # -- speculative (hedged) re-execution -------------------------------
    def _try_hedge(self, worker: int) -> bool:
        """Idle healthy worker scans the in-flight pool for a task stuck
        on a suspect-or-worse worker past its hedge threshold; runs the
        duplicate inline when it claims one.  Returns True if it did."""
        h = self.health
        if not h.policy.hedge or h.rank(f"cpu{worker}") != 0:
            return False
        now = self._now()
        with self.state:
            inflight = list(self._inflight.items())
        for t, (pw, pstart) in inflight:
            if pw == worker or t in self._hedged or t in self._committed:
                continue
            if not self._hedgeable(t):
                continue
            after = h.hedge_after(self._health_key(t))
            if after is None:
                continue
            age = now - pstart
            if age < after:
                continue
            if h.state(f"cpu{pw}") == "healthy" and age < 2.0 * after:
                # A mild overstay on an unflagged worker is likely
                # queueing noise, but an extreme one is its own
                # evidence: a stuck attempt is overdue regardless of
                # what the EWMA has seen so far (it only updates on
                # *completions*, which is exactly what a stuck task
                # never delivers).
                continue
            with self.state:
                # Claim under the state lock: another idle worker may
                # be scanning the same snapshot.
                if (t in self._hedged or t in self._committed
                        or t not in self._inflight):
                    continue
                self._hedged[t] = f"cpu{pw}"
                self.n_hedges += 1
            self._record_hedge(worker, "launch", t, f"cpu{worker}",
                               self._now(), f"cpu{pw}")
            self._process_hedge(t, worker)
            return True
        return False

    def _process_hedge(self, t: int, worker: int) -> None:
        """Run the speculative duplicate of ``t``; first commit wins.

        Unlike the simulators, a losing wall-clock attempt cannot be
        cancelled mid-kernel — both run to completion and the commit
        gate inside the task body discards the loser's side effects.
        """
        start = self._now()
        self._kern[worker] = 0.0
        try:
            committed = self._run_task(t, worker)
        except BaseException:
            # A duplicate failure is absorbed: the primary attempt is
            # still in flight and completes (or fails) on its own.
            self._record_hedge(worker, "cancel", t, f"cpu{worker}",
                               self._now(), self._hedged.get(t, ""))
            return
        end = self._now()
        dur = self._kern[worker] or (end - start)
        self._record_health(worker, self.health.observe(
            f"cpu{worker}", self._health_key(t), dur, end))
        if committed is False:
            self._record_hedge(worker, "cancel", t, f"cpu{worker}", end,
                               self._hedged.get(t, ""))
            return
        self._last_done[worker] = end
        if self.scheduler.wants_durations:
            self.scheduler.on_duration(t, dur)
        if self.trace is not None:
            self._trace_rows[worker].append((t, start, end))
        self._record_hedge(worker, "win", t, f"cpu{worker}", end,
                           self._hedged[t])
        self._on_success(t, worker)

    # -- diagnostics ---------------------------------------------------
    def _watchdog_message(self) -> str:
        with self.state:
            ready = self.scheduler.snapshot(15)
            pending = np.flatnonzero(~self.done)
            frontier = [
                int(t) for t in pending
                if t not in self.abandoned and self.deps_left[t] == 0
            ]
            blocked = int(
                sum(1 for t in pending if self.deps_left[t] > 0)
            )
            msg = (
                f"threaded {self.phase_label} made no progress for "
                f"{self.watchdog_s}s: "
                f"{self.n_done}/{self.dag.n_tasks} done, "
                f"{len(self.abandoned)} abandoned; "
                f"scheduler {self.scheduler.name!r}; ready queue {ready}; "
                f"{len(frontier)} released-but-unrun task(s) "
                f"{frontier[:15]}; {blocked} task(s) with deps_left > 0"
            )
            if self.health is not None:
                # Which worker is wedged and how long has its in-flight
                # task sat there — the first question a stalled-pool
                # report gets asked.
                now = self._now()
                snap = self.health.snapshot()
                per = ", ".join(
                    f"cpu{w}:{snap[f'cpu{w}'][0]}"
                    f"(ewma={snap[f'cpu{w}'][1]:.2f},"
                    f" last_done={now - self._last_done[w]:.2f}s ago)"
                    for w in range(self.n_workers)
                )
                ages = {
                    t: f"{now - st:.2f}s on cpu{w}"
                    for t, (w, st) in sorted(self._inflight.items())
                }
                msg += (f"; worker health [{per}]; "
                        f"in-flight task ages {ages}")
            return msg

    def _merge_trace(self) -> None:
        if self.trace is None:
            return
        for w in range(self.n_workers):
            for t, start, end in self._trace_rows[w]:
                self.trace.record(t, f"cpu{w}", start, end)
        self._trace_rows = [[] for _ in range(self.n_workers)]
        stamp = getattr(self.scheduler, "model_stamp", None)
        if stamp is not None:
            # Adaptive-model provenance (model version + sample counts);
            # deterministic by contract, so it is safe inside the D8xx
            # fingerprint whitelist and audited by the A9xx pass.
            self.trace.meta["adaptive"] = stamp()
        if self.health is not None:
            for w in range(self.n_workers):
                for (res, src, dst, when, ratio, rsn) in self._health_rows[w]:
                    self.trace.record_health(res, src, dst, when, ratio, rsn)
                for (kind, t, res, when, primary) in self._hedge_rows[w]:
                    self.trace.record_hedge(kind, t, res, when, primary)
            self._health_rows = [[] for _ in range(self.n_workers)]
            self._hedge_rows = [[] for _ in range(self.n_workers)]
            self.trace.meta["health"] = {
                "hedge": bool(self.health.policy.hedge),
                "n_observations": self.health.n_observations,
                "n_transitions": self.health.n_transitions,
                "n_hedges": self.n_hedges,
            }
        if self._sync_rows is not None:
            for rows in self._sync_rows:
                for r in rows:
                    self.trace.record_sync(*r)
            self._sync_rows = [[] for _ in range(self.n_workers + 1)]
            self.scheduler.observer = None
            self._stamp_sync_stats()

    def _stamp_sync_stats(self) -> None:
        """Summarize the merged sync events into ``trace.meta``.

        Counts per kind plus total lock-held/lock-wait seconds — the
        benchmark's tuning signal and the C707 provenance anchor: the
        concurrency auditor recomputes these from the events and a
        mismatch means the trace was edited after the run.
        """
        assert self.trace is not None
        counts: dict[str, int] = {}
        held = wait = 0.0
        for e in self.trace.sync_events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
            if e.kind == "lock":
                held += e.duration
                wait += e.wait_s
        self.trace.meta["sync_stats"] = {
            "counts": counts,
            "lock_held_s": held,
            "lock_wait_s": wait,
        }

    # -- driver --------------------------------------------------------
    def run(self) -> None:
        threads = [
            threading.Thread(target=self._worker, args=(w,), daemon=True)
            for w in range(self.n_workers)
        ]
        for th in threads:
            th.start()
        try:
            if self.watchdog_s is None:
                for th in threads:
                    th.join()
            else:
                deadline = time.monotonic() + self.watchdog_s
                last_progress = -1
                while any(th.is_alive() for th in threads):
                    for th in threads:
                        th.join(timeout=0.05)
                    with self.state:
                        progress = self._settled()
                    if progress != last_progress:
                        last_progress = progress
                        deadline = time.monotonic() + self.watchdog_s
                    elif time.monotonic() > deadline:
                        msg = self._watchdog_message()
                        with self.state:
                            self.aborted = True
                        self._wake_all()
                        raise RuntimeError(msg)
        finally:
            # Only merge once every worker is gone — the buffers are
            # written lock-free by their owning threads.
            if all(not th.is_alive() for th in threads):
                self._merge_trace()
        if self.quarantined:
            # Everything independent of the failures completed; now
            # surface the first failure to the caller.
            raise next(iter(self.quarantined.values()))
        if self.n_done != self.dag.n_tasks:
            raise RuntimeError(
                f"threaded {self.phase_label} stalled"
            )


class _ThreadedUnitRun(_PoolRun):
    """One threaded factorization at unit granularity (the default).

    Task ``u`` of the unit DAG (:func:`repro.dag.builder._build_unit`)
    factorizes the panels of unit ``u`` left-looking: for each member
    panel ascending, apply the updates of its source panels in ascending
    source order, then :func:`panel_factorize` it.  That is the order
    the sequential driver's updates reach each panel in, and every
    source panel is final before the task starts (same unit, or ordered
    by a tree edge) — so the factor is bit-identical to
    :func:`repro.core.factorization.factorize_sequential` and the body
    takes no lock.  The kernels are the sequential driver's: on the
    native backend one GIL-free C call per unit
    (:func:`repro.kernels.native.factorize_panels`, per-worker scratch),
    else :func:`panel_update` (workspace compute + scatter, the fused
    compiled kernel, or the direct-scatter twin).
    """

    phase_label = "factorization"

    def __init__(self, factor: NumericFactor, dag, n_workers: int,
                 workspace: bool, trace: Optional[ExecutionTrace],
                 **pool_options) -> None:
        super().__init__(dag, n_workers, trace, **pool_options)
        self.factor = factor
        self.workspace = workspace
        # Here, not in the workers: a plan that fails its checks raises
        # in the caller's thread, before the pool exists.
        self._scratch = (
            [native.Scratch(factor) for _ in range(n_workers)]
            if factor.kernels == "native" else None
        )

    def _sources(self, k: int):
        """Source panels whose updates land in panel ``k``, ascending."""
        cache = self.factor.index_cache
        if cache is not None:
            return cache.source_ids(k)
        return contributing_cblks(self.factor.symbol, k).tolist()

    def _run_task(self, t: int, worker: int) -> None:
        dag, factor = self.dag, self.factor
        timed = self.faults is not None or self.health is not None
        k0 = time.perf_counter() if timed else 0.0
        panels = dag.unit_panels[dag.unit_ptr[t]: dag.unit_ptr[t + 1]]
        if self._scratch is not None:
            native.factorize_panels(factor, panels, self._scratch[worker])
        else:
            for k in panels.tolist():
                for j in self._sources(k):
                    panel_update(factor, j, k, workspace=self.workspace)
                panel_factorize(factor, k)
        if timed:
            self._inject(t, worker, time.perf_counter() - k0)
            if self.health is not None:
                # Stamped after the injected sleep: the slowdown is
                # exactly what the monitor must see.
                self._kern[worker] = time.perf_counter() - k0


class _ThreadedRun(_PoolRun):
    """One threaded factorization on the 2D couple DAG
    (``granularity="2d"``; see :class:`_PoolRun` for hardening).

    Update tasks are two-phase: the sparse GEMM runs lock-free against
    the already-factorized source panel, then the scatter-add takes the
    target-panel mutex.  With ``workspace=False`` the direct-scatter
    GPU-twin kernel has no separable compute half, so the whole kernel
    runs under the mutex (the legacy discipline).
    """

    phase_label = "factorization"

    #: Bound on a fan-in batch (first task + drained extras).  Small:
    #: a batch delays its members' completion notifications until the
    #: flush, so unbounded draining would serialize the frontier.
    batch_limit = 8

    def __init__(self, factor: NumericFactor, dag, n_workers: int,
                 workspace: bool, trace: Optional[ExecutionTrace],
                 max_retries: int = 0,
                 watchdog_s: float | None = None,
                 scheduler: ThreadScheduler | str = "ws",
                 accumulate: bool = False,
                 record_sync: bool = False,
                 faults: Optional[FaultModel] = None,
                 health: Optional[HealthPolicy] = None) -> None:
        # Accumulation state first: the base __init__ seeds the ready
        # queue through the _push hook below, which consults it.
        self.accumulate = accumulate
        if accumulate:
            from repro.kernels.accumulate import FanInAccumulator

            self._accum = [FanInAccumulator() for _ in range(n_workers)]
            # Per-target count of *queued* ready updates, maintained by
            # the _push/_process hooks.  Best-effort (GIL-racy +=/-=
            # drift at worst skips a batch or wastes one scan): its job
            # is to keep the pop_same_target deque scans off the hot
            # path when no sibling update is queued — without it every
            # update pays a full victim sweep that mostly finds nothing.
            self._ready_upd = [0] * dag.symbol.n_cblk
        # The task bodies need these before the base __init__ can seed
        # ready sources (a source could in principle be processed by a
        # racing worker, but workers only start in run()).
        self.workspace = workspace
        super().__init__(dag, n_workers, trace, scheduler,
                         max_retries=max_retries, watchdog_s=watchdog_s,
                         record_sync=record_sync, faults=faults,
                         health=health)
        self.factor = factor
        self.panel_locks = [
            threading.Lock() for _ in range(dag.symbol.n_cblk)
        ]
        from repro.kernels.compiled import HAVE_NUMBA

        # Compiled backend + workspace mode (no batching): updates run
        # the *fused* compute+scatter jit kernel under the target mutex;
        # the jit region drops the GIL, so fused updates to different
        # panels still overlap.  With fan-in accumulation the two-phase
        # split stays (the compiled merge_add runs in load()).
        self._fused = (
            getattr(factor, "kernels", "numpy") == "compiled" and HAVE_NUMBA
        )

    def _task_part(self, t: int):
        """Row-block bounds of a 2D-split update task (or ``None``)."""
        row_lo = self.dag.row_lo
        if row_lo is None:
            return None
        lo = int(row_lo[t])
        if lo < 0:
            return None
        return lo, int(self.dag.row_hi[t])

    def _push(self, t: int, worker: int) -> int:
        if self.accumulate and int(self.dag.kind[t]) == int(TaskKind.UPDATE):
            # Best-effort guard counter; a GIL-racy lost update only
            # skips a batch or wastes a scan.  noqa: RV401
            self._ready_upd[int(self.dag.target[t])] += 1  # noqa: RV401
        return super()._push(t, worker)

    def _locked_scatter(self, t: int, tgt: int, worker: int,
                        body, obj: Optional[str] = None) -> None:
        """Run ``body()`` under panel ``tgt``'s mutex, recording the
        hold window (acquire wait, acquire, release) when sync tracing
        is on.  The window is measured *inside* the lock, so measured
        windows on one panel are disjoint exactly when the real holds
        are — the C701 mutual-exclusion check stays sound."""
        if self._sync_rows is None:
            with self.panel_locks[tgt]:
                body()
            return
        t_req = self._now()
        with self.panel_locks[tgt]:
            t_acq = self._now()
            body()
            t_rel = self._now()
        self._sync("lock", worker, obj or f"panel{tgt}", t,
                   t_acq, t_rel, wait_s=t_acq - t_req)

    def _hedgeable(self, t: int) -> bool:
        """Only workspace-mode updates: their lock-free GEMM runs into
        a private buffer and the scatter commits under the target-panel
        mutex, so two concurrent attempts are race-free and the first
        through the gate wins.  Panel tasks (and ``workspace=False``
        updates) mutate shared panels in place — duplicating one would
        be a data race, so they are never hedged."""
        return (self.workspace
                and TaskKind(int(self.dag.kind[t])) == TaskKind.UPDATE)

    def _run_task(self, t: int, worker: int) -> Optional[bool]:
        dag = self.dag
        kind = TaskKind(int(dag.kind[t]))
        if kind != TaskKind.UPDATE:
            if self.faults is None and self.health is None:
                panel_factorize(self.factor, int(dag.cblk[t]))
            else:
                k0 = time.perf_counter()
                panel_factorize(self.factor, int(dag.cblk[t]))
                self._inject(t, worker, time.perf_counter() - k0)
                if self.health is not None:
                    # Stamped after the injected sleep: the slowdown is
                    # exactly what the monitor must see.
                    self._kern[worker] = time.perf_counter() - k0
            return None
        src, tgt = int(dag.cblk[t]), int(dag.target[t])
        part = self._task_part(t)
        # Blocking acquire is deadlock-free: a worker holds at most one
        # panel lock and never waits on anything else while holding it.
        if self.workspace and self._fused:
            # Fused compiled kernel: compute+scatter in one GIL-free jit
            # call, entirely under the target mutex.  Hedged attempts
            # serialize on that mutex, so the commit gate stays atomic.
            kern = [0.0]
            won = [True]

            def fused_body():
                if self.health is not None and t in self._committed:
                    won[0] = False
                    return
                b0 = time.perf_counter()
                panel_update(self.factor, src, tgt, part=part)
                kern[0] = time.perf_counter() - b0
                if self.health is not None:
                    self._committed.add(t)

            self._locked_scatter(t, tgt, worker, fused_body)
            if self.faults is not None or self.health is not None:
                i0 = time.perf_counter()
                self._inject(t, worker, kern[0])
                if self.health is not None:
                    self._kern[worker] = (
                        kern[0] + (time.perf_counter() - i0)
                    )
            return won[0] if self.health is not None else None
        if self.workspace:
            k0 = time.perf_counter()
            parts = panel_update_compute(self.factor, src, tgt, part=part)
            # The injected slowdown lands *between* the lock-free
            # compute and the locked scatter: that is where a limping
            # core loses the commit race to a healthy hedge duplicate.
            self._inject(t, worker, time.perf_counter() - k0)
            if self.health is not None:
                # Kernel time excludes the scatter below: its mutex
                # wait is queueing on a peer, not this worker's speed.
                self._kern[worker] = time.perf_counter() - k0
            if parts is not None:
                if self.health is None:
                    self._locked_scatter(
                        t, tgt, worker,
                        lambda: panel_update_scatter(
                            self.factor, tgt, parts),
                    )
                    return None
                # Idempotent-commit gate: both attempts of a hedged
                # task serialize on the same target-panel mutex, so
                # check-scatter-mark is atomic w.r.t. the other
                # attempt.  The mark lands *after* the scatter: a
                # scatter that raises leaves the gate open for the
                # retry path.
                won = [True]

                def body():
                    if t in self._committed:
                        won[0] = False
                        return
                    panel_update_scatter(self.factor, tgt, parts)
                    self._committed.add(t)

                self._locked_scatter(t, tgt, worker, body)
                return won[0]
            if self.health is not None:
                # No facing contribution: nothing to scatter, so the
                # gate lives under the state lock instead of a panel
                # mutex (both attempts deterministically reach here).
                with self.state:
                    if t in self._committed:
                        return False
                    self._committed.add(t)
            if self._sync_rows is not None:
                # No facing contribution: nothing was scattered, so no
                # lock was (or needed to be) taken — exempt from C703.
                now = self._now()
                self._sync("noop", worker, f"panel{tgt}", t, now, now)
            return None
        if self.faults is None and self.health is None:
            self._locked_scatter(
                t, tgt, worker,
                lambda: panel_update(self.factor, src, tgt,
                                     workspace=False, part=part),
            )
        else:
            kern = [0.0]

            def body():
                b0 = time.perf_counter()
                panel_update(self.factor, src, tgt, workspace=False,
                             part=part)
                kern[0] = time.perf_counter() - b0

            self._locked_scatter(t, tgt, worker, body)
            # Outside the mutex: the slowdown models a slow core, not
            # a longer critical section.  The in-lock measurement
            # excludes acquire wait for the same reason.
            i0 = time.perf_counter()
            self._inject(t, worker, kern[0])
            if self.health is not None:
                self._kern[worker] = kern[0] + (time.perf_counter() - i0)
        return None

    # -- fan-in accumulation -------------------------------------------
    def _process(self, t: int, worker: int) -> None:
        if (
            not self.accumulate
            or not self.workspace
            or TaskKind(int(self.dag.kind[t])) != TaskKind.UPDATE
        ):
            super()._process(t, worker)
            return
        self._process_update_batch(t, worker)

    def _process_update_batch(self, first: int, worker: int) -> None:
        """Batch ready same-target updates behind one mutex acquisition.

        The popped update's target panel is probed for further *ready*
        updates on this worker's own queue (``pop_same_target``); their
        GEMMs all run lock-free, the contributions merge in the worker's
        accumulator, and one locked slab subtraction commits the batch.
        Completions are only published after the flush — a batched
        update's successors (the target's panel task) must not start
        while its contribution sits in the accumulator.
        """
        dag = self.dag
        tgt = int(dag.target[first])
        self._ready_upd[tgt] -= 1  # `first` left the queue  # noqa: RV401
        batch = [first]
        while len(batch) < self.batch_limit and self._ready_upd[tgt] > 0:
            extra = self.scheduler.pop_same_target(worker, tgt)
            if extra is None:
                break
            self._ready_upd[tgt] -= 1  # noqa: RV401
            with self.state:
                if extra in self.abandoned:
                    continue
            batch.append(extra)

        computed: list[list] = []  # [task, parts, start, end]
        for u in batch:
            start = time.perf_counter() - self.t0
            try:
                parts = panel_update_compute(
                    self.factor, int(dag.cblk[u]), tgt,
                    part=self._task_part(u),
                )
            except BaseException as exc:
                self._on_failure(u, worker, exc)
                continue
            # Injected slowdowns apply per member (a limping core is
            # slow on every kernel it runs).  Batched members are never
            # hedged: they are not registered in-flight, so the only
            # commit is the single locked flush below.
            self._inject(u, worker,
                         time.perf_counter() - self.t0 - start)
            computed.append([u, parts, start, time.perf_counter() - self.t0])

        live = [c for c in computed if c[1] is not None]
        if len(live) == 1:
            self._locked_scatter(
                live[0][0], tgt, worker,
                lambda: panel_update_scatter(self.factor, tgt, live[0][1]),
            )
        elif live:
            acc = self._accum[worker]
            acc.load(self.factor, tgt, [c[1] for c in live])
            if self._sync_rows is None:
                with self.panel_locks[tgt]:
                    acc.apply(self.factor, tgt)
            else:
                t_req = self._now()
                with self.panel_locks[tgt]:
                    t_acq = self._now()
                    acc.apply(self.factor, tgt)
                    t_rel = self._now()
                # One lock window for the whole batch, plus one "flush"
                # event per member sharing its coordinates: the C7xx
                # auditor needs to see that every batched contribution
                # committed inside a mutex hold, and C704 needs each
                # member's publish to postdate this window's end.
                self._sync("lock", worker, f"panel{tgt}", live[-1][0],
                           t_acq, t_rel, wait_s=t_acq - t_req,
                           n=len(live))
                for c in live:
                    self._sync("flush", worker, f"panel{tgt}", c[0],
                               t_acq, t_rel, n=len(live))
        if self._sync_rows is not None:
            for c in computed:
                if c[1] is None:
                    self._sync("noop", worker, f"panel{tgt}", c[0],
                               c[3], c[3])
        if live:
            # The flush belongs to the batch's last task's window, so
            # per-resource trace rows stay sequential and disjoint.
            live[-1][3] = time.perf_counter() - self.t0

        for u, _parts, start, end in computed:
            if self.trace is not None:
                self._trace_rows[worker].append((u, start, end))
            if self.scheduler.wants_durations:
                self.scheduler.on_duration(u, end - start)
            if self.health is not None:
                self._last_done[worker] = end
                self._record_health(worker, self.health.observe(
                    f"cpu{worker}", self._health_key(u), end - start, end))
            self._on_success(u, worker)


class _ThreadedSolve:
    """Task bodies of the parallel triangular solve (left-looking).

    Executes the coarse DAG of :func:`repro.dag.build_solve_dag`: a task
    runs the forward (ascending) or backward (descending) steps of its
    unit's panels back to back.  Every shared access is ordered by a DAG
    edge, so the bodies take no lock and the result does not depend on
    worker count, scheduler or interleaving — it is bit-identical to
    :func:`repro.core.triangular.solve_factored`:

    * the forward step of panel ``k`` subtracts, in ascending source
      order, its descendants' slices of their private contribution slabs
      (``slab[j] = L[j][w:, :] @ y_j``), solves the diagonal triangle,
      and writes only ``x[f:l]`` and its own slab;
    * the backward step of ``k`` reads the final ``x`` of the rows below
      it (all owned by tree ancestors), applies ``D⁻¹`` (LDLᵀ) to its own
      segment, solves the transposed triangle and writes only ``x[f:l]``.

    ``x`` may be one right-hand side ``(n,)`` or a block ``(n, k)``.
    """

    def __init__(self, factor: NumericFactor, x: np.ndarray) -> None:
        from repro.kernels.indexcache import get_couple_cache

        self.factor = factor
        self.x = x
        self.sources = get_couple_cache(factor.symbol).sources
        self.ptr = factor.symbol.cblk_ptr.tolist()
        self.slabs: list[Optional[np.ndarray]] = [None] * len(factor.L)

    def run_task(self, dag, task: int) -> None:
        u = int(dag.solve_unit[task])
        panels = dag.unit_panels[dag.unit_ptr[u]: dag.unit_ptr[u + 1]]
        if dag.solve_backward[task]:
            for k in panels[::-1].tolist():
                self._backward(k)
        else:
            for k in panels.tolist():
                self._forward(k)

    def _forward(self, k: int) -> None:
        factor, x, slabs = self.factor, self.x, self.slabs
        f, l = self.ptr[k], self.ptr[k + 1]
        w = l - f
        panel = factor.L[k]
        rhs = x[f:l]
        for j, i0, i1, cols_local in self.sources[k]:
            rhs[cols_local] -= slabs[j][i0:i1]
        y = triangular_solve(
            panel[:w, :w], rhs, lower=True, unit=factor.factotype != "llt"
        )
        x[f:l] = y
        if panel.shape[0] > w:
            slabs[k] = panel[w:, :] @ y

    def _backward(self, k: int) -> None:
        factor, x = self.factor, self.x
        f, l = self.ptr[k], self.ptr[k + 1]
        w = l - f
        panel = factor.L[k]
        lu = factor.factotype == "lu"
        rhs = x[f:l]
        if factor.factotype == "ldlt":
            d = factor.D[k]
            rhs = rhs / (d if rhs.ndim == 1 else d[:, None])
        if panel.shape[0] > w:
            tall = factor.U[k] if lu else panel
            rhs = rhs - tall[w:, :].T @ x[factor.rows[k][w:]]
        if lu:
            # Packed LU: the diagonal block's upper triangle is U11.
            x[f:l] = triangular_solve(panel[:w, :w], rhs, lower=False)
        else:
            x[f:l] = triangular_solve(
                panel[:w, :w], rhs, lower=True,
                unit=factor.factotype == "ldlt", trans=True,
            )


class _ThreadedSolveRun(_PoolRun):
    """One threaded triangular solve on the shared pool engine.

    Solve tasks mutate the right-hand-side vector in place, so bodies
    are *not* retryable (``max_retries`` is pinned to 0); the watchdog
    and quarantine machinery are inherited unchanged — a wedged solve
    pool raises the same named diagnostic as the factorization instead
    of joining forever.
    """

    phase_label = "solve"

    def __init__(self, factor: NumericFactor, x: np.ndarray, dag,
                 n_workers: int,
                 trace: Optional[ExecutionTrace] = None,
                 watchdog_s: float | None = None,
                 scheduler: ThreadScheduler | str = "fifo",
                 record_sync: bool = False) -> None:
        super().__init__(dag, n_workers, trace, scheduler,
                         max_retries=0, watchdog_s=watchdog_s,
                         record_sync=record_sync)
        self.body = _ThreadedSolve(factor, x)

    def _run_task(self, t: int, worker: int) -> None:
        self.body.run_task(self.dag, t)


def solve_threaded(
    factor: NumericFactor,
    b: np.ndarray,
    *,
    n_workers: int = 4,
    watchdog_s: float | None = None,
    scheduler: ThreadScheduler | str = "fifo",
    trace: Optional[ExecutionTrace] = None,
    record_sync: bool = False,
) -> np.ndarray:
    """Parallel triangular solve of the factored system on threads.

    Bit-identical to :func:`repro.core.triangular.solve_factored` (one
    right-hand side ``(n,)`` or a block ``(n, k)``) whatever the worker
    count and scheduler, but executed as the coarse solve-phase DAG on a
    worker pool; the DAG is memoised on the symbol, so repeated solves
    build it once.  ``watchdog_s`` turns a wedged pool into a diagnostic
    ``RuntimeError`` instead of an unbounded ``join()``; ``scheduler``
    picks the ready-queue policy (the DAG has a few tasks per worker, so
    the default stays the cheap global FIFO).
    """
    from repro.dag.solve_builder import build_solve_dag

    x = np.array(b, dtype=factor.dtype, copy=True)
    dag = build_solve_dag(
        factor.symbol, factor.factotype, dtype=factor.dtype,
        nrhs=1 if x.ndim == 1 else x.shape[1], n_workers=n_workers,
    )
    run = _ThreadedSolveRun(factor, x, dag, n_workers, trace=trace,
                            watchdog_s=watchdog_s, scheduler=scheduler,
                            record_sync=record_sync)
    run.run()
    return x


def factorize_threaded(
    symbol: SymbolMatrix,
    matrix: SparseMatrixCSC,
    factotype: str,
    *,
    n_workers: int = 4,
    workspace: bool = True,
    dtype=None,
    trace: Optional[ExecutionTrace] = None,
    max_retries: int = 0,
    watchdog_s: float | None = None,
    scheduler: ThreadScheduler | str = "ws",
    pivot_threshold: float = 0.0,
    index_cache: bool = True,
    accumulate: bool = False,
    dl_buffer: bool = False,
    record_sync: bool = False,
    faults: Optional[FaultModel] = None,
    health: Optional[HealthPolicy] = None,
    kernels: str = "native",
    split_rows: int | None = None,
    granularity: str = "unit",
) -> NumericFactor:
    """Factorize on a thread pool; returns the :class:`NumericFactor`.

    ``granularity`` names the DAG the pool executes (the builder's
    vocabulary, stamped into ``trace.meta["granularity"]``).  The
    default ``"unit"`` runs one left-looking, lock-free task per panel
    or fused leaf subtree (:class:`_ThreadedUnitRun`); its factor is
    **bit-identical** to :func:`~repro.core.factorization.\
factorize_sequential`'s for any worker count, scheduler and
    interleaving.  ``"2d"`` runs the couple DAG — a panel task per cblk
    and an update task per couple, scatter-adds serialized by a
    per-panel mutex — whose factor agrees to roundoff; the three
    options defined on couples (``accumulate``, ``split_rows``,
    ``health.hedge``) need it and raise ``ValueError`` under ``"unit"``.

    The hot-path optimization toggles mirror the sequential driver's:
    ``index_cache`` reuses the symbol's precomputed couple scatter maps
    (bit-identical numerics), ``dl_buffer`` keeps the persistent LDLᵀ
    ``DLᵀ`` buffer (bit-identical numerics, per-update ``L·D``
    recompute removed — paper §V-A), and ``accumulate`` (2D only) merges
    ready same-target updates in per-worker fan-in accumulators so the
    target mutex is taken once per batch (changes the floating-point
    reduction order like any cross-thread reordering, hence opt-in;
    results agree with the sequential factor to roundoff).  The
    effective settings and the cache/accumulator counters are stamped
    into ``trace.meta``.

    ``kernels`` selects the numeric backend: ``"native"`` (the default:
    one C call per unit, :mod:`repro.kernels.native`; bit-identical to
    the sequential driver *on the same backend*, equal to the NumPy
    kernels to roundoff), ``"numpy"`` (the reference) or ``"compiled"``
    (numba-jit fused update kernel + compiled fan-in merge,
    :mod:`repro.kernels.compiled`).  ``"native"`` falls back to
    ``"numpy"`` when it cannot be built here and whenever ``workspace``,
    ``index_cache``, ``dl_buffer`` or ``granularity`` is off its default
    (ablations of the NumPy kernels); ``"compiled"`` when numba is
    absent.  Both the requested and the *effective* backend are stamped
    into ``trace.meta``.  ``split_rows`` (2D only) enables
    tall-panel row-block splitting of the update DAG
    (``build_dag(split_rows=...)``): couples taller than the threshold
    become several independent update tasks that share the target's
    mutex but parallelize their GEMMs.

    ``scheduler`` selects the ready-queue policy by registry name
    (``"ws"`` work stealing — the default, ``"priority"`` critical-path
    heap, ``"affinity"`` last-panel cache reuse, ``"fifo"`` the legacy
    shared queue) or accepts a :class:`~repro.runtime.scheduling.\
ThreadScheduler` instance; the choice is stamped into ``trace.meta``.

    Pass an :class:`ExecutionTrace` to collect per-task timings (rows
    are buffered per worker, so the overhead stays off the hot path).
    ``max_retries`` re-runs a raising task body that many times before
    quarantining it (see :class:`_PoolRun`); ``watchdog_s`` turns a
    wedged pool into a diagnostic ``RuntimeError`` instead of an
    unbounded ``join()``.  ``pivot_threshold`` > 0 enables the same
    static-pivot perturbation as the sequential driver (the monitor's
    counter is thread-safe).

    ``record_sync=True`` (requires a trace) additionally records
    first-class :class:`~repro.runtime.tracing.SyncEvent` rows — worker
    park/wake, steal probes, completion publishes and, on the 2D DAG,
    panel mutex hold windows and accumulator flushes — that the C7xx
    concurrency auditor
    (:func:`repro.verify.concurrency.verify_concurrency`) replays to
    prove the run race-free (a unit run has no lock windows: its
    ``sync_stats`` report ``lock_held_s = lock_wait_s = 0.0``).  Off
    (the default) the instrumentation is
    a dead branch: no clock reads, and the produced trace is
    bit-identical to an uninstrumented run's.

    ``faults`` injects *timing-only* faults into the wall-clock run:
    task-pinned stragglers and persistent ``limplock`` windows become
    proportional sleeps between a task's compute and its commit, so
    numerics stay bitwise identical to a fault-free run while the
    schedule degrades for real.  ``health`` arms the
    :class:`~repro.resilience.health.HealthMonitor`: per-worker EWMA
    slowdown detection against learned per-(kernel, size-bucket)
    expectations, degradation-aware scheduling (degraded workers stop
    stealing, quarantined workers stop dispatching), and — with
    ``health.hedge``, 2D only — speculative re-execution of workspace-mode
    updates stuck on suspect workers, raced through an idempotent
    commit gate (exactly-once: the R701 contract).  Both default off;
    when off every hook is a dead ``is None`` branch.
    """
    if granularity == "unit":
        for option, on in (
            ("accumulate", accumulate),
            ("split_rows", split_rows is not None),
            ("health.hedge", health is not None and health.hedge),
        ):
            if on:
                raise ValueError(
                    f"{option} is defined on update couples: pass "
                    f"granularity='2d' (got granularity='unit')"
                )
    elif granularity != "2d":
        raise ValueError(
            f"the thread pool executes granularity 'unit' or '2d', "
            f"not {granularity!r}"
        )
    factor = NumericFactor.assemble(symbol, matrix, factotype, dtype=dtype)
    factor.kernels = effective_kernels = native.resolve_kernels(
        kernels,
        ablation=not (workspace and index_cache and granularity == "unit")
        or dl_buffer,
        dtype=factor.dtype,
    )
    if index_cache:
        from repro.kernels.indexcache import get_couple_cache

        factor.index_cache = get_couple_cache(symbol)
    if dl_buffer:
        factor.enable_dl_buffer()
    if pivot_threshold > 0.0:
        from repro.kernels.dense import PivotMonitor

        factor.pivot_monitor = PivotMonitor(pivot_threshold)
    dag = get_dag(
        symbol, factotype, granularity=granularity, dtype=factor.dtype,
        split_rows=split_rows, n_workers=n_workers,
    )
    pool_options = dict(
        max_retries=max_retries, watchdog_s=watchdog_s, scheduler=scheduler,
        record_sync=record_sync, faults=faults, health=health,
    )
    if granularity == "unit":
        run = _ThreadedUnitRun(factor, dag, n_workers, workspace, trace,
                               **pool_options)
    else:
        run = _ThreadedRun(factor, dag, n_workers, workspace, trace,
                           accumulate=accumulate, **pool_options)
    if trace is not None:
        # Before the run: a trace names the DAG it ran even when the
        # run raises (n_workers and scheduler are stamped by the pool).
        trace.meta["granularity"] = granularity
    run.run()
    if trace is not None:
        trace.meta["index_cache"] = bool(index_cache)
        trace.meta["accumulate"] = bool(accumulate)
        trace.meta["dl_buffer"] = bool(factor.dl_buffer)
        # The *effective* backend (what actually ran) plus the request:
        # a trace from a numba-less host honestly says "numpy" even when
        # kernels="compiled" was asked for.
        trace.meta["kernels"] = effective_kernels
        trace.meta["kernels_requested"] = kernels
        if split_rows is not None:
            trace.meta["split_rows"] = int(split_rows)
        if factor.index_cache is not None:
            trace.meta["index_cache_stats"] = factor.index_cache.stats()
        if accumulate:
            agg: dict[str, int] = {}
            for acc in run._accum:
                for key, val in acc.stats().items():
                    agg[key] = agg.get(key, 0) + val
            trace.meta["accumulate_stats"] = agg
    return factor
