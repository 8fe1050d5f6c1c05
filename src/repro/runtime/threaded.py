"""Real parallel execution of the factorization and solve DAGs.

The factorization runs on Python threads: the native kernel and NumPy's
BLAS release the GIL, so task bodies genuinely overlap across workers.
Its ready queue is per-worker work stealing (the PaStiX shape); a
critical-path heap can be picked instead with ``scheduler="priority"``
(:mod:`repro.runtime.scheduling`), and the choice is stamped into the
trace's ``meta`` for the S2xx verifier.

The pool executes the *unit* DAG (``build_dag(granularity="unit")``):
one left-looking task per panel or fused leaf subtree, edges along the
supernode tree only, and each large top-of-tree panel cut into a
diagonal task and row-block tasks.  A unit task applies, panel by panel,
the updates its panels receive (ascending source order) and then
factorizes them; a diagonal or row-block task does the same for its
rows of one panel.  Every write lands in rows the task owns and every
read is ordered by an edge, so the bodies take **no lock** and the
factor is bit-for-bit the sequential driver's — whatever the worker
count, scheduler and interleaving (:class:`_ThreadedUnitRun`).  The 2D
couple DAG (a panel task per cblk, an update task per couple) is the
simulators' (:mod:`repro.machine`); no real execution runs it.

The pool (:class:`_PoolRun`), whose worker loop is pop → run → publish:

* completion notifications use per-worker wakeup events instead of one
  global condition variable, so finishing a task never stampedes the
  whole pool;
* trace rows are buffered per worker and merged once at ``run()`` exit,
  so tracing never contends with the scheduler.

The solve (:func:`solve_threaded`) starts no Python thread: on a native
factor one call to the C DAG executor (:func:`repro.kernels.native.\
run_dag`) runs every task of the solve DAG, releasing dependencies as
tasks finish; otherwise the same tasks run in a topological order on the
calling thread (:class:`_ThreadedSolve`'s NumPy bodies).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from repro.core.factor import NumericFactor
from repro.dag.builder import get_dag
from repro.dag.tasks import TaskKind
from repro.kernels import native
from repro.kernels.dense import triangular_solve
from repro.kernels.indexcache import get_couple_cache
from repro.kernels.panel import panel_factorize, panel_update
from repro.runtime.scheduling import (
    THREAD_SCHEDULERS,
    ThreadScheduler,
    get_thread_scheduler,
)
from repro.runtime.tracing import ExecutionTrace, sync_stats
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["factorize_threaded", "solve_threaded"]

#: Bound on a parked worker's nap.  Wakeups are evented, so this only
#: matters if a wakeup races the parking protocol; it turns a lost
#: signal into a few-ms hiccup instead of a hang.
_PARK_TIMEOUT_S = 0.02


class _PoolRun:
    """Scheduler-driven thread-pool execution of one task DAG.

    The engine beneath the factorization; a subclass supplies the task
    body (:meth:`_run_task`).  Hardening:

    * a task body that raises is *quarantined* — its exception is kept
      (and lands in the trace as a ``"task-error"`` fault), its
      not-yet-run descendants are abandoned, and every independent task
      still executes (no whole-run abort).  ``run()`` re-raises the
      first quarantined exception once the rest of the DAG drained;
    * ``watchdog_s`` bounds the wait for progress: instead of joining
      forever on a wedged pool, ``run()`` raises a diagnostic naming the
      scheduler queue and the blocked frontier.
    """

    #: Used in stall/watchdog messages.
    phase_label = "run"

    def __init__(self, dag, n_workers: int,
                 trace: Optional[ExecutionTrace],
                 scheduler: ThreadScheduler | str,
                 watchdog_s: float | None = None,
                 record_sync: bool = False) -> None:
        if int(n_workers) < 1:
            raise ValueError("n_workers must be positive")
        self.dag = dag
        self.n_workers = int(n_workers)
        self.trace = trace
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
        self.quarantined: dict[int, BaseException] = {}
        self.abandoned: set[int] = set()
        self.aborted = False
        self.t0 = time.perf_counter()

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
              start: float, end: float) -> None:
        """Buffer one sync event (caller checked ``_sync_rows``)."""
        assert self._sync_rows is not None
        self._sync_rows[worker].append((kind, worker, obj, task, start, end))

    def _observe_steal(self, kind: str, worker: int, victim: int,
                       task: int) -> None:
        """Scheduler observer: steal probes land in the thief's buffer."""
        if self._sync_rows is not None:
            now = self._now()
            self._sync(kind, worker, f"worker{victim}", task, now, now)

    # -- task body (subclass surface) ----------------------------------
    def _run_task(self, t: int, worker: int) -> None:
        raise NotImplementedError

    def _push(self, t: int, worker: int) -> int:
        """Make ``t`` ready; returns the scheduler's routing hint."""
        # The scheduler binding is final after bind(); push/pop guard
        # the scheduler's internal state with its own lock.
        return self.scheduler.push(t, worker)  # noqa: RV405

    def _execute(self, t: int, worker: int) -> None:
        if self.trace is None:
            self._run_task(t, worker)
            return
        start = self._now()
        self._run_task(t, worker)
        # Buffered: merged into the trace at run() exit so a traced
        # completion never takes a shared lock.
        self._trace_rows[worker].append((t, start, self._now()))

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
        with self.state:
            if self.trace is not None:
                now = time.perf_counter() - self.t0
                self.trace.record_fault("task-error", t, int(self.dag.cblk[t]),
                                        f"cpu{worker}", now, now, 1)
            self._quarantine_locked(t, exc)
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

    def _worker(self, worker: int) -> None:
        while True:
            with self.state:
                if self.aborted or self._settled() >= self.dag.n_tasks:
                    return
            t = self.scheduler.pop(worker)
            if t is None:
                self._park(worker)
                continue
            with self.state:
                if t in self.abandoned:
                    continue
            try:
                self._execute(t, worker)
            except BaseException as exc:
                self._on_failure(t, worker, exc)
                continue
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
            return (
                f"threaded {self.phase_label} made no progress for "
                f"{self.watchdog_s}s: "
                f"{self.n_done}/{self.dag.n_tasks} done, "
                f"{len(self.abandoned)} abandoned; "
                f"scheduler {self.scheduler.name!r}; ready queue {ready}; "
                f"{len(frontier)} released-but-unrun task(s) "
                f"{frontier[:15]}; {blocked} task(s) with deps_left > 0"
            )

    def _merge_trace(self) -> None:
        if self.trace is None:
            return
        for w in range(self.n_workers):
            for t, start, end in self._trace_rows[w]:
                self.trace.record(t, f"cpu{w}", start, end)
        self._trace_rows = [[] for _ in range(self.n_workers)]
        if self._sync_rows is not None:
            for rows in self._sync_rows:
                for r in rows:
                    self.trace.record_sync(*r)
            self._sync_rows = [[] for _ in range(self.n_workers + 1)]
            self.scheduler.observer = None
            self._stamp_sync_stats()

    def _stamp_sync_stats(self) -> None:
        """Summarize the merged sync events into ``trace.meta`` — the
        benchmark's tuning signal and the C707 provenance anchor: the
        concurrency auditor recomputes it from the events and a mismatch
        means the trace was edited after the run."""
        assert self.trace is not None
        self.trace.meta["sync_stats"] = sync_stats(self.trace.sync_events)

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
    """One threaded factorization on the unit DAG.

    Task ``u`` of the unit DAG (:func:`repro.dag.builder._build_unit`)
    factorizes the panels of its unit left-looking: for each member
    panel ascending, apply the updates of its source panels in ascending
    source order, then :func:`panel_factorize` it.  A ``DIAG`` task does
    that for the diagonal block of its panel only, a ``ROWS`` task for
    its row block (updates, then the block's TRSM).  That is the order
    the sequential driver's updates reach each row in, and every panel a
    task reads is final before it starts (same task, or ordered by an
    edge) — so the factor is bit-identical to
    :func:`repro.core.factorization.factorize_sequential` and the body
    takes no lock.  The kernels are the sequential driver's: on the
    native backend one GIL-free C call per task
    (:func:`repro.kernels.native.factorize_panels` /
    :func:`~repro.kernels.native.factorize_block`, per-worker scratch),
    else :func:`panel_update` and :func:`panel_factorize` — whole panels:
    the ``DIAG`` task runs its panel whole and its ``ROWS`` tasks have
    nothing left to do.
    """

    phase_label = "factorization"

    def __init__(self, factor: NumericFactor, dag, n_workers: int,
                 trace: Optional[ExecutionTrace], **pool_options) -> None:
        super().__init__(dag, n_workers, trace, **pool_options)
        self.factor = factor
        # Here, not in the workers: a plan that fails its checks raises
        # in the caller's thread, before the pool exists.
        self._scratch = (
            [native.Scratch(factor) for _ in range(self.n_workers)]
            if factor.kernels == "native" else None
        )
        self._kind = dag.kind.tolist()
        self._rows = [tuple(r) for r in dag.row_range.tolist()]

    def _run_task(self, t: int, worker: int) -> None:
        dag, factor = self.dag, self.factor
        kind = self._kind[t]
        if self._scratch is not None and kind in (TaskKind.DIAG,
                                                  TaskKind.ROWS):
            native.factorize_block(factor, int(dag.cblk[t]), self._rows[t],
                                   self._scratch[worker])
            return
        if kind == TaskKind.ROWS:
            return          # the NumPy DIAG task ran the whole panel
        panels = dag.unit_panels[dag.unit_ptr[t]: dag.unit_ptr[t + 1]]
        if self._scratch is not None:
            native.factorize_panels(factor, panels, self._scratch[worker])
            return
        cache = factor.index_cache
        for k in panels.tolist():
            for j in cache.source_ids(k):
                panel_update(factor, j, k)
            panel_factorize(factor, k)


class _ThreadedSolve:
    """NumPy task bodies of the triangular solve (left-looking): the
    oracle of the native sweeps, and what runs a solve on a factor
    without them.

    A task of the coarse DAG of :func:`repro.dag.build_solve_dag` runs
    the forward (ascending) or backward (descending) steps of its unit's
    panels back to back.  Every shared access is ordered by a DAG edge,
    so the result does not depend on the order the tasks run in — it is
    bit-identical to :func:`repro.core.triangular.solve_factored` on the
    same backend:

    * the forward step of panel ``k`` subtracts, in ascending source
      order, its descendants' slices of their private contribution slabs
      (``slab[j] = L[j][w:, :] @ y_j``), solves the diagonal triangle,
      and writes only ``x[f:l]`` and its own slab;
    * the backward step of ``k`` reads the final ``x`` of the rows below
      it (all owned by tree ancestors), applies ``D⁻¹`` (LDLᵀ) to its own
      segment, solves the transposed triangle and writes only ``x[f:l]``.

    ``x`` may be one right-hand side ``(n,)`` or a block ``(n, k)``.  The
    native executor runs the same steps in C (``native.c``,
    ``solve_panels``).
    """

    def __init__(self, factor: NumericFactor, x: np.ndarray,
                 panels: np.ndarray) -> None:
        self.factor = factor
        self.x = x
        self.panels = panels
        self.sources = get_couple_cache(factor.symbol).sources
        self.ptr = factor.symbol.cblk_ptr.tolist()
        self.slabs: list[Optional[np.ndarray]] = [None] * len(factor.L)

    def run_task(self, lo: int, hi: int, backward: int) -> None:
        if backward:
            for k in self.panels[lo:hi][::-1].tolist():
                self._backward(k)
        else:
            for k in self.panels[lo:hi].tolist():
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


def _solve_tasks(dag) -> tuple[native.DagTasks, dict[str, np.ndarray]]:
    """The solve DAG as the executor reads it — task ``t`` is ``(lo, hi,
    backward)``, the panels ``unit_panels[lo:hi]`` of its unit — checked
    once and memoised on the DAG, with the ready-set ranks of the heap
    orders (filled on first use)."""
    memo = getattr(dag, "_executor", None)
    if memo is None:
        unit = dag.solve_unit
        records = np.column_stack([dag.unit_ptr[unit], dag.unit_ptr[unit + 1],
                                   dag.solve_backward])
        memo = dag._executor = (native.DagTasks(
            dag.succ_ptr, dag.succ_list, dag.n_deps, records,
            dag.unit_panels.size), {})
    return memo


def _rank(dag, ranks: dict[str, np.ndarray],
          order: str) -> Optional[np.ndarray]:
    """The executor's ready-set rank for a pop order: ``None`` (LIFO) for
    ``"ws"``, the longest-path levels for ``"priority"``, their negation
    for ``"inverse-priority"``."""
    if order == "ws":
        return None
    if not ranks:
        from repro.dag.analysis import longest_path_levels

        levels = np.ascontiguousarray(longest_path_levels(dag),
                                      dtype=np.float64)
        ranks.update({"priority": levels, "inverse-priority": -levels})
    return ranks[order]


def _run_dag(factor: NumericFactor, x: np.ndarray, dag, n_workers: int,
             order: str, trace: Optional[ExecutionTrace],
             record_sync: bool) -> None:
    """Run every task of the solve DAG ``dag`` on ``x`` in place: the
    executor's entry point.

    On a factor with native sweeps, one call to the C executor
    (:func:`repro.kernels.native.run_dag`; the caller is worker 0).
    Otherwise the tasks run in the DAG's Kahn order on the calling thread
    with the NumPy bodies of :class:`_ThreadedSolve`, and a trace gets
    the same shape: one task row each, and with ``record_sync`` one
    publish each.
    """
    tasks, ranks = _solve_tasks(dag)
    sweeps = native.solve_sweeps(factor, x, dag.unit_panels, n_workers)
    sync = record_sync and trace is not None
    rows: dict[str, list] = {}      # kind -> (task, worker, t0_ns, t1_ns)
    if sweeps is not None:
        logs = (None if trace is None
                else native.DagLogs.sized_for(tasks.n_tasks, n_workers, sync))
        native.run_dag(tasks, sweeps, n_workers, _rank(dag, ranks, order),
                       logs)
        if logs is not None:
            rows = {k: logs.written(k).tolist() for k in logs.KINDS}
    else:
        body = _ThreadedSolve(factor, x, dag.unit_panels)
        records = tasks.tasks.tolist()
        rows = {"task": [], "publish": []}
        start = time.perf_counter_ns()
        for t in tasks.order.tolist():
            t0 = time.perf_counter_ns() - start if trace is not None else 0
            body.run_task(*records[t])
            if trace is not None:
                t1 = time.perf_counter_ns() - start
                rows["task"].append((t, 0, t0, t1))
                rows["publish"].append((t, 0, t1, t1))
    if trace is None:
        return
    trace.meta.update(producer="runtime.threaded", clock="wall",
                      scheduler=order, n_workers=n_workers,
                      kernels="numpy" if sweeps is None else "native")
    for t, w, t0, t1 in rows["task"]:
        trace.record(t, f"cpu{w}", t0 * 1e-9, t1 * 1e-9)
    if sync:
        trace.meta["sync_trace"] = True
        for kind, obj in (("publish", "pool"), ("park", None),
                          ("wake", "pool")):
            for t, w, t0, t1 in rows.get(kind, ()):
                trace.record_sync(kind, w, obj or f"worker{w}", t,
                                  t0 * 1e-9, t1 * 1e-9)
        trace.meta["sync_stats"] = sync_stats(trace.sync_events)


def solve_threaded(
    factor: NumericFactor,
    b: np.ndarray,
    *,
    n_workers: int = 4,
    scheduler: ThreadScheduler | str = "ws",
    trace: Optional[ExecutionTrace] = None,
    record_sync: bool = False,
) -> np.ndarray:
    """Parallel triangular solve of the factored system.

    Bit-identical to :func:`repro.core.triangular.solve_factored` on the
    same factor (one right-hand side ``(n,)`` or a block ``(n, k)``, copied
    C-contiguous in the factor's dtype) whatever the worker count and
    scheduler, but executed as the coarse solve-phase DAG; the DAG is
    memoised on the symbol, so repeated solves build and check it once.

    On a native factor one GIL-free call runs the whole DAG
    (:func:`repro.kernels.native.run_dag`): the calling thread and
    ``n_workers - 1`` C threads pop ready tasks from one shared set, and
    a finishing task releases its successors itself.  No Python thread
    starts.  ``scheduler`` names the pop order: ``"ws"`` (the default)
    is LIFO, ``"priority"`` a heap on longest-path levels and
    ``"inverse-priority"`` the reverse heap (a test-only worst order).
    A NumPy or list-built factor runs the same tasks, in a topological
    order, on the calling thread (:class:`_ThreadedSolve`).

    A passed ``trace`` gets one row per task and ``meta`` stamped as the
    factorization stamps it (``scheduler``, ``n_workers``, the effective
    ``kernels``); ``record_sync=True`` adds the publish, park and wake
    events the C7xx audit replays, and ``meta["sync_stats"]``.  Without
    a trace the executor reads no clock for it.
    """
    from repro.dag.solve_builder import build_solve_dag

    if int(n_workers) < 1:
        raise ValueError("n_workers must be positive")
    n_workers = int(n_workers)
    order = get_thread_scheduler(scheduler).name
    if order not in THREAD_SCHEDULERS:
        raise ValueError(f"the solve's pop orders are "
                         f"{sorted(THREAD_SCHEDULERS)}, not {order!r}")
    x = np.array(b, dtype=factor.dtype, order="C")
    dag = build_solve_dag(
        factor.symbol, factor.factotype, dtype=factor.dtype,
        nrhs=1 if x.ndim == 1 else x.shape[1], n_workers=n_workers,
    )
    _run_dag(factor, x, dag, n_workers, order, trace, record_sync)
    return x


def factorize_threaded(
    symbol: SymbolMatrix,
    matrix: SparseMatrixCSC,
    factotype: str,
    *,
    n_workers: int = 4,
    dtype=None,
    trace: Optional[ExecutionTrace] = None,
    watchdog_s: float | None = None,
    scheduler: ThreadScheduler | str = "ws",
    pivot_threshold: float = 0.0,
    record_sync: bool = False,
    kernels: str = "native",
) -> NumericFactor:
    """Factorize on a thread pool; returns the :class:`NumericFactor`.

    The pool runs the unit DAG — one left-looking, lock-free task per
    panel or fused leaf subtree, a diagonal task and row-block tasks per
    large panel (:class:`_ThreadedUnitRun`) — and its
    factor is **bit-identical** to :func:`~repro.core.factorization.\
factorize_sequential`'s on the same backend for any worker count,
    scheduler and interleaving.  ``trace.meta["granularity"]`` names
    that DAG (``"unit"``).

    ``kernels`` selects the numeric backend: ``"native"`` (the default:
    one C call per task, :mod:`repro.kernels.native`; equal to the NumPy
    kernels to roundoff) or ``"numpy"`` (the reference).  ``"native"``
    falls back to ``"numpy"`` when it cannot be built here.  Both the
    requested and the *effective* backend are stamped into
    ``trace.meta``, with the couple plan's counters.

    ``scheduler`` selects the ready-queue policy by registry name
    (``"ws"`` work stealing — the default — or ``"priority"``, a
    critical-path heap) or accepts a :class:`~repro.runtime.scheduling.\
ThreadScheduler` instance; the choice is stamped into ``trace.meta``.

    Pass an :class:`ExecutionTrace` to collect per-task timings (rows
    are buffered per worker, so the overhead stays off the hot path).
    A raising task body is quarantined (see :class:`_PoolRun`);
    ``watchdog_s`` turns a wedged pool into a diagnostic
    ``RuntimeError`` instead of an unbounded ``join()``.
    ``pivot_threshold`` > 0 enables the same
    static-pivot perturbation as the sequential driver (the monitor's
    counter is thread-safe).

    ``record_sync=True`` (requires a trace) additionally records
    first-class :class:`~repro.runtime.tracing.SyncEvent` rows — worker
    park/wake, steal probes and completion publishes — that the C7xx
    concurrency auditor
    (:func:`repro.verify.concurrency.verify_concurrency`) replays to
    prove the run race-free (no body takes a lock, so its
    ``sync_stats`` report ``lock_held_s = lock_wait_s = 0.0``).  Off
    (the default) the instrumentation is a dead branch: no clock reads,
    and the produced trace is bit-identical to an uninstrumented run's.
    Fault injection and worker health monitoring are simulated only
    (:func:`repro.machine.simulate`).
    """
    factor = NumericFactor.assemble(symbol, matrix, factotype, dtype=dtype)
    factor.kernels = effective_kernels = native.resolve_kernels(
        kernels, dtype=factor.dtype)
    factor.index_cache = get_couple_cache(symbol)
    if pivot_threshold > 0.0:
        from repro.kernels.dense import PivotMonitor

        factor.pivot_monitor = PivotMonitor(pivot_threshold)
    dag = get_dag(symbol, factotype, granularity="unit", dtype=factor.dtype,
                  n_workers=n_workers)
    run = _ThreadedUnitRun(
        factor, dag, n_workers, trace, watchdog_s=watchdog_s,
        scheduler=scheduler, record_sync=record_sync,
    )
    if trace is not None:
        # Before the run: a trace names the DAG it ran even when the
        # run raises (n_workers and scheduler are stamped by the pool).
        trace.meta["granularity"] = "unit"
    run.run()
    if trace is not None:
        # The *effective* backend (what actually ran) plus the request.
        trace.meta["kernels"] = effective_kernels
        trace.meta["kernels_requested"] = kernels
        trace.meta["index_cache_stats"] = factor.index_cache.stats()
    return factor
