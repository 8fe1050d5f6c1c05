"""Real parallel execution of the factorization and solve DAGs.

Both phases run on one engine, the C DAG executor
(:func:`repro.kernels.native.run_dag`): one GIL-free call runs every
task of a DAG, the calling thread as worker 0 and up to
``n_workers - 1`` C threads with it, each started when a ready task
waits for it, and a finishing task decrements its successors'
counters and queues the ones that become ready (PaRSEC's decentralized
release).  ``scheduler`` names the ready set's pop order, one of
:data:`THREAD_SCHEDULERS`, and is stamped into the trace's ``meta`` for
the S2xx verifier.  Without the native kernels the same tasks run in the
DAG's Kahn order on the calling thread: threads never helped the NumPy
kernels (``docs/performance.md``, the two-thread floor).

The factorization runs the *unit* DAG (``build_dag(granularity="unit")``):
one left-looking task per panel or fused leaf subtree, edges along the
supernode tree only, and each large top-of-tree panel cut into a
diagonal task and row-block tasks.  A unit task applies, panel by panel,
the updates its panels receive (ascending source order) and then
factorizes them; a diagonal or row-block task does the same for its
rows of one panel.  Every write lands in rows the task owns and every
read is ordered by an edge, so the bodies take **no lock** and the
factor is bit-for-bit the sequential driver's — whatever the worker
count, pop order and interleaving.  A diagonal block LAPACK would pivot
or perturb goes back to Python's ``panel_factorize`` through a callback
while the other workers stay in C.  The 2D couple DAG (a panel task per
cblk, an update task per couple) is the simulators'
(:mod:`repro.machine`); no real execution runs it.

The solve (:func:`solve_threaded`) runs the solve DAG the same way, on
the native sweeps or :class:`_ThreadedSolve`'s NumPy bodies, except a
DAG of one unit (a solve under the work floor), whose two tasks are the
two native sweeps, called on the calling thread without the executor.
Neither phase starts a Python thread.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.factor import NumericFactor
from repro.core.triangular import rhs_copy
from repro.dag.builder import get_dag
from repro.dag.tasks import TaskKind
from repro.kernels import native
from repro.kernels.dense import triangular_solve
from repro.kernels.indexcache import get_couple_cache, panel_layout
from repro.kernels.panel import panel_factorize, panel_update
from repro.runtime.tracing import ExecutionTrace, sync_stats
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["THREAD_SCHEDULERS", "factorize_threaded", "solve_threaded"]

#: The executor's pop orders: ``"ws"`` (the default) is work stealing —
#: a worker pops the newest ready task it released, else the oldest one —
#: ``"priority"`` pops the task with the longest flop-weighted path to a
#: sink, ``"inverse-priority"`` the shortest (a test-only worst order:
#: every order must give the same bits).
THREAD_SCHEDULERS = ("ws", "priority", "inverse-priority")


def _check_pool(n_workers: int, scheduler: str) -> int:
    """Both drivers' argument checks, made before any work; returns the
    worker count."""
    if int(n_workers) < 1:
        raise ValueError("n_workers must be positive")
    if scheduler not in THREAD_SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; the pop orders "
                         f"are {sorted(THREAD_SCHEDULERS)}")
    return int(n_workers)


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


def _executor_tasks(dag) -> tuple[native.DagTasks, dict[str, np.ndarray]]:
    """The DAG as the executor reads it, checked once and memoised on the
    DAG, with the ready-set ranks of the heap orders (filled on first
    use).  A solve task is ``FORWARD`` or ``BACKWARD`` over its unit's
    panels; a factorization task is ``PANELS`` over its unit's panels, or
    for a diagonal or row-block task ``BLOCK`` on its rows of its panel."""
    memo = getattr(dag, "_executor", None)
    if memo is None:
        lo, hi = dag.unit_ptr[:-1], dag.unit_ptr[1:]
        layout = None
        if dag.phase == "solve":
            unit = dag.solve_unit
            lo, hi, kind = lo[unit], hi[unit], dag.solve_backward
        else:
            block = np.isin(dag.kind, (TaskKind.DIAG, TaskKind.ROWS))
            lo = np.where(block, dag.row_range[:, 0], lo)
            hi = np.where(block, dag.row_range[:, 1], hi)
            kind = np.where(block, native.BLOCK, native.PANELS)
            layout = panel_layout(dag.symbol)
        records = np.column_stack([lo, hi, kind, dag.cblk])
        memo = dag._executor = (native.DagTasks(
            dag.succ_ptr, dag.succ_list, dag.n_deps, records,
            dag.unit_panels.size, layout), {})
    return memo


def _rank(dag, ranks: dict[str, np.ndarray],
          order: str) -> Optional[np.ndarray]:
    """The executor's ready-set rank for a pop order: ``None`` (work
    stealing) for ``"ws"``, the longest-path levels for ``"priority"``,
    their negation for ``"inverse-priority"``."""
    if order == "ws":
        return None
    if not ranks:
        from repro.dag.analysis import longest_path_levels

        levels = np.ascontiguousarray(longest_path_levels(dag),
                                      dtype=np.float64)
        ranks.update({"priority": levels, "inverse-priority": -levels})
    return ranks[order]


def _execute(dag, body, fallback: Optional[Callable[[int], None]],
             n_workers: int, order: str, trace: Optional[ExecutionTrace],
             record_sync: bool, kernels: str) -> None:
    """Run every task of ``dag``: the executor's one entry point.

    With a native ``body`` (:class:`~repro.kernels.native.SolveSweeps` or
    :class:`~repro.kernels.native.FactorizeTasks`), one call to the C
    executor (the caller is worker 0).  Otherwise ``fallback(t)`` runs
    each task in the DAG's Kahn order on the calling thread, and a trace
    gets the same shape.  A trace receives one row per task run and one
    ``"task-error"`` fault for a task that raised — written also when
    the run raises — and, with ``record_sync``, the publish, park and
    wake events the C7xx audit replays; ``kernels`` is the backend its
    ``meta`` names.
    """
    tasks, ranks = _executor_tasks(dag)
    sync = record_sync and trace is not None
    logs = (None if trace is None
            else native.DagLogs.sized_for(tasks.n_tasks, n_workers, sync))
    try:
        if body is not None:
            native.run_dag(tasks, body, n_workers, _rank(dag, ranks, order),
                           logs)
        else:
            clock = time.perf_counter_ns
            start = clock()
            for t in tasks.order.tolist():
                t0 = clock() - start
                try:
                    fallback(t)
                except BaseException:
                    if logs is not None:
                        logs.append("fault", t, 0, t0, clock() - start)
                    raise
                if logs is not None:
                    t1 = clock() - start
                    logs.append("task", t, 0, t0, t1)
                    logs.append("publish", t, 0, t1, t1)
    finally:
        if trace is not None:
            _record(trace, dag, logs, order, n_workers, sync, kernels)


def _record(trace: ExecutionTrace, dag, logs: native.DagLogs, order: str,
            n_workers: int, sync: bool, kernels: str) -> None:
    """Stamp an executor run into ``trace``: its ``meta``, the task rows,
    the faults and, with ``sync``, the sync events and their summary."""
    trace.meta.update(producer="runtime.threaded", clock="wall",
                      scheduler=order, n_workers=n_workers, kernels=kernels)
    for t, w, t0, t1 in logs.written("task").tolist():
        trace.record(t, f"cpu{w}", t0 * 1e-9, t1 * 1e-9)
    for t, w, _, t1 in logs.written("fault").tolist():
        trace.record_fault("task-error", t, int(dag.cblk[t]), f"cpu{w}",
                           t1 * 1e-9, t1 * 1e-9)
    if sync:
        trace.meta["sync_trace"] = True
        for kind, obj in (("publish", "pool"), ("park", None),
                          ("wake", "pool")):
            for t, w, t0, t1 in logs.written(kind).tolist():
                trace.record_sync(kind, w, obj or f"worker{w}", t,
                                  t0 * 1e-9, t1 * 1e-9)
        trace.meta["sync_stats"] = sync_stats(trace.sync_events)


def _run_dag(factor: NumericFactor, x: np.ndarray, dag, n_workers: int,
             order: str, trace: Optional[ExecutionTrace],
             record_sync: bool) -> None:
    """Run every task of the solve DAG ``dag`` on ``x`` in place: the
    native sweeps when ``factor`` has them, else the NumPy bodies of
    :class:`_ThreadedSolve`.

    A DAG of one unit (a solve under ``MIN_SOLVE_FLOPS``: its forward
    and its backward task, every panel ascending) has nothing to run in
    parallel, so on a native factor its two tasks are
    ``solve_factored``'s two right-looking sweeps, called on this thread
    without the executor: no slab arena, one gather buffer, and the same
    bits as the left-looking steps of a multi-unit run."""
    one_unit = dag.unit_ptr.size == 2
    sweeps = (native.solve_sweeps(factor, x) if one_unit else
              native.solve_sweeps(factor, x, dag.unit_panels, n_workers))
    if sweeps is None:
        run = _ThreadedSolve(factor, x, dag.unit_panels).run_task
    elif one_unit:
        run = sweeps.run       # its panels are the unit's: all, ascending
    else:
        _execute(dag, sweeps, None, n_workers, order, trace, record_sync,
                 "native")
        return
    records = _executor_tasks(dag)[0].tasks.tolist()

    def fallback(t: int) -> None:
        lo, hi, backward, _ = records[t]
        run(lo, hi, backward)

    _execute(dag, None, fallback, n_workers, order, trace, record_sync,
             "numpy" if sweeps is None else "native")


def _factorize_dag(factor: NumericFactor, dag, n_workers: int, order: str,
                   trace: Optional[ExecutionTrace],
                   record_sync: bool) -> None:
    """Run every task of the unit DAG ``dag`` on ``factor`` in place: the
    native bodies on a native factor, else the NumPy kernels — whole
    panels: a ``DIAG`` task runs its panel whole and its ``ROWS`` tasks
    have nothing left to do.  A traced native run times the kernels'
    phases too: ``trace.meta["kernel_phases"]``
    (:meth:`~repro.kernels.native.FactorizeTasks.phases`, per worker)."""
    body = None
    if factor.kernels == "native":
        body = native.FactorizeTasks(factor, dag.unit_panels, n_workers,
                                     counters=trace is not None)

    def fallback(t: int) -> None:
        if dag.kind[t] == TaskKind.ROWS:
            return
        cache = factor.index_cache
        for k in dag.unit_panels[dag.unit_ptr[t]:dag.unit_ptr[t + 1]].tolist():
            for j in cache.source_ids(k):
                panel_update(factor, j, k)
            panel_factorize(factor, k)

    _execute(dag, body, fallback, n_workers, order, trace, record_sync,
             "numpy" if body is None else "native")
    if trace is not None and body is not None:
        trace.meta["kernel_phases"] = body.phases()


def solve_threaded(
    factor: NumericFactor,
    b: np.ndarray,
    *,
    n_workers: int = 4,
    scheduler: str = "ws",
    trace: Optional[ExecutionTrace] = None,
    record_sync: bool = False,
) -> np.ndarray:
    """Parallel triangular solve of the factored system.

    Bit-identical to :func:`repro.core.triangular.solve_factored` on the
    same factor (one right-hand side ``(n,)`` or a block ``(n, k)``, copied
    C-contiguous in the factor's dtype; a complex ``b`` on a real factor
    raises ``TypeError``) whatever the worker count and scheduler, but
    executed as the coarse solve-phase DAG; the DAG is memoised on the
    symbol, so repeated solves build and check it once.  A solve under
    :data:`repro.dag.builder.MIN_SOLVE_FLOPS` is one forward and one
    backward task, on the calling thread alone: on a native factor the
    two sweep calls of ``solve_factored``, without the executor.

    Otherwise, on a native factor one GIL-free call runs the whole DAG
    (:func:`repro.kernels.native.run_dag`): the calling thread and up
    to ``n_workers - 1`` C threads pop ready tasks from one shared set, and
    a finishing task releases its successors itself.  ``scheduler`` is
    the pop order, one of :data:`THREAD_SCHEDULERS`.  A NumPy or
    list-built factor runs the same tasks, in a topological order, on
    the calling thread (:class:`_ThreadedSolve`).

    A passed ``trace`` gets one row per task and ``meta`` stamped as the
    factorization stamps it (``scheduler``, ``n_workers``, the effective
    ``kernels``); ``record_sync=True`` adds the publish, park and wake
    events the C7xx audit replays, and ``meta["sync_stats"]``.  Without
    a trace the executor reads no clock for it.
    """
    from repro.dag.solve_builder import build_solve_dag

    n_workers = _check_pool(n_workers, scheduler)
    x = rhs_copy(factor, b)
    dag = build_solve_dag(
        factor.symbol, factor.factotype, dtype=factor.dtype,
        nrhs=1 if x.ndim == 1 else x.shape[1], n_workers=n_workers,
    )
    _run_dag(factor, x, dag, n_workers, scheduler, trace, record_sync)
    return x


def factorize_threaded(
    symbol: SymbolMatrix,
    matrix: SparseMatrixCSC,
    factotype: str,
    *,
    n_workers: int = 4,
    dtype=None,
    trace: Optional[ExecutionTrace] = None,
    scheduler: str = "ws",
    pivot_threshold: float = 0.0,
    record_sync: bool = False,
) -> NumericFactor:
    """Factorize on the DAG executor; returns the :class:`NumericFactor`.

    The executor runs the unit DAG — one left-looking, lock-free task per
    panel or fused leaf subtree, a diagonal task and row-block tasks per
    large panel — and its factor is **bit-identical** to
    :func:`~repro.core.factorization.factorize_sequential`'s on the same
    backend for any worker count, pop order and interleaving.
    ``trace.meta["granularity"]`` names that DAG (``"unit"``).

    The host picks the numeric backend, as for the sequential driver:
    one C call per task, all of them inside one executor call
    (:mod:`repro.kernels.native`; equal to the NumPy kernels to roundoff)
    where the library loads, else the NumPy kernels, run in a topological
    order on the calling thread.  The backend is stamped into
    ``trace.meta["kernels"]``, with the couple plan's counters.

    ``scheduler`` is the pop order, one of :data:`THREAD_SCHEDULERS`
    (``"ws"``, the default, or ``"priority"``, a critical-path heap);
    the choice is stamped into ``trace.meta``.  Pass an
    :class:`ExecutionTrace` to collect per-task timings.  A task that
    raises (a pivot failure in ``panel_factorize``) stops the executor
    from starting new tasks; it lands in the trace as a ``"task-error"``
    fault and its exception is re-raised.  ``pivot_threshold`` > 0
    enables the same static-pivot perturbation as the sequential driver.

    ``record_sync=True`` (requires a trace) additionally records
    first-class :class:`~repro.runtime.tracing.SyncEvent` rows — worker
    parks and wakes and completion publishes — that the C7xx concurrency
    auditor (:func:`repro.verify.concurrency.verify_concurrency`) replays
    to prove the run race-free (no body takes a lock, so its
    ``sync_stats`` report ``lock_held_s = lock_wait_s = 0.0``).  Off (the
    default) the executor reads no clock for it.  Fault injection and
    worker health monitoring are simulated only
    (:func:`repro.machine.simulate`).
    """
    n_workers = _check_pool(n_workers, scheduler)
    factor = NumericFactor.assemble(symbol, matrix, factotype, dtype=dtype)
    factor.kernels = native.resolve_kernels(factor.dtype)
    factor.index_cache = get_couple_cache(symbol)
    if pivot_threshold > 0.0:
        from repro.kernels.dense import PivotMonitor

        factor.pivot_monitor = PivotMonitor(pivot_threshold)
    dag = get_dag(symbol, factotype, granularity="unit", dtype=factor.dtype,
                  n_workers=n_workers)
    if trace is not None:
        # Before the run: a trace names the DAG it ran even when the
        # run raises.
        trace.meta["granularity"] = "unit"
    _factorize_dag(factor, dag, n_workers, scheduler, trace, record_sync)
    if trace is not None:
        trace.meta["index_cache_stats"] = factor.index_cache.stats()
    return factor
