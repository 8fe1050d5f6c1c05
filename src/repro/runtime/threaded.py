"""Real parallel execution of the factorization and solve DAGs.

Both phases run on one engine, the C DAG executor
(:func:`repro.kernels.native.run_dag`): one GIL-free call runs every
task of a DAG, the calling thread as worker 0 and up to
``n_workers - 1`` C threads with it, each started when a ready task
waits for it, and a finishing task decrements its successors'
counters and queues the ones that become ready (PaRSEC's decentralized
release).  The ready set has one pop order, work stealing: a worker
pops the newest ready task it released, else the oldest one.  Without
the native kernels the same tasks run in the DAG's Kahn order on the
calling thread: threads never helped the NumPy kernels
(``docs/performance.md``, the two-thread floor).

The factorization runs the *unit* DAG (``build_dag(granularity="unit")``):
one left-looking task per panel or fused leaf subtree, edges along the
supernode tree only, and each large top-of-tree panel cut into a
diagonal task and row-block tasks.  A unit task applies, panel by panel,
the updates its panels receive (ascending source order) and then
factorizes them; a diagonal or row-block task does the same for its
rows of one panel.  Every write lands in rows the task owns and every
read is ordered by an edge, so the bodies take **no lock** and the
factor is bit-for-bit the sequential driver's — whatever the worker
count and interleaving.  A diagonal block LAPACK would pivot
or perturb goes back to Python's ``panel_factorize`` through a callback
while the other workers stay in C.  The 2D couple DAG (a panel task per
cblk, an update task per couple) is the simulators'
(:mod:`repro.machine`); no real execution runs it.

The solve (:func:`solve_threaded`) runs the solve DAG the same way, on
the native sweeps or the NumPy steps of
:class:`repro.core.triangular.SolveSteps`, except a
DAG of one unit (a solve under the work floor), whose two tasks are the
two native sweeps, called on the calling thread without the executor.
Neither phase starts a Python thread.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.factor import NumericFactor
from repro.core.triangular import SolveSteps, rhs_copy
from repro.dag.builder import factor_plan, get_dag
from repro.dag.tasks import TaskKind
from repro.kernels import native
from repro.kernels.indexcache import get_couple_cache, panel_layout
from repro.kernels.panel import factorize_panels
from repro.runtime.tracing import ExecutionTrace, sync_stats
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["factorize_threaded", "solve_threaded"]


def _check_pool(n_workers: int) -> int:
    """Both drivers' argument check, made before any work; returns the
    worker count."""
    if int(n_workers) < 1:
        raise ValueError("n_workers must be positive")
    return int(n_workers)


def _executor_tasks(dag) -> native.DagTasks:
    """The DAG as the executor reads it, checked once and memoised on the
    DAG.  A solve task is ``FORWARD`` or ``BACKWARD`` over its unit's
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
        memo = dag._executor = native.DagTasks(
            dag.succ_ptr, dag.succ_list, dag.n_deps, records,
            dag.unit_panels.size, layout)
    return memo


def _execute(dag, body, fallback: Optional[Callable[[int], None]],
             n_workers: int, trace: Optional[ExecutionTrace],
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
    tasks = _executor_tasks(dag)
    sync = record_sync and trace is not None
    logs = (None if trace is None
            else native.DagLogs.sized_for(tasks.n_tasks, n_workers, sync))
    try:
        if body is not None:
            native.run_dag(tasks, body, n_workers, logs)
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
            _record(trace, dag, logs, n_workers, sync, kernels)


def _record(trace: ExecutionTrace, dag, logs: native.DagLogs,
            n_workers: int, sync: bool, kernels: str) -> None:
    """Stamp an executor run into ``trace``: its ``meta``, the task rows,
    the faults and, with ``sync``, the sync events and their summary."""
    trace.meta.update(producer="runtime.threaded", clock="wall",
                      n_workers=n_workers, kernels=kernels)
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
             trace: Optional[ExecutionTrace], record_sync: bool) -> None:
    """Run every task of the solve DAG ``dag`` on ``x`` in place: the
    native sweeps when ``factor`` has them, else the NumPy steps of
    :class:`~repro.core.triangular.SolveSteps`.

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
        run = SolveSteps(factor, x, dag.unit_panels).run
    elif one_unit:
        run = sweeps.run       # its panels are the unit's: all, ascending
    else:
        _execute(dag, sweeps, None, n_workers, trace, record_sync, "native")
        return
    records = _executor_tasks(dag).tasks.tolist()

    def fallback(t: int) -> None:
        lo, hi, backward, _ = records[t]
        run(lo, hi, backward)

    _execute(dag, None, fallback, n_workers, trace, record_sync,
             "numpy" if sweeps is None else "native")


def _factorize_dag(factor: NumericFactor, dag, n_workers: int,
                   trace: Optional[ExecutionTrace],
                   record_sync: bool) -> None:
    """Run every task of the unit DAG ``dag`` on ``factor`` in place: the
    native bodies on a native factor, else the NumPy kernels' left-looking
    loop (:func:`repro.kernels.panel.factorize_panels`) — whole panels: a
    ``DIAG`` task runs its panel whole and its ``ROWS`` tasks have
    nothing left to do.  A traced native run times the kernels'
    phases too: ``trace.meta["kernel_phases"]``
    (:meth:`~repro.kernels.native.FactorizeTasks.phases`, per worker)."""
    body = None
    if factor.kernels == "native":
        body = native.FactorizeTasks(factor, dag.unit_panels, n_workers,
                                     counters=trace is not None)

    def fallback(t: int) -> None:
        if dag.kind[t] != TaskKind.ROWS:
            factorize_panels(
                factor, dag.unit_panels[dag.unit_ptr[t]:dag.unit_ptr[t + 1]])

    _execute(dag, body, fallback, n_workers, trace, record_sync,
             "numpy" if body is None else "native")
    if trace is not None and body is not None:
        trace.meta["kernel_phases"] = body.phases()


def solve_threaded(
    factor: NumericFactor,
    b: np.ndarray,
    *,
    n_workers: int = 4,
    trace: Optional[ExecutionTrace] = None,
    record_sync: bool = False,
) -> np.ndarray:
    """Parallel triangular solve of the factored system.

    Bit-identical to :func:`repro.core.triangular.solve_factored` on the
    same factor (one right-hand side ``(n,)`` or a block ``(n, k)``, copied
    C-contiguous in the factor's dtype; a complex ``b`` on a real factor
    raises ``TypeError``) whatever the worker count and interleaving, but
    executed as the coarse solve-phase DAG; the DAG is memoised in the
    symbol's plan store, so repeated solves build and check it once.  A solve under
    :data:`repro.dag.builder.MIN_SOLVE_FLOPS` is one forward and one
    backward task, on the calling thread alone: on a native factor the
    two sweep calls of ``solve_factored``, without the executor.

    Otherwise, on a native factor one GIL-free call runs the whole DAG
    (:func:`repro.kernels.native.run_dag`): the calling thread and up
    to ``n_workers - 1`` C threads pop ready tasks from one shared set, and
    a finishing task releases its successors itself (work stealing).  A
    NumPy factor runs the same tasks, in a topological order, on the
    calling thread (:class:`~repro.core.triangular.SolveSteps`).

    A passed ``trace`` gets one row per task and ``meta`` stamped as the
    factorization stamps it (``n_workers``, the effective
    ``kernels``); ``record_sync=True`` adds the publish, park and wake
    events the C7xx audit replays, and ``meta["sync_stats"]``.  Without
    a trace the executor reads no clock for it.
    """
    from repro.dag.solve_builder import build_solve_dag

    n_workers = _check_pool(n_workers)
    x = rhs_copy(factor, b)
    dag = build_solve_dag(
        factor.symbol, factor.factotype, dtype=factor.dtype,
        nrhs=1 if x.ndim == 1 else x.shape[1], n_workers=n_workers,
    )
    _run_dag(factor, x, dag, n_workers, trace, record_sync)
    return x


def factorize_threaded(
    symbol: SymbolMatrix,
    matrix: SparseMatrixCSC,
    factotype: str,
    *,
    n_workers: int = 4,
    dtype=None,
    trace: Optional[ExecutionTrace] = None,
    pivot_threshold: float = 0.0,
    record_sync: bool = False,
) -> NumericFactor:
    """Factorize on the DAG executor; returns the :class:`NumericFactor`.

    The executor runs the unit DAG — one left-looking, lock-free task per
    panel or fused leaf subtree, a diagonal task and row-block tasks per
    large panel, built for a new pattern in the same pass as the rest of
    its plan (:func:`repro.dag.builder.factor_plan`) — and its factor is
    **bit-identical** to
    :func:`~repro.core.factorization.factorize_sequential`'s on the same
    backend for any worker count and interleaving.
    ``trace.meta["granularity"]`` names that DAG (``"unit"``).

    The host picks the numeric backend, as for the sequential driver:
    one C call per task, all of them inside one executor call
    (:mod:`repro.kernels.native`; equal to the NumPy kernels to roundoff)
    where the library loads, else the NumPy kernels, run in a topological
    order on the calling thread.  The backend is stamped into
    ``trace.meta["kernels"]``, with the couple plan's counters.

    Pass an :class:`ExecutionTrace` to collect per-task timings.  A task that
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
    n_workers = _check_pool(n_workers)
    if matrix.values is not None:
        factor_plan(symbol, factotype, dtype or matrix.values.dtype,
                    n_workers)
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
    _factorize_dag(factor, dag, n_workers, trace, record_sync)
    if trace is not None:
        trace.meta["index_cache_stats"] = factor.index_cache.stats()
    return factor
