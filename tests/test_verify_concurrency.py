"""C7xx concurrency auditor tests.

Live coverage: sync-instrumented threaded runs (the lock-free unit DAG:
no lock windows, C702 + C705 + C707 carry the audit) must come out
clean on both kernel backends, and instrumentation off must mean *off*
(no events, no meta, unchanged numerics).  Checker coverage: each C7xx
code is triggered either by one of the shipped fault injectors or by a
surgical hand-corruption of a real trace.
"""

import itertools

import numpy as np
import pytest

from repro.dag.builder import dag_of_trace
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace, SyncEvent
from repro.symbolic import analyze
from repro.verify.concurrency import (
    _restamp,
    drop_sync_event,
    swallow_wakeup,
    verify_concurrency,
)
from tests.conftest import backend


def _traced_run(mat, factotype="llt", *, n_workers=3, record_sync=True,
                bodies="native"):
    """Run, and pair the trace with the DAG it names."""
    res = analyze(mat)
    permuted = mat.permute(res.perm.perm)
    trace = ExecutionTrace()
    with backend(bodies):
        factor = factorize_threaded(
            res.symbol, permuted, factotype, n_workers=n_workers,
            trace=trace, record_sync=record_sync,
        )
    dag = dag_of_trace(res.symbol, factotype, trace, dtype=factor.dtype)
    assert dag.granularity == "unit"
    return dag, trace, factor


def _codes(report, errors_only=True):
    return {f.code for f in report.findings
            if not errors_only or f.severity == "error"}


# ----------------------------------------------------------------------
# clean runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("native", [False, True])
def test_clean_run_passes(grid2d_small, no_unit_floor, native):
    dag, trace, _ = _traced_run(grid2d_small,
                                bodies="native" if native else "numpy")
    assert dag.n_tasks > 1
    rep = verify_concurrency(dag, trace)
    assert rep.ok, rep.format()
    assert rep.stats["sync_events"] > 0
    assert rep.stats["tasks"] == dag.n_tasks


@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
def test_unit_run_passes(grid2d_medium, no_unit_floor, factotype):
    """The unit DAG has no mutex group and its bodies take no lock: as
    for the solve, the audit is publish order along the tree edges
    (C702) plus the sync-stats provenance (C707), and the trace must
    show no hold window."""
    dag, trace, _ = _traced_run(grid2d_medium, factotype)
    assert 1 < dag.n_tasks == len(trace.events)
    trace.validate(dag)
    rep = verify_concurrency(dag, trace)
    assert rep.ok, rep.format()
    stats = trace.meta["sync_stats"]
    assert stats["lock_held_s"] == stats["lock_wait_s"] == 0.0
    assert stats["counts"].get("lock", 0) == 0
    assert stats["counts"]["publish"] == dag.n_tasks


def test_solve_run_passes(grid2d_small, no_unit_floor):
    """The coarse solve DAG has no mutex group and its bodies take no
    lock: the audit reduces to publish order along the DAG edges (C702)
    plus the sync-stats provenance, and the trace must show no hold —
    for the native task bodies (one C call per task, the default) and
    the NumPy ones alike."""
    from repro.core.triangular import solve_factored
    from repro.dag.solve_builder import build_solve_dag
    from repro.runtime.threaded import solve_threaded

    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    b = np.random.default_rng(7).standard_normal(permuted.n_rows)
    for factotype, kernels in itertools.product(["llt", "ldlt", "lu"],
                                                ["native", "numpy"]):
        with backend(kernels):
            factor = factorize_threaded(res.symbol, permuted, factotype,
                                        n_workers=3)
        trace = ExecutionTrace()
        x = solve_threaded(factor, b, n_workers=3, trace=trace,
                           record_sync=True)
        assert trace.meta["kernels"] == factor.kernels
        assert np.array_equal(x, solve_factored(factor, b))
        dag = build_solve_dag(res.symbol, factotype, dtype=factor.dtype,
                              n_workers=3)
        assert len(trace.events) == dag.n_tasks
        trace.validate(dag)
        rep = verify_concurrency(dag, trace)
        assert rep.ok, rep.format()
        counts = trace.meta["sync_stats"]["counts"]
        assert counts.get("lock", 0) == 0
        assert counts["publish"] == dag.n_tasks


def test_solve_run_unpublished_read_is_caught(grid2d_small, no_unit_floor):
    """C702 is what guards the lock-free solve: a task that started
    before its predecessor's publish must be flagged."""
    from repro.dag.solve_builder import build_solve_dag
    from repro.runtime.threaded import solve_threaded
    from repro.runtime.tracing import SyncEvent

    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    factor = factorize_threaded(res.symbol, permuted, "llt", n_workers=2)
    trace = ExecutionTrace()
    solve_threaded(factor, np.ones(permuted.n_rows), n_workers=2,
                   trace=trace, record_sync=True)
    dag = build_solve_dag(res.symbol, "llt", dtype=factor.dtype, n_workers=2)
    late = max(e.end for e in trace.events) + 1.0
    victim = next(e for e in trace.sync_events
                  if e.kind == "publish" and dag.successors(e.task).size)
    trace.sync_events = [
        SyncEvent(e.kind, e.worker, e.obj, e.task, late, late, e.wait_s, e.n)
        if e is victim else e
        for e in trace.sync_events
    ]
    rep = verify_concurrency(dag, trace)
    assert "C702" in _codes(rep)


# ----------------------------------------------------------------------
# zero-overhead-when-off
# ----------------------------------------------------------------------
def test_off_records_nothing(grid2d_small):
    dag, trace, _ = _traced_run(grid2d_small, record_sync=False)
    assert trace.sync_events == []
    assert "sync_trace" not in trace.meta
    assert "sync_stats" not in trace.meta
    rep = verify_concurrency(dag, trace)
    # Uninstrumented: the auditor abstains with an INFO, not a failure.
    assert rep.ok
    assert "C700" in _codes(rep, errors_only=False)


def test_instrumentation_does_not_change_numerics(grid2d_small):
    """One-worker runs are deterministic, so the factors with tracing
    on and off must agree *bitwise* — instrumentation reads clocks but
    never reorders or perturbs the numeric schedule."""
    _, _, off = _traced_run(grid2d_small, n_workers=1,
                            record_sync=False)
    _, _, on = _traced_run(grid2d_small, n_workers=1, record_sync=True)
    for a, b in zip(off.L, on.L):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# meta provenance (sync_stats stamp)
# ----------------------------------------------------------------------
def test_meta_sync_stats_match_events(grid2d_small, no_unit_floor):
    _, trace, _ = _traced_run(grid2d_small)
    assert trace.meta["sync_trace"] is True
    stats = trace.meta["sync_stats"]
    counts = {}
    held = wait = 0.0
    for e in trace.sync_events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
        if e.kind == "lock":
            held += e.duration
            wait += e.wait_s
    assert stats["counts"] == counts
    assert stats["lock_held_s"] == pytest.approx(held, abs=1e-9)
    assert stats["lock_wait_s"] == pytest.approx(wait, abs=1e-9)


def test_stale_meta_is_convicted(grid2d_small):
    dag, trace, _ = _traced_run(grid2d_small)
    trace.meta["sync_stats"] = dict(trace.meta["sync_stats"],
                                    lock_held_s=123.0)
    assert "C707" in _codes(verify_concurrency(dag, trace))


# ----------------------------------------------------------------------
# the shipped injectors
# ----------------------------------------------------------------------
def test_drop_sync_event_caught(grid2d_small):
    dag, trace, _ = _traced_run(grid2d_small)
    bad = drop_sync_event(trace)
    codes = _codes(verify_concurrency(dag, bad))
    assert "C707" in codes
    # The original trace is untouched (injectors clone).
    assert verify_concurrency(dag, trace).ok


def test_swallow_wakeup_caught(grid2d_small, no_unit_floor):
    """The rule and injector need a multi-unit trace (a sink with a
    predecessor), which the default floor never produces on a small
    matrix — so the verify CLI has no such mode and this is its test."""
    dag, trace, _ = _traced_run(grid2d_small)
    bad = swallow_wakeup(trace, dag)
    rep = verify_concurrency(dag, bad)
    # A *runtime* bug: only C705 convicts.
    assert _codes(rep) == {"C705"}
    assert verify_concurrency(dag, trace).ok


def test_injectors_raise_when_impossible(grid2d_small):
    # Uninstrumented: no publish to drop, no published sink to delay;
    # a one-task trace has no sink with a predecessor either.
    dag, trace, _ = _traced_run(grid2d_small, record_sync=False)
    with pytest.raises(ValueError):
        drop_sync_event(trace)
    with pytest.raises(ValueError):
        swallow_wakeup(trace, dag)
    dag, trace, _ = _traced_run(grid2d_small)
    assert dag.n_tasks == 1
    with pytest.raises(ValueError):
        swallow_wakeup(trace, dag)


# ----------------------------------------------------------------------
# hand-built corruptions for the remaining codes
# ----------------------------------------------------------------------
def test_c702_unpublished_read(grid2d_small, no_unit_floor):
    """Delay one interior task's publish past a successor's start: the
    successor read a completion nobody had published yet.  On the unit
    DAG this check is the whole race argument."""
    dag, trace, _ = _traced_run(grid2d_small)
    pred = succ = None
    for e in trace.sorted_events():
        succs = dag.successors(int(e.task))
        if len(succs):
            pred, succ = int(e.task), int(succs[0])
            break
    assert pred is not None
    succ_start = next(e.start for e in trace.events if e.task == succ)
    trace.sync_events = [
        (SyncEvent(e.kind, e.worker, e.obj, e.task, succ_start + 1.0,
                   succ_start + 1.0)
         if e.kind == "publish" and e.task == pred else e)
        for e in trace.sync_events
    ]
    _restamp(trace)
    assert "C702" in _codes(verify_concurrency(dag, trace))
