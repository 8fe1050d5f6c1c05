"""The DAG executor's one pop order (work stealing) and its plumbing."""

import numpy as np
import pytest

from repro.dag import build_dag, get_dag, longest_path_levels
from repro.dag.analysis import critical_path
from repro.symbolic import analyze


@pytest.fixture(scope="module")
def dag(grid2d_small):
    res = analyze(grid2d_small)
    return build_dag(res.symbol, "llt", granularity="2d")


def _run(mat, n_workers=1):
    """A traced threaded factorization of ``mat``: the unit DAG it ran
    and its tasks in the order they started."""
    from repro.runtime.threaded import factorize_threaded
    from repro.runtime.tracing import ExecutionTrace

    res = analyze(mat)
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, mat.permute(res.perm.perm), "llt",
                       n_workers=n_workers, trace=trace)
    unit = get_dag(res.symbol, "llt", granularity="unit",
                   n_workers=n_workers)
    assert unit.n_tasks > 4
    order = [e.task for e in sorted(trace.events, key=lambda e: e.start)]
    return unit, order


def _drivers(mat):
    """Both threaded drivers on ``mat``, as callables taking keywords."""
    from repro.core.factorization import factorize_sequential
    from repro.runtime.threaded import factorize_threaded, solve_threaded

    res = analyze(mat)
    permuted = mat.permute(res.perm.perm)
    factor = factorize_sequential(res.symbol, permuted, "llt")
    return [
        lambda **o: factorize_threaded(res.symbol, permuted, "llt", **o),
        lambda **o: solve_threaded(factor, np.ones(res.symbol.n), **o),
    ]


# ----------------------------------------------------------------------
# no pop-order knob
# ----------------------------------------------------------------------
class TestRegistry:
    @pytest.mark.parametrize("name", ["fifo", "affinity", "adaptive",
                                      "priority", "inverse-priority"])
    def test_deleted_policies_are_unknown(self, grid2d_small, name):
        """Neither driver takes a pop order: naming one, a deleted one
        included, is a ``TypeError``."""
        for run in _drivers(grid2d_small):
            with pytest.raises(TypeError, match="scheduler"):
                run(n_workers=2, scheduler=name)

    def test_solve_defaults_to_work_stealing(self, grid2d_small,
                                             no_unit_floor):
        """The solve's executor pops as the factorization's does: one
        worker runs the solve DAG's LIFO Kahn order."""
        from repro.core.factorization import factorize_sequential
        from repro.dag.solve_builder import build_solve_dag
        from repro.runtime.threaded import solve_threaded
        from repro.runtime.tracing import ExecutionTrace

        res = analyze(grid2d_small)
        factor = factorize_sequential(
            res.symbol, grid2d_small.permute(res.perm.perm), "llt")
        trace = ExecutionTrace()
        solve_threaded(factor, np.ones(res.symbol.n), n_workers=1,
                       trace=trace)
        dag = build_solve_dag(factor.symbol, "llt", n_workers=1)
        assert dag.n_tasks > 2
        order = [e.task for e in sorted(trace.events, key=lambda e: e.start)]
        assert order == dag.kahn_order().tolist()
        assert "scheduler" not in trace.meta


# ----------------------------------------------------------------------
# longest-path levels
# ----------------------------------------------------------------------
class TestLongestPathLevels:
    def test_levels_bound_by_own_weight_and_edges(self, dag):
        levels = longest_path_levels(dag)
        assert levels.shape == (dag.n_tasks,)
        assert np.all(levels >= np.maximum(dag.flops, 0))
        for t in range(dag.n_tasks):
            for s in dag.successors(t):
                # level is the task's own weight plus the heaviest
                # downstream chain, so every edge obeys the recurrence.
                assert levels[t] >= dag.flops[t] + levels[s] - 1e-9

    def test_max_level_is_critical_path(self, dag):
        levels = longest_path_levels(dag)
        cp_len, _ = critical_path(dag)
        assert np.isclose(levels.max(), cp_len)

    def test_custom_weights(self, dag):
        unit = np.ones(dag.n_tasks)
        levels = longest_path_levels(dag, weights=unit)
        # Unit weights turn the level into (longest chain length in
        # tasks); sinks sit at exactly 1.
        sinks = [t for t in range(dag.n_tasks) if dag.successors(t).size == 0]
        assert sinks and all(levels[t] == 1.0 for t in sinks)
        assert levels.max() >= levels.min() >= 1.0


# ----------------------------------------------------------------------
# executor contract: every task runs exactly once
# ----------------------------------------------------------------------
def test_exactly_once_drain(grid2d_medium, no_unit_floor):
    unit, order = _run(grid2d_medium, n_workers=3)
    assert sorted(order) == list(range(unit.n_tasks))


# ----------------------------------------------------------------------
# the pop order, seen through a one-worker run
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_local_pop_is_lifo(self, grid2d_medium, no_unit_floor):
        """A worker pops the newest task it released, so one worker runs
        the DAG's LIFO Kahn order — not the ascending panel order the
        sequential driver walks — and the factor and the solve are still
        the sequential driver's, bit for bit, at 1, 2 and 3 workers."""
        from repro.core.factorization import factorize_sequential
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import factorize_threaded, solve_threaded

        unit, order = _run(grid2d_medium)
        assert order == unit.kahn_order().tolist()
        assert order != np.argsort(unit.cblk, kind="stable").tolist()

        res = analyze(grid2d_medium)
        permuted = grid2d_medium.permute(res.perm.perm)
        seq = factorize_sequential(res.symbol, permuted, "llt")
        b = np.random.default_rng(0).standard_normal((res.symbol.n, 2))
        ref = solve_factored(seq, b)
        for n_workers in (1, 2, 3):
            par = factorize_threaded(res.symbol, permuted, "llt",
                                     n_workers=n_workers)
            assert np.array_equal(par.L_arena, seq.L_arena)
            assert np.array_equal(
                solve_threaded(seq, b, n_workers=n_workers), ref)


# ----------------------------------------------------------------------
# provenance: trace.meta stamp
# ----------------------------------------------------------------------
class TestProvenance:
    def test_threaded_run_stamps_meta(self, grid2d_small):
        from repro.runtime.threaded import factorize_threaded
        from repro.runtime.tracing import ExecutionTrace

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=2, trace=trace,
        )
        assert "scheduler" not in trace.meta
        assert trace.meta["n_workers"] == 2
        assert trace.meta["granularity"] == "unit"
