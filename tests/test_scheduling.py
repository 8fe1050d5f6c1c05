"""The DAG executor's pop orders and their plumbing."""

import numpy as np
import pytest

from repro.dag import build_dag, get_dag, longest_path_levels
from repro.dag.analysis import critical_path
from repro.kernels import native
from repro.runtime.threaded import THREAD_SCHEDULERS
from repro.symbolic import analyze


@pytest.fixture(scope="module")
def dag(grid2d_small):
    res = analyze(grid2d_small)
    return build_dag(res.symbol, "llt", granularity="2d")


def _run(mat, scheduler, n_workers=1):
    """A traced threaded factorization of ``mat``: the unit DAG it ran
    and its tasks in the order they started."""
    from repro.runtime.threaded import factorize_threaded
    from repro.runtime.tracing import ExecutionTrace

    res = analyze(mat)
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, mat.permute(res.perm.perm), "llt",
                       n_workers=n_workers, trace=trace, scheduler=scheduler)
    unit = get_dag(res.symbol, "llt", granularity="unit",
                   n_workers=n_workers)
    assert unit.n_tasks > 4
    order = [e.task for e in sorted(trace.events, key=lambda e: e.start)]
    return unit, order


def _ready_sets(unit, order):
    """The ready set before each pop of a one-worker run in ``order``."""
    deps = unit.n_deps.copy()
    ready = set(np.flatnonzero(deps == 0).tolist())
    for t in order:
        yield sorted(ready), t
        ready.remove(t)
        for s in unit.successors(t).tolist():
            deps[s] -= 1
            if deps[s] == 0:
                ready.add(s)


# ----------------------------------------------------------------------
# the three names
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_names_resolve(self, grid2d_small, no_unit_floor):
        """Both drivers run every pop order and stamp its name."""
        from repro.core.factorization import factorize_sequential
        from repro.runtime.threaded import factorize_threaded, solve_threaded
        from repro.runtime.tracing import ExecutionTrace

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        factor = factorize_sequential(res.symbol, permuted, "llt")
        for name in THREAD_SCHEDULERS:
            traces = [ExecutionTrace(), ExecutionTrace()]
            factorize_threaded(res.symbol, permuted, "llt", n_workers=2,
                               trace=traces[0], scheduler=name)
            solve_threaded(factor, np.ones(res.symbol.n), n_workers=2,
                           trace=traces[1], scheduler=name)
            assert [t.meta["scheduler"] for t in traces] == [name, name]

    @staticmethod
    def _drivers(mat):
        """Run both drivers on ``mat`` with the given options."""
        from repro.core.factorization import factorize_sequential
        from repro.runtime.threaded import factorize_threaded, solve_threaded

        res = analyze(mat)
        permuted = mat.permute(res.perm.perm)
        factor = factorize_sequential(res.symbol, permuted, "llt")
        return [
            lambda **o: factorize_threaded(res.symbol, permuted, "llt", **o),
            lambda **o: solve_threaded(factor, np.ones(res.symbol.n), **o),
        ]

    def test_unknown_name_lists_registry(self, grid2d_small):
        """An unknown pop order, a name or an object, is a ``ValueError``
        naming the three."""
        for run in self._drivers(grid2d_small):
            for scheduler in ("lottery", object()):
                with pytest.raises(ValueError, match="inverse-priority"):
                    run(n_workers=2, scheduler=scheduler)

    @pytest.mark.parametrize("name", ["fifo", "affinity", "adaptive"])
    def test_deleted_policies_are_unknown(self, grid2d_small, name):
        for run in self._drivers(grid2d_small):
            with pytest.raises(ValueError, match=r"are \['inverse-priority', "
                                                 r"'priority', 'ws'\]"):
                run(n_workers=2, scheduler=name)

    def test_expected_policies_registered(self):
        assert set(THREAD_SCHEDULERS) == {"ws", "priority",
                                          "inverse-priority"}

    def test_solve_defaults_to_work_stealing(self, grid2d_small,
                                             no_unit_floor):
        from repro.core.factorization import factorize_sequential
        from repro.runtime.threaded import solve_threaded
        from repro.runtime.tracing import ExecutionTrace

        res = analyze(grid2d_small)
        factor = factorize_sequential(
            res.symbol, grid2d_small.permute(res.perm.perm), "llt")
        trace = ExecutionTrace()
        solve_threaded(factor, np.ones(res.symbol.n), n_workers=2,
                       trace=trace)
        assert trace.meta["scheduler"] == "ws"


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
@pytest.mark.parametrize("name", sorted(THREAD_SCHEDULERS))
def test_exactly_once_drain(grid2d_medium, no_unit_floor, name):
    unit, order = _run(grid2d_medium, name, n_workers=3)
    assert sorted(order) == list(range(unit.n_tasks))


# ----------------------------------------------------------------------
# the pop orders, seen through a one-worker run
# ----------------------------------------------------------------------
@pytest.mark.skipif(native.availability() is not None,
                    reason="the heaps are the C executor's; without it the "
                           "tasks run in Kahn order")
class TestCriticalPath:
    def test_pops_highest_level_first(self, grid2d_medium, no_unit_floor):
        unit, order = _run(grid2d_medium, "priority")
        levels = longest_path_levels(unit)
        for ready, t in _ready_sets(unit, order):
            assert levels[t] == levels[ready].max()

    def test_inverse_pops_lowest_first(self, grid2d_medium, no_unit_floor):
        unit, order = _run(grid2d_medium, "inverse-priority")
        levels = longest_path_levels(unit)
        for ready, t in _ready_sets(unit, order):
            assert levels[t] == levels[ready].min()


class TestWorkStealing:
    def test_local_pop_is_lifo(self, grid2d_medium, no_unit_floor):
        """``"ws"``: a worker pops the newest task it released, so one
        worker runs the DAG's LIFO Kahn order."""
        unit, order = _run(grid2d_medium, "ws")
        assert order == unit.kahn_order().tolist()


# ----------------------------------------------------------------------
# provenance: trace.meta stamp + S208 audit
# ----------------------------------------------------------------------
class TestProvenance:
    def test_threaded_run_stamps_meta(self, grid2d_small):
        from repro.runtime.threaded import factorize_threaded
        from repro.runtime.tracing import ExecutionTrace

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=2,
            trace=trace, scheduler="priority",
        )
        assert trace.meta["scheduler"] == "priority"
        assert trace.meta["n_workers"] == 2
        assert trace.meta["granularity"] == "unit"

    def test_verifier_accepts_known_scheduler(self, grid2d_small):
        from repro.dag.builder import dag_of_trace
        from repro.runtime.threaded import factorize_threaded
        from repro.runtime.tracing import ExecutionTrace
        from repro.verify import verify_schedule

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=2,
            trace=trace, scheduler="ws",
        )
        report = verify_schedule(
            dag_of_trace(res.symbol, "llt", trace), trace)
        assert report.ok, report.format()
        assert report.stats["scheduler"] == "ws"

    def test_verifier_flags_unknown_scheduler(self, grid2d_small):
        from repro.dag.builder import dag_of_trace
        from repro.runtime.threaded import factorize_threaded
        from repro.runtime.tracing import ExecutionTrace
        from repro.verify import verify_schedule

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=2, trace=trace,
        )
        trace.meta["scheduler"] = "lottery"
        report = verify_schedule(
            dag_of_trace(res.symbol, "llt", trace), trace)
        assert {f.code for f in report.findings} == {"S208"}
