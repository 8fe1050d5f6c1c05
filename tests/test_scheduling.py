"""Unit tests for the pluggable thread schedulers and their plumbing."""

import numpy as np
import pytest

from repro.dag import build_dag, longest_path_levels
from repro.dag.analysis import critical_path
from repro.runtime.scheduling import (
    THREAD_SCHEDULERS,
    CriticalPathScheduler,
    InversePriorityScheduler,
    ThreadScheduler,
    WorkStealingScheduler,
    get_thread_scheduler,
)
from repro.symbolic import analyze


@pytest.fixture(scope="module")
def dag(grid2d_small):
    res = analyze(grid2d_small)
    return build_dag(res.symbol, "llt", granularity="2d")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_names_resolve(self):
        for name, cls in THREAD_SCHEDULERS.items():
            sched = get_thread_scheduler(name)
            assert isinstance(sched, cls)
            assert sched.name == name

    def test_instance_passthrough(self):
        inst = CriticalPathScheduler()
        assert get_thread_scheduler(inst) is inst

    def test_class_is_instantiated(self):
        assert isinstance(
            get_thread_scheduler(WorkStealingScheduler),
            WorkStealingScheduler,
        )

    def test_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="inverse-priority"):
            get_thread_scheduler("lottery")

    def test_expected_policies_registered(self):
        assert set(THREAD_SCHEDULERS) == {"ws", "priority",
                                          "inverse-priority"}

    @pytest.mark.parametrize("name", ["fifo", "affinity", "adaptive"])
    def test_deleted_policies_are_unknown(self, name):
        with pytest.raises(KeyError, match=r"available: \['inverse-priority', "
                                           r"'priority', 'ws'\]"):
            get_thread_scheduler(name)

    def test_solve_defaults_to_work_stealing(self, grid2d_small):
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
# scheduler contract: everything pushed comes out exactly once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(THREAD_SCHEDULERS))
def test_exactly_once_drain(dag, name):
    sched = get_thread_scheduler(name)
    sched.bind(dag, n_workers=3)
    for t in range(dag.n_tasks):
        hint = sched.push(t, -1)
        assert -1 <= hint < 3
    assert sched.has_work()
    popped = []
    worker = 0
    while True:
        t = sched.pop(worker)
        if t is None:
            break
        popped.append(t)
        worker = (worker + 1) % 3
    assert sorted(popped) == list(range(dag.n_tasks))
    assert not sched.has_work()
    assert sched.pop(0) is None


@pytest.mark.parametrize("name", sorted(THREAD_SCHEDULERS))
def test_rebind_resets_state(dag, name):
    sched = get_thread_scheduler(name)
    sched.bind(dag, n_workers=2)
    sched.push(0, -1)
    sched.bind(dag, n_workers=2)  # re-bind: queue must be empty again
    assert not sched.has_work()
    assert sched.snapshot() == []


# ----------------------------------------------------------------------
# policy-specific behaviour
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_pops_highest_level_first(self, dag):
        sched = CriticalPathScheduler()
        sched.bind(dag, n_workers=1)
        levels = longest_path_levels(dag)
        for t in range(dag.n_tasks):
            sched.push(t, -1)
        order = [sched.pop(0) for _ in range(dag.n_tasks)]
        got = levels[np.array(order)]
        assert np.all(got[:-1] >= got[1:] - 1e-9)

    def test_inverse_pops_lowest_first(self, dag):
        sched = InversePriorityScheduler()
        sched.bind(dag, n_workers=1)
        levels = longest_path_levels(dag)
        for t in range(dag.n_tasks):
            sched.push(t, -1)
        order = [sched.pop(0) for _ in range(dag.n_tasks)]
        got = levels[np.array(order)]
        assert np.all(got[:-1] <= got[1:] + 1e-9)


class TestWorkStealing:
    def test_local_pop_is_lifo(self, dag):
        sched = WorkStealingScheduler()
        sched.bind(dag, n_workers=2)
        for t in (0, 1, 2):
            assert sched.push(t, 0) == 0  # routed to the pushing worker
        assert sched.pop(0) == 2  # own deque: newest first

    def test_steal_takes_oldest(self, dag):
        sched = WorkStealingScheduler()
        sched.bind(dag, n_workers=2)
        for t in (0, 1, 2):
            sched.push(t, 0)
        assert sched.pop(1) == 0  # victim's cold end: oldest first
        assert sched.stats()["steals"] == 1

    def test_initial_seeding_round_robins(self, dag):
        sched = WorkStealingScheduler()
        sched.bind(dag, n_workers=3)
        hints = [sched.push(t, -1) for t in range(6)]
        assert hints == [0, 1, 2, 0, 1, 2]

    def test_victim_order_is_seeded(self, dag):
        a = WorkStealingScheduler()
        b = WorkStealingScheduler()
        a.bind(dag, n_workers=4)
        b.bind(dag, n_workers=4)
        for _ in range(5):
            a._rngs[0].shuffle(a._victims[0])
            b._rngs[0].shuffle(b._victims[0])
            assert a._victims[0] == b._victims[0]


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


# ----------------------------------------------------------------------
# custom scheduler injection
# ----------------------------------------------------------------------
def test_custom_scheduler_instance(grid2d_small):
    """factorize_threaded accepts a ThreadScheduler instance directly."""
    from repro.core.factorization import factorize_sequential
    from repro.runtime.threaded import factorize_threaded

    class NoisyWs(WorkStealingScheduler):
        name = "ws"  # keep a registered name for the S208 audit

        def setup(self):
            super().setup()
            self.pushes = 0

        def push(self, task, worker):
            self.pushes += 1
            return super().push(task, worker)

    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    sched = NoisyWs()
    ref = factorize_sequential(res.symbol, permuted, "llt")
    par = factorize_threaded(
        res.symbol, permuted, "llt", n_workers=2, scheduler=sched
    )
    assert sched.pushes > 0
    for a, b in zip(ref.L, par.L):
        assert np.allclose(a, b, atol=1e-10)
    assert isinstance(sched, ThreadScheduler)
