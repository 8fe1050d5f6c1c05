"""D8xx determinism audit + RV5xx event-loop lint + trace fingerprints."""

import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dag import build_dag
from repro.distributed import ClusterSpec, map_cblks, simulate_distributed
from repro.machine import mirage, simulate
from repro.machine.streamsim import simulate_kernel_burst
from repro.resilience import FaultModel, FaultSpec, RecoveryPolicy
from repro.runtime import get_policy
from repro.runtime.seq import MonotonicCounter, monotonic_counter
from repro.runtime.threaded import THREAD_SCHEDULERS, factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.symbolic import analyze
from repro.verify.determinism import (
    drop_seq,
    reorder_ties,
    reseed_midrun,
    trace_diff,
    verify_determinism,
)
from repro.verify.lint import FAMILIES, lint_paths, lint_sources
from tests.conftest import backend


@pytest.fixture(scope="module")
def res(grid2d_small):
    return analyze(grid2d_small)


@pytest.fixture(scope="module")
def dag(res):
    return build_dag(res.symbol, "llt", granularity="2d")


def _machine_trace(dag, seed=0, with_faults=True):
    machine = mirage(n_cores=2, n_gpus=1, streams_per_gpu=2)
    faults = None
    recovery = None
    if with_faults:
        specs = [
            FaultSpec("worker-crash", time=0.0, resource=0),
            FaultSpec("straggler", time=0.0, factor=3.0),
        ]
        faults = FaultModel(specs, seed=seed, task_fail_rate=0.05)
        recovery = RecoveryPolicy()
    r = simulate(dag, machine, get_policy("parsec"),
                 faults=faults, recovery=recovery)
    return r.trace


def _distributed_trace(res, seed=0):
    owner = map_cblks(res.symbol, 2)
    cluster = ClusterSpec(n_nodes=2, cores_per_node=2)
    specs = [FaultSpec("straggler", time=0.0, factor=2.0)]
    r = simulate_distributed(
        res.symbol, owner, cluster, collect_trace=True,
        faults=FaultModel(specs, seed=seed, task_fail_rate=0.05),
        recovery=RecoveryPolicy(),
    )
    return r.trace


def _burst_trace():
    tr = ExecutionTrace()
    simulate_kernel_burst("cublas", 500, streams=3, n_calls=40, trace=tr)
    return tr


def _threaded_trace(res, matrix, scheduler, kernels):
    permuted = matrix.permute(res.perm.perm)
    trace = ExecutionTrace()
    with backend(kernels):
        factorize_threaded(res.symbol, permuted, "llt", n_workers=2,
                           trace=trace, scheduler=scheduler)
    return trace


# ----------------------------------------------------------------------
# fingerprint stability
# ----------------------------------------------------------------------
class TestFingerprintStability:
    def test_machine_same_seed_identical(self, dag):
        a = _machine_trace(dag, seed=3)
        b = _machine_trace(dag, seed=3)
        assert a.fingerprint() == b.fingerprint()
        assert trace_diff(a, b) is None

    def test_machine_different_seed_diverges(self, dag):
        a = _machine_trace(dag, seed=3)
        b = _machine_trace(dag, seed=4)
        assert a.fingerprint() != b.fingerprint()
        assert "divergence" in (trace_diff(a, b) or "")

    def test_distributed_same_seed_identical(self, res):
        a = _distributed_trace(res, seed=7)
        b = _distributed_trace(res, seed=7)
        assert a.fingerprint() == b.fingerprint()

    def test_streamsim_double_run_identical(self):
        assert _burst_trace().fingerprint() == _burst_trace().fingerprint()

    @pytest.mark.parametrize("scheduler", sorted(THREAD_SCHEDULERS))
    @pytest.mark.parametrize("native", [False, True])
    def test_threaded_fingerprint_stable(self, res, grid2d_small,
                                         scheduler, native):
        kernels = "native" if native else "numpy"
        a = _threaded_trace(res, grid2d_small, scheduler, kernels)
        b = _threaded_trace(res, grid2d_small, scheduler, kernels)
        assert a.meta["clock"] == "wall"
        assert a.fingerprint() == b.fingerprint()
        # The fingerprint names the DAG the task ids refer to.
        assert any(line.startswith("meta:granularity=")
                   for line in a.fingerprint_lines())

    def test_pickle_round_trip_preserves_fingerprint(self, dag):
        a = _machine_trace(dag, seed=5)
        b = pickle.loads(pickle.dumps(a))
        assert b.fingerprint() == a.fingerprint()
        assert b.next_seq == a.next_seq

    def test_meta_outside_whitelist_ignored(self, dag):
        a = _machine_trace(dag, seed=5)
        b = pickle.loads(pickle.dumps(a))
        b.meta["wall_s"] = 123.456
        assert b.fingerprint() == a.fingerprint()
        b.meta["seed"] = 999  # whitelisted -> participates
        assert b.fingerprint() != a.fingerprint()


# ----------------------------------------------------------------------
# the D8xx audit itself
# ----------------------------------------------------------------------
class TestDeterminismAudit:
    def test_clean_machine_replay_passes(self, dag):
        rep = verify_determinism(lambda: _machine_trace(dag, seed=2))
        assert rep.ok, rep.format()
        assert rep.stats["replayed"] == 1
        assert rep.stats["rng_draws"] > 0

    def test_clean_burst_replay_passes(self):
        rep = verify_determinism(_burst_trace)
        assert rep.ok, rep.format()

    def test_reorder_ties_caught(self, dag):
        trace = reorder_ties(_machine_trace(dag, seed=2))
        rep = verify_determinism(lambda: _machine_trace(dag, seed=2),
                                 trace=trace)
        codes = {f.code for f in rep.findings}
        assert not rep.ok
        assert "D802" in codes and "D801" in codes

    def test_drop_seq_caught_without_replay(self, dag):
        trace = drop_seq(_machine_trace(dag, seed=2))
        rep = verify_determinism(lambda: trace, trace=trace, replay=False)
        assert not rep.ok
        assert any(f.code == "D802" for f in rep.findings)

    def test_reseed_midrun_caught(self, dag):
        trace = reseed_midrun(_machine_trace(dag, seed=2))
        rep = verify_determinism(lambda: _machine_trace(dag, seed=2),
                                 trace=trace)
        codes = {f.code for f in rep.findings}
        assert not rep.ok
        assert "D803" in codes or "D801" in codes

    def test_divergence_is_localized(self, dag):
        trace = reseed_midrun(_machine_trace(dag, seed=2))
        rep = verify_determinism(lambda: _machine_trace(dag, seed=2),
                                 trace=trace)
        d804 = [f for f in rep.findings if f.code == "D804"]
        assert d804 and "divergence" in d804[0].message

    def test_missing_meta_flagged(self):
        trace = ExecutionTrace()
        trace.record(0, "cpu0", 0.0, 1.0)
        rep = verify_determinism(lambda: trace, trace=trace, replay=False)
        codes = {f.code for f in rep.findings}
        assert "D805" in codes  # no producer, no rng stamp

    def test_backwards_time_flagged(self):
        trace = ExecutionTrace()
        trace.meta.update(producer="test", clock="virtual", rng=None)
        trace.record(0, "cpu0", 2.0, 1.0)
        rep = verify_determinism(lambda: trace, trace=trace, replay=False)
        assert any(f.code == "D802" and "backwards" in f.message
                   for f in rep.findings)

    def test_injectors_refuse_empty_material(self):
        empty = ExecutionTrace()
        with pytest.raises(ValueError):
            reorder_ties(empty)
        with pytest.raises(ValueError):
            drop_seq(empty)
        with pytest.raises(ValueError):
            reseed_midrun(empty)  # no rng stamp to forge

    def test_injectors_do_not_mutate_input(self, dag):
        a = _machine_trace(dag, seed=2)
        before = a.fingerprint()
        reorder_ties(a)
        drop_seq(a)
        reseed_midrun(a)
        assert a.fingerprint() == before


# ----------------------------------------------------------------------
# the monotonic counter (blessed tie-break helper)
# ----------------------------------------------------------------------
class TestMonotonicCounter:
    def test_counts_and_pickles(self):
        c = monotonic_counter()
        assert isinstance(c, MonotonicCounter)
        assert [next(c) for _ in range(3)] == [0, 1, 2]
        assert c.count == 3
        c2 = pickle.loads(pickle.dumps(c))
        assert next(c2) == 3

    def test_start_offset(self):
        c = monotonic_counter(10)
        assert next(c) == 10


# ----------------------------------------------------------------------
# RV5xx event-loop lint
# ----------------------------------------------------------------------
def _codes(src):
    return [f.code for f in lint_sources({"x.py": src}, "RV5")]


class TestEventloopLint:
    def test_default_scope_clean(self):
        assert lint_paths(family="RV5") == []

    def test_default_scope_covers_every_event_heap(self):
        """The scope resolves to real files, the shared event core among
        them, and the simulator packages hold no heap of their own."""
        pkg = Path(repro.__file__).parent
        scope = {Path(p).relative_to("src/repro").as_posix()
                 for p in FAMILIES["RV5"].scope}
        assert all((pkg / p).exists() for p in scope)
        assert {"sim.py", "machine/simulator.py", "machine/streamsim.py",
                "distributed/simulator.py"} <= scope
        for sub in ("machine", "distributed"):
            for f in (pkg / sub).glob("*.py"):
                assert "import heapq" not in f.read_text(), f

    def test_rv501_non_tuple_and_missing_tiebreak(self):
        src = (
            "import heapq\n"
            "heapq.heappush(h, when)\n"
            "heapq.heappush(h, (when, fn))\n"
        )
        assert _codes(src) == ["RV501", "RV501"]

    def test_rv505_misplaced_tiebreak_and_lambda(self):
        src = (
            "import heapq\n"
            "heapq.heappush(h, (when, fn, next(ctr)))\n"
            "heapq.heappush(h, (when, next(ctr), lambda: 0))\n"
        )
        assert _codes(src) == ["RV505", "RV505"]

    def test_blessed_shape_clean(self):
        src = "import heapq\nheapq.heappush(h, (when, next(ctr), fn, a))\n"
        assert _codes(src) == []

    def test_rv502_clock_equality(self):
        assert _codes("if a.time == b.time:\n    pass\n") == ["RV502"]
        assert _codes("if a.time <= b.time:\n    pass\n") == []

    def test_rv503_set_iteration_and_pop(self):
        src = (
            "idle: set[int] = set()\n"
            "for c in idle:\n    pass\n"
            "x = idle.pop()\n"
            "per_node: list[set[int]] = []\n"
            "for c in per_node[0]:\n    pass\n"
            "y = per_node[1].pop()\n"
        )
        assert _codes(src) == ["RV503"] * 4

    def test_rv503_sorted_is_clean(self):
        src = "idle: set[int] = set()\nfor c in sorted(idle):\n    pass\n"
        assert _codes(src) == []

    def test_rv504_wall_clock_and_rng(self):
        src = (
            "import time, random\n"
            "import numpy as np\n"
            "t = time.time()\n"
            "r = random.random()\n"
            "x = np.random.rand()\n"
            "g = np.random.default_rng()\n"
        )
        assert _codes(src) == ["RV504"] * 4

    def test_rv504_seeded_rng_clean(self):
        src = "import numpy as np\ng = np.random.default_rng(42)\n"
        assert _codes(src) == []

    def test_noqa_suppresses(self):
        src = "t = time.time()  # noqa: RV504\nimport time\n"
        assert _codes(src) == []

    def test_syntax_error_is_rv500(self):
        assert _codes("def broken(:\n") == ["RV500"]


# ----------------------------------------------------------------------
# widened RV306 (project linter)
# ----------------------------------------------------------------------
class TestWidenedRV306:
    def _codes(self, src):
        from repro.verify.lint import lint_sources
        return [f.code for f in lint_sources({"x.py": src})]

    def test_subscript_of_set_container(self):
        src = (
            "elems: list[set[int]] = []\n"
            "for e in elems[0]:\n    pass\n"
        )
        assert self._codes(src) == ["RV306"]

    def test_set_pop_flagged(self):
        src = "s = {1}\nx = s.pop()\n"
        assert self._codes(src) == ["RV306"]

    def test_defaultdict_set_tracked(self):
        src = (
            "from collections import defaultdict\n"
            "by_node = defaultdict(set)\n"
            "for v in by_node[3]:\n    pass\n"
        )
        assert self._codes(src) == ["RV306"]

    def test_list_pop_not_flagged(self):
        src = "stack = [1, 2]\nx = stack.pop()\n"
        assert self._codes(src) == []

    def test_dict_pop_with_key_not_flagged(self):
        src = "d: dict[int, set[int]] = {}\nx = d.pop(3, None)\n"
        assert self._codes(src) == []

    def test_repo_is_clean(self):
        from pathlib import Path

        import repro
        from repro.verify.lint import lint_paths

        assert lint_paths([Path(repro.__file__).parent]) == []


# ----------------------------------------------------------------------
# determinism-fix regression: distributed idle-core choice
# ----------------------------------------------------------------------
class TestDistributedCoreChoice:
    def test_lowest_idle_core_wins(self, res):
        # Two same-seed runs must agree on core placement event-for-event
        # (the old set.pop() choice was hash-order dependent).
        a = _distributed_trace(res, seed=1)
        b = _distributed_trace(res, seed=1)
        ra = [(e.task, e.resource, e.seq) for e in a.sorted_events()]
        rb = [(e.task, e.resource, e.seq) for e in b.sorted_events()]
        assert ra == rb
