"""Fault-injection and recovery tests across the execution layers.

Covers the resilience subsystem end to end: the seeded
:class:`~repro.resilience.FaultModel`, recovery in the machine
simulator (worker crash, GPU loss, transfer retry, stragglers), the
distributed simulator (node failure, message resend), and the threaded
runtime (a raising task reaches the caller and the trace).  Every
recovered trace must satisfy the R6xx auditor and the regular schedule
validator — recovery that produces an infeasible schedule is a bug,
not a feature.
"""

import numpy as np
import pytest

from repro import cbuild
from repro.dag import build_dag
from repro.distributed import ClusterSpec, map_cblks, simulate_distributed
from repro.machine import mirage, simulate
from repro.resilience import (
    FAULT_KINDS,
    PERSISTENT_KINDS,
    FaultModel,
    FaultSpec,
    RecoveryPolicy,
    UnrecoverableError,
)
from repro.runtime import get_policy
from repro.runtime.native import NativePolicy
from repro.runtime.tracing import ExecutionTrace
from repro.symbolic import analyze
from repro.verify import verify_resilience, verify_schedule

MACHINE = mirage(n_cores=4, n_gpus=1, streams_per_gpu=2)

# 4 cores vs 2 GPUs: a CPU pool small enough that both cost-model
# schedulers offload the GPU-path test problem, so transfer and
# device-loss faults hit real traffic.
GPU_MACHINE = mirage(n_cores=4, n_gpus=2, streams_per_gpu=2)


@pytest.fixture(scope="module")
def sym(grid2d_medium):
    return analyze(grid2d_medium).symbol


@pytest.fixture(scope="module")
def gsym():
    from repro.sparse.generators import grid_laplacian_2d
    from repro.symbolic import SymbolicOptions

    matrix = grid_laplacian_2d(40, jitter=0.05, seed=0)
    return analyze(matrix, SymbolicOptions(split_max_width=32)).symbol


def _policy(name):
    if name == "native":
        return get_policy(name)
    # Low offload threshold so the small test problem exercises the
    # GPU fault paths; the native policy is CPU-only.
    return get_policy(name, gpu_flops_threshold=1e3)


def _dag(sym, name):
    pol = _policy(name)
    return pol, build_dag(
        sym, "llt",
        granularity=pol.traits.granularity,
        recompute_ld=pol.traits.recompute_ld,
    )


def _assert_recovered(dag, result):
    assert len(result.trace.events) == dag.n_tasks
    rep = verify_resilience(result.trace)
    assert rep.ok, rep.format()
    srep = verify_schedule(dag, result.trace)
    assert srep.ok, srep.format()


# ----------------------------------------------------------------------
# FaultModel
# ----------------------------------------------------------------------
class TestFaultModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor-strike")
        for kind in FAULT_KINDS:
            if kind in PERSISTENT_KINDS:
                # Persistent conditions must pin a resource and window.
                FaultSpec(kind, resource=0, until=1.0)
                with pytest.raises(ValueError, match="pin a resource"):
                    FaultSpec(kind, until=1.0)
                with pytest.raises(ValueError, match="until > time"):
                    FaultSpec(kind, resource=0, time=1.0, until=1.0)
            else:
                FaultSpec(kind)  # one-shot kinds construct bare

    def test_spec_fires_once(self):
        fm = FaultModel([FaultSpec("task-fault", task=7)])
        assert fm.task_fault(7, 0, 0.0) == "task-fault"
        assert fm.task_fault(7, 0, 1.0) is None

    def test_spec_time_and_resource_filters(self):
        fm = FaultModel([FaultSpec("worker-crash", time=1.0, resource=2)])
        assert fm.task_fault(5, 2, 0.5) is None  # too early
        assert fm.task_fault(5, 1, 1.5) is None  # wrong worker
        assert fm.task_fault(5, 2, 1.5) == "worker-crash"

    def test_worker_crash_never_hits_gpu_attempts(self):
        fm = FaultModel([FaultSpec("worker-crash")])
        assert fm.task_fault(3, -1, 0.0) is None  # GPU attempt: worker -1
        assert fm.task_fault(3, 0, 0.0) == "worker-crash"

    def test_rate_draws_are_seeded(self):
        a = FaultModel(seed=42, task_fail_rate=0.3)
        b = FaultModel(seed=42, task_fail_rate=0.3)
        seq_a = [a.task_fault(t, 0, 0.0) for t in range(50)]
        seq_b = [b.task_fault(t, 0, 0.0) for t in range(50)]
        assert seq_a == seq_b
        assert any(k is not None for k in seq_a)
        c = FaultModel(seed=43, task_fail_rate=0.3)
        seq_c = [c.task_fault(t, 0, 0.0) for t in range(50)]
        assert seq_c != seq_a

    def test_fresh_resets_consumed_state(self):
        fm = FaultModel([FaultSpec("straggler", task=1, factor=8.0)],
                        seed=9, transfer_fail_rate=0.5)
        assert fm.straggler(1, 0.0) == 8.0
        draws = [fm.transfer_fails(0, c, 0.0) for c in range(20)]
        re = fm.fresh()
        assert re.straggler(1, 0.0) == 8.0
        assert [re.transfer_fails(0, c, 0.0) for c in range(20)] == draws

    def test_pop_timed_extracts_only_that_kind(self):
        fm = FaultModel([FaultSpec("gpu-loss", time=1e-3),
                         FaultSpec("task-fault", task=2)])
        taken = fm.pop_timed("gpu-loss")
        assert [s.kind for s in taken] == ["gpu-loss"]
        assert fm.task_fault(2, 0, 0.0) == "task-fault"


# ----------------------------------------------------------------------
# machine simulator
# ----------------------------------------------------------------------
class TestMachineSimulator:
    @pytest.mark.parametrize("name", ["native", "starpu", "parsec"])
    def test_zero_fault_runs_bit_identical(self, sym, name):
        pol, dag = _dag(sym, name)
        base = simulate(dag, MACHINE, pol)
        armed = simulate(dag, MACHINE, _policy(name), faults=None,
                         recovery=RecoveryPolicy())
        assert armed.makespan == base.makespan
        assert armed.trace.events == base.trace.events
        assert armed.trace.data_events == base.trace.data_events
        assert armed.n_faults == 0 and armed.n_reexecuted == 0

    @pytest.mark.parametrize("name", ["native", "starpu", "parsec"])
    def test_worker_crash_recovers(self, sym, name):
        pol, dag = _dag(sym, name)
        faults = FaultModel([FaultSpec("worker-crash", resource=0)], seed=1)
        r = simulate(dag, MACHINE, pol, faults=faults,
                     recovery=RecoveryPolicy())
        assert r.n_faults >= 1 and r.n_reexecuted >= 1
        crash = next(f for f in r.trace.fault_events
                     if f.kind == "worker-crash")
        # The crashed worker never runs anything after its fault.
        after = [e for e in r.trace.events
                 if e.resource == crash.resource and e.end > crash.end]
        assert not after
        _assert_recovered(dag, r)

    @pytest.mark.parametrize("name", ["starpu", "parsec"])
    def test_gpu_loss_blacklists_device(self, gsym, name):
        pol, dag = _dag(gsym, name)
        clean = simulate(dag, GPU_MACHINE, pol)
        # Only meaningful when the scheduler actually offloads to gpu0.
        assert any(e.resource.startswith("gpu0") for e in clean.trace.events)
        faults = FaultModel(
            [FaultSpec("gpu-loss", time=0.25 * clean.makespan, resource=0)],
            seed=2,
        )
        r = simulate(dag, GPU_MACHINE, _policy(name), faults=faults,
                     recovery=RecoveryPolicy())
        loss = next(f for f in r.trace.fault_events
                    if f.kind == "gpu-loss" and f.task < 0)
        after = [e for e in r.trace.events
                 if e.resource.startswith("gpu0") and e.end > loss.end]
        assert not after
        _assert_recovered(dag, r)

    def test_gpu_loss_without_blacklist_is_fatal(self, gsym):
        pol, dag = _dag(gsym, "starpu")
        clean = simulate(dag, GPU_MACHINE, pol)
        assert any(e.resource.startswith("gpu") for e in clean.trace.events)
        faults = FaultModel(
            [FaultSpec("gpu-loss", time=0.25 * clean.makespan, resource=0)],
        )
        with pytest.raises(UnrecoverableError, match="gpu_blacklist"):
            simulate(dag, GPU_MACHINE, _policy("starpu"), faults=faults,
                     recovery=RecoveryPolicy(gpu_blacklist=False))

    def test_transfer_retry_pays_backoff(self, gsym):
        pol, dag = _dag(gsym, "starpu")
        faults = FaultModel(seed=3, transfer_fail_rate=0.2)
        r = simulate(dag, GPU_MACHINE, pol, faults=faults,
                     recovery=RecoveryPolicy())
        assert r.bytes_retransferred > 0
        assert any(f.kind == "transfer-fail" for f in r.trace.fault_events)
        assert any(rec.kind == "retry-transfer"
                   for rec in r.trace.recovery_events)
        _assert_recovered(dag, r)

    def test_straggler_stretches_one_task(self, sym):
        pol, dag = _dag(sym, "native")
        faults = FaultModel([FaultSpec("straggler", task=0, factor=5.0)])
        r = simulate(dag, MACHINE, pol, faults=faults,
                     recovery=RecoveryPolicy())
        f = next(f for f in r.trace.fault_events if f.kind == "straggler")
        assert f.task == 0
        e = next(e for e in r.trace.events if e.task == 0)
        # The fault window spans the stretched execution.
        assert e.duration == pytest.approx(f.end - f.start)
        assert r.n_reexecuted == 0  # absorbed in place, not re-run
        _assert_recovered(dag, r)

    def test_retry_budget_exhaustion_names_task(self, sym):
        pol, dag = _dag(sym, "native")
        faults = FaultModel([FaultSpec("task-fault", task=5)] * 4)
        with pytest.raises(UnrecoverableError, match=r"task 5 .*max_retries"):
            simulate(dag, MACHINE, pol, faults=faults,
                     recovery=RecoveryPolicy(max_retries=2))

    def test_combined_chaos_completes(self, gsym):
        pol, dag = _dag(gsym, "parsec")
        clean = simulate(dag, GPU_MACHINE, pol)
        faults = FaultModel(
            [FaultSpec("worker-crash", resource=1),
             FaultSpec("gpu-loss", time=0.3 * clean.makespan, resource=0)],
            seed=4, task_fail_rate=0.03, straggler_rate=0.02,
        )
        r = simulate(dag, GPU_MACHINE, _policy("parsec"), faults=faults,
                     recovery=RecoveryPolicy(max_retries=6))
        assert r.n_faults > 0
        assert r.makespan >= clean.makespan  # faults are never free
        _assert_recovered(dag, r)

    def test_same_seed_same_recovered_schedule(self, sym):
        pol, dag = _dag(sym, "native")
        runs = []
        for _ in range(2):
            faults = FaultModel(seed=7, task_fail_rate=0.05)
            r = simulate(dag, MACHINE, _policy("native"), faults=faults,
                         recovery=RecoveryPolicy())
            runs.append((r.makespan, tuple(r.trace.events)))
        assert runs[0] == runs[1]

    def test_stall_reports_blocked_frontier(self, sym):
        class LossyPolicy(NativePolicy):
            """Drops one released task on the floor (a scheduler bug)."""

            def __init__(self, lost):
                super().__init__()
                self._lost = lost

            def on_ready(self, task):
                if task != self._lost:
                    super().on_ready(task)

        dag = build_dag(sym, "llt", granularity="1d")
        lost = dag.n_tasks - 1
        with pytest.raises(RuntimeError) as err:
            simulate(dag, MACHINE, LossyPolicy(lost))
        msg = str(err.value)
        assert "blocked frontier" in msg
        assert f"{lost}(deps_left=0)" in msg


# ----------------------------------------------------------------------
# distributed simulator
# ----------------------------------------------------------------------
class TestDistributed:
    @pytest.fixture(scope="class")
    def dist(self, sym):
        # Cyclic mapping: the subtree strategy puts this small problem
        # almost entirely on node 0, and the fault paths need real
        # cross-node traffic and in-flight work on node 1.
        owner = map_cblks(sym, 2, strategy="cyclic")
        cluster = ClusterSpec(n_nodes=2, cores_per_node=4)
        return sym, owner, cluster

    def test_zero_fault_identical(self, dist):
        sym, owner, cluster = dist
        base = simulate_distributed(sym, owner, cluster,
                                    collect_trace=True)
        armed = simulate_distributed(sym, owner, cluster,
                                     collect_trace=True, faults=None,
                                     recovery=RecoveryPolicy())
        assert armed.makespan == base.makespan
        assert armed.trace.events == base.trace.events
        assert armed.n_faults == 0

    def test_node_failure_restarts_inflight_work(self, dist):
        sym, owner, cluster = dist
        clean = simulate_distributed(sym, owner, cluster)
        faults = FaultModel(
            [FaultSpec("node-fail", time=0.3 * clean.makespan, resource=1)],
            seed=5,
        )
        r = simulate_distributed(sym, owner, cluster, collect_trace=True,
                                 faults=faults, recovery=RecoveryPolicy())
        assert r.n_faults >= 1
        assert any(f.kind == "node-fail" for f in r.trace.fault_events)
        assert any(rec.kind == "restart" for rec in r.trace.recovery_events)
        assert r.makespan >= clean.makespan
        rep = verify_resilience(r.trace, check_double_complete=False)
        assert rep.ok, rep.format()

    def test_node_failure_after_the_last_panel_is_moot(self, dist):
        """A node loss timed past completion must not drag the makespan
        out to it (the machine simulator drops a late gpu-loss alike)."""
        sym, owner, cluster = dist
        clean = simulate_distributed(sym, owner, cluster)
        faults = FaultModel(
            [FaultSpec("node-fail", time=10 * clean.makespan, resource=1)],
            seed=5,
        )
        r = simulate_distributed(sym, owner, cluster, faults=faults,
                                 recovery=RecoveryPolicy())
        assert r.makespan == clean.makespan
        assert r.n_faults == 0

    def test_message_loss_resends(self, dist):
        sym, owner, cluster = dist
        faults = FaultModel(seed=6, transfer_fail_rate=0.3)
        r = simulate_distributed(sym, owner, cluster, collect_trace=True,
                                 faults=faults, recovery=RecoveryPolicy())
        assert r.bytes_retransferred > 0
        assert any(rec.kind in ("resend", "retry-transfer")
                   for rec in r.trace.recovery_events)
        rep = verify_resilience(r.trace, check_double_complete=False)
        assert rep.ok, rep.format()

    def test_task_fault_budget_is_enforced(self, dist):
        sym, owner, cluster = dist
        faults = FaultModel(seed=8, task_fail_rate=0.9)
        with pytest.raises(UnrecoverableError, match="max_retries"):
            simulate_distributed(sym, owner, cluster, faults=faults,
                                 recovery=RecoveryPolicy(max_retries=1))

    @pytest.fixture(scope="class")
    def grid40(self):
        from repro.sparse.generators import grid_laplacian_2d
        from repro.symbolic import SymbolicOptions

        matrix = grid_laplacian_2d(40)
        sym = analyze(matrix, SymbolicOptions(split_max_width=32)).symbol
        owner = map_cblks(sym, 2, strategy="cyclic")
        cluster = ClusterSpec(n_nodes=2, cores_per_node=4)
        clean = simulate_distributed(sym, owner, cluster)
        return sym, owner, cluster, clean.makespan

    @staticmethod
    def _assert_node_busy_is_what_ran(r):
        """Each node's busy time is its committed trace events plus its
        wasted fault windows (a straggler window re-describes an attempt
        that either committed or was lost, so it is not added)."""
        for n, busy in enumerate(r.node_busy):
            core = f"n{n}c"
            ran = sum(e.end - e.start for e in r.trace.events
                      if e.resource.startswith(core))
            wasted = sum(f.end - f.start for f in r.trace.fault_events
                         if f.resource.startswith(core)
                         and f.kind != "straggler")
            assert busy == pytest.approx(ran + wasted, rel=1e-12)

    def test_node_loss_restarts_failing_attempts(self, grid40):
        """An attempt doomed to fail that is in flight when its node dies
        restarts with the node; its fault event then fires stale and must
        not hand the (busy again) core back a second time."""
        sym, owner, cluster, mk = grid40
        faults = FaultModel(
            [FaultSpec("node-fail", time=0.2 * mk, resource=1)],
            seed=2, task_fail_rate=0.3,
        )
        r = simulate_distributed(
            sym, owner, cluster, collect_trace=True, faults=faults,
            recovery=RecoveryPolicy(node_restart_s=1e-7, max_retries=50),
        )
        rep = verify_resilience(r.trace, check_double_complete=False)
        assert rep.ok, rep.format()
        self._assert_node_busy_is_what_ran(r)

    def test_node_loss_uncharges_stretched_attempts(self, grid40):
        """A straggling attempt lost to a node failure keeps only the
        part of its stretched duration that ran in ``node_busy``."""
        sym, owner, cluster, mk = grid40
        faults = FaultModel(
            [FaultSpec("straggler", factor=50.0),
             FaultSpec("node-fail", time=0.05 * mk, resource=0)],
            seed=0,
        )
        r = simulate_distributed(sym, owner, cluster, collect_trace=True,
                                 faults=faults)
        assert any(f.kind == "straggler" for f in r.trace.fault_events)
        self._assert_node_busy_is_what_ran(r)


# ----------------------------------------------------------------------
# threaded runtime
# ----------------------------------------------------------------------
class TestThreaded:
    def test_worker_exception_propagates(self, grid2d_small, no_unit_floor,
                                         monkeypatch):
        """A task body that raises reaches the caller as it was raised,
        and the trace records it as a ``"task-error"`` fault."""
        from repro.kernels import panel
        from repro.runtime import threaded

        def boom(factor, k, **options):
            raise ValueError(f"boom on panel {k}")

        monkeypatch.setattr(panel, "panel_factorize", boom)
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        trace = ExecutionTrace()
        with cbuild.python_bodies(), pytest.raises(ValueError,
                                                   match="boom on panel"):
            threaded.factorize_threaded(res.symbol, permuted, "llt",
                                        n_workers=2, trace=trace)
        assert [f.kind for f in trace.fault_events] == ["task-error"]

    def test_factorize_threaded_passthrough(self, grid2d_small):
        from repro.core.factorization import factorize_sequential
        from repro.runtime.threaded import factorize_threaded

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        ref = factorize_sequential(res.symbol, permuted, "llt")
        par = factorize_threaded(res.symbol, permuted, "llt", n_workers=3)
        for a, b in zip(ref.L, par.L):
            assert np.allclose(a, b, atol=1e-10)


# ----------------------------------------------------------------------
# satellite edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_gflops_on_zero_makespan(self):
        from repro.machine.simulator import SimulationResult

        r = SimulationResult(policy="native", machine=MACHINE,
                             makespan=0.0, flops=1e9, trace=None,
                             n_cpu_workers=4, bytes_h2d=0.0,
                             bytes_d2h=0.0, busy={})
        assert r.gflops == 0.0

    def test_busy_time_on_empty_trace(self):
        t = ExecutionTrace()
        assert t.busy_time() == {}
        assert t.makespan == 0.0
