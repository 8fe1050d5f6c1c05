"""Health monitoring and graceful-degradation tests.

Covers the :class:`~repro.resilience.HealthMonitor` state machine in
isolation (escalation, recovery, probation, quarantine dwell, the
signal floor, expectation learning, hedge thresholds), its wiring into
the machine and distributed simulators (limplock detection, degraded
routing, backpressure, hedged re-execution, monitoring-off identity),
and the jittered recovery backoff satellite.
"""

import numpy as np
import pytest

from repro.dag import build_dag
from repro.distributed import ClusterSpec, map_cblks, simulate_distributed
from repro.machine import mirage, simulate
from repro.resilience import (
    FaultModel,
    FaultSpec,
    HealthMonitor,
    HealthPolicy,
    RecoveryPolicy,
)
from repro.resilience.health import (
    HEALTH_RANK,
    HEALTH_STATES,
    LEGAL_TRANSITIONS,
    bucket_key,
)
from repro.runtime import get_policy
from repro.symbolic import SymbolicOptions, analyze
from repro.verify import verify_health, verify_resilience, verify_schedule

MACHINE = mirage(n_cores=4, n_gpus=0)


@pytest.fixture(scope="module")
def gsym():
    from repro.sparse.generators import grid_laplacian_2d

    matrix = grid_laplacian_2d(40, jitter=0.05, seed=0)
    return analyze(matrix, SymbolicOptions(split_max_width=32)).symbol


def _native_dag(sym):
    pol = get_policy("native")
    return build_dag(sym, "llt", granularity=pol.traits.granularity,
                     recompute_ld=pol.traits.recompute_ld)


# ----------------------------------------------------------------------
# shared bucketing: every duration consumer keys through one helper
# ----------------------------------------------------------------------
def test_bucket_key_format_pin():
    assert bucket_key(3, 1024.0) == "3:10"
    assert bucket_key(2, 0.0) == "2:0"  # log2 floor clamps at 1 flop
    assert bucket_key(1, 1.5) == "1:0"
    assert bucket_key(0, 2.0**20 + 5.0) == "0:20"


def test_bucket_key_single_source():
    """The machine simulator aliases the one shared helper."""
    import repro.machine.simulator as simulator
    import repro.resilience.health as health

    assert simulator.bucket_key is health.bucket_key


# ----------------------------------------------------------------------
# the state machine in isolation
# ----------------------------------------------------------------------
class TestHealthMonitor:
    POL = HealthPolicy(ewma_alpha=1.0, min_samples=1)

    def _observe_n(self, mon, res, ratio, n, t0=0.0):
        out = []
        for i in range(n):
            out += mon.observe(res, "k", ratio, t0 + i, expected=1.0)
        return out

    def test_starts_healthy(self):
        mon = HealthMonitor(["a", "b"])
        assert mon.state("a") == "healthy"
        assert mon.rank("a") == 0
        assert mon.ewma("a") == 1.0
        mon.register("a")  # idempotent
        assert mon.counts()["healthy"] == 2

    def test_unknown_resource_defaults_healthy(self):
        mon = HealthMonitor()
        assert mon.state("ghost") == "healthy"
        assert mon.rank("ghost") == 0

    def test_escalation_chain(self):
        mon = HealthMonitor(["a", "b"], policy=self.POL)
        trans = self._observe_n(mon, "a", 50.0, 3)
        chain = [(s, d) for (_, s, d, *_rest) in trans]
        assert chain == [("healthy", "suspect"), ("suspect", "degraded"),
                         ("degraded", "quarantined")]
        assert mon.state("a") == "quarantined"
        assert mon.rank("a") == 2
        for edge in chain:
            assert edge in LEGAL_TRANSITIONS

    def test_min_samples_gates_transitions(self):
        mon = HealthMonitor(["a"], policy=HealthPolicy(
            ewma_alpha=1.0, min_samples=5))
        assert self._observe_n(mon, "a", 50.0, 4) == []
        assert mon.state("a") == "healthy"
        assert self._observe_n(mon, "a", 50.0, 1, t0=4.0) != []

    def test_suspect_recovers(self):
        mon = HealthMonitor(["a"], policy=self.POL)
        self._observe_n(mon, "a", 3.0, 1)
        assert mon.state("a") == "suspect"
        trans = self._observe_n(mon, "a", 1.0, 1, t0=1.0)
        assert [(s, d) for (_, s, d, *_r) in trans] == \
            [("suspect", "healthy")]

    def test_degraded_probation_then_healthy(self):
        pol = HealthPolicy(ewma_alpha=1.0, min_samples=1,
                           probation_tasks=2)
        mon = HealthMonitor(["a"], policy=pol)
        self._observe_n(mon, "a", 5.0, 2)
        assert mon.state("a") == "degraded"
        trans = self._observe_n(mon, "a", 1.0, 1, t0=2.0)
        assert [(s, d) for (_, s, d, *_r) in trans] == \
            [("degraded", "probation")]
        # EWMA resets on probation entry; two clean tasks go healthy.
        trans = self._observe_n(mon, "a", 1.0, 2, t0=3.0)
        assert [(s, d) for (_, s, d, *_r) in trans] == \
            [("probation", "healthy")]

    def test_probation_relapse(self):
        mon = HealthMonitor(["a"], policy=self.POL)
        self._observe_n(mon, "a", 5.0, 2)
        self._observe_n(mon, "a", 1.0, 1, t0=2.0)
        assert mon.state("a") == "probation"
        trans = self._observe_n(mon, "a", 10.0, 1, t0=3.0)
        assert [(s, d) for (_, s, d, *_r) in trans] == \
            [("probation", "suspect")]

    def test_quarantine_dwell_probes_out(self):
        pol = HealthPolicy(ewma_alpha=1.0, min_samples=1,
                           quarantine_s=5.0)
        mon = HealthMonitor(["a", "b"], policy=pol)
        self._observe_n(mon, "a", 50.0, 3)
        assert mon.state("a") == "quarantined"
        assert mon.tick(3.0) == []  # dwell not over
        trans = mon.tick(100.0)
        assert [(s, d) for (_, s, d, *_r) in trans] == \
            [("quarantined", "probation")]
        assert mon.tick(101.0) == []  # no repeat

    def test_never_quarantines_last_resource(self):
        mon = HealthMonitor(["a"], policy=self.POL)
        self._observe_n(mon, "a", 50.0, 5)
        # Only resource: may degrade but never quarantine (deadlock).
        assert mon.state("a") == "degraded"

    def test_allow_quarantine_off(self):
        pol = HealthPolicy(ewma_alpha=1.0, min_samples=1,
                           allow_quarantine=False)
        mon = HealthMonitor(["a", "b"], policy=pol)
        self._observe_n(mon, "a", 50.0, 5)
        assert mon.state("a") == "degraded"

    def test_signal_floor(self):
        pol = HealthPolicy(ewma_alpha=1.0, min_samples=1,
                           min_duration_s=1e-3)
        mon = HealthMonitor(["a"], policy=pol)
        # Both duration and expectation under the floor: pure noise.
        for i in range(5):
            assert mon.observe("a", "k", 50e-6, float(i),
                               expected=1e-6) == []
        assert mon.state("a") == "healthy"
        # A duration *above* the floor against a tiny expectation is
        # the limplock signature and must still count.
        trans = mon.observe("a", "k", 5e-3, 10.0, expected=1e-6)
        assert trans and trans[0][2] == "suspect"

    def test_learned_expectation_excludes_flagged(self):
        mon = HealthMonitor(["a", "b"], policy=self.POL)
        mon.observe("a", "k", 1.0, 0.0)  # learns mean = 1.0
        assert mon.expected("k") == pytest.approx(1.0)
        self._observe_n(mon, "b", 50.0, 2, t0=1.0)  # b -> degraded
        assert mon.state("b") == "degraded"
        before = mon.expected("k")
        mon.observe("b", "k", 100.0, 5.0)  # rank>0: must not learn
        assert mon.expected("k") == pytest.approx(before)

    def test_hedge_after(self):
        mon = HealthMonitor(["a"])  # hedge off by default
        assert mon.hedge_after("k") is None
        pol = HealthPolicy(hedge=True, hedge_ratio=3.0, hedge_min_s=0.5)
        mon = HealthMonitor(["a"], policy=pol)
        assert mon.hedge_after("k") == pytest.approx(0.5)  # no basis
        mon.observe("a", "k", 1.0, 0.0)
        assert mon.hedge_after("k") == pytest.approx(3.0)
        mon.observe("a", "tiny", 0.01, 1.0)
        assert mon.hedge_after("tiny") == pytest.approx(0.5)  # floored

    def test_rank_table_covers_all_states(self):
        assert set(HEALTH_RANK) == set(HEALTH_STATES)


# ----------------------------------------------------------------------
# machine simulator integration
# ----------------------------------------------------------------------
class TestMachineSimHealth:
    def _run(self, dag, *, faults=None, health=None):
        return simulate(dag, MACHINE, get_policy("native"),
                        faults=faults, health=health)

    def _limp(self, horizon, factor=50.0, seed=0):
        return FaultModel(
            [FaultSpec("limplock", time=0.1 * horizon, resource=0,
                       factor=factor)], seed=seed)

    def _health(self, horizon, hedge):
        return HealthPolicy(
            min_samples=3, quarantine_ratio=3.0, quarantine_s=0.6 * horizon,
            hedge=hedge, hedge_ratio=3.0)

    def test_monitoring_off_identity(self, gsym):
        dag = _native_dag(gsym)
        plain = self._run(dag)
        rerun = self._run(dag)
        assert rerun.trace.fingerprint() == plain.trace.fingerprint()
        armed = self._run(dag, health=HealthPolicy())
        # No faults: every observation matches the model exactly, so
        # monitoring may add its meta stamp but must not perturb the
        # schedule in any way.
        assert armed.makespan == plain.makespan
        assert [(e.task, e.resource, e.start, e.end)
                for e in armed.trace.sorted_events()] == \
            [(e.task, e.resource, e.start, e.end)
             for e in plain.trace.sorted_events()]
        assert armed.n_health_transitions == 0
        assert not armed.trace.health_events
        assert plain.trace.meta.get("health") is None

    def test_limplock_detected_and_quarantined(self, gsym):
        dag = _native_dag(gsym)
        mk = self._run(dag).makespan
        r = self._run(dag, faults=self._limp(mk),
                      health=self._health(mk, hedge=False))
        assert r.n_health_transitions > 0
        chain = [(e.src, e.dst) for e in r.trace.sorted_health_events()
                 if e.resource == "cpu0"]
        assert ("degraded", "quarantined") in chain
        for edge in chain:
            assert edge in LEGAL_TRANSITIONS
        # All tasks still complete, once each.
        assert sorted(e.task for e in r.trace.events) == \
            list(range(dag.n_tasks))

    def test_limplock_trace_passes_all_audits(self, gsym):
        dag = _native_dag(gsym)
        mk = self._run(dag).makespan
        r = self._run(dag, faults=self._limp(mk),
                      health=self._health(mk, hedge=True))
        for rep in (verify_health(r.trace),
                    verify_resilience(r.trace),
                    verify_schedule(dag, r.trace)):
            assert rep.ok, rep.format()

    def test_hedging_reduces_makespan(self, gsym):
        dag = _native_dag(gsym)
        mk = self._run(dag).makespan
        off = self._run(dag, faults=self._limp(mk),
                        health=self._health(mk, hedge=False))
        on = self._run(dag, faults=self._limp(mk),
                       health=self._health(mk, hedge=True))
        assert on.n_hedges > 0
        assert on.makespan < off.makespan
        kinds = {e.kind for e in on.trace.hedge_events}
        assert kinds == {"launch", "win", "cancel"}

    def test_health_armed_replay_identity(self, gsym):
        dag = _native_dag(gsym)
        mk = self._run(dag).makespan

        def armed():
            return self._run(dag, faults=self._limp(mk),
                             health=self._health(mk, hedge=True))

        a, b = armed(), armed()
        assert a.makespan == b.makespan
        assert a.trace.fingerprint() == b.trace.fingerprint()


# ----------------------------------------------------------------------
# distributed simulator integration
# ----------------------------------------------------------------------
class TestDistributedHealth:
    def _run(self, sym, nodes=3, **kw):
        owner = map_cblks(sym, nodes)
        cluster = ClusterSpec(n_nodes=nodes, cores_per_node=2)
        return simulate_distributed(sym, owner, cluster,
                                    collect_trace=True, **kw)

    def test_monitoring_off_identity(self, gsym):
        plain = self._run(gsym)
        rerun = self._run(gsym)
        assert rerun.trace.fingerprint() == plain.trace.fingerprint()
        armed = self._run(gsym, health=HealthPolicy())
        assert armed.makespan == plain.makespan
        assert [(e.task, e.resource, e.start, e.end)
                for e in armed.trace.sorted_events()] == \
            [(e.task, e.resource, e.start, e.end)
             for e in plain.trace.sorted_events()]
        assert armed.n_health_transitions == 0

    def test_limplock_node_degrades_not_quarantined(self, gsym):
        clean = self._run(gsym)
        faults = FaultModel(
            [FaultSpec("limplock", time=0.1 * clean.makespan, resource=0,
                       factor=40.0)], seed=3)
        r = self._run(gsym, faults=faults,
                      health=HealthPolicy(min_samples=3))
        assert r.n_health_transitions > 0
        states = {e.dst for e in r.trace.sorted_health_events()}
        # Owner-bound tasks: quarantine is forced off for the
        # distributed engine — degradation caps at backpressure.
        assert "quarantined" not in states
        assert "degraded" in states or "suspect" in states
        rep = verify_health(r.trace)
        assert rep.ok, rep.format()

    def test_limplock_completes_and_audits_clean(self, gsym):
        clean = self._run(gsym)
        faults = FaultModel(
            [FaultSpec("limplock", time=0.1 * clean.makespan, resource=0,
                       factor=40.0)], seed=3)
        r = self._run(gsym, faults=faults,
                      health=HealthPolicy(min_samples=3))
        assert r.makespan >= clean.makespan
        rep = verify_resilience(r.trace)
        assert rep.ok, rep.format()


# ----------------------------------------------------------------------
# jittered recovery backoff (satellite)
# ----------------------------------------------------------------------
class TestBackoffJitter:
    def test_zero_jitter_is_deterministic(self):
        pol = RecoveryPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert pol.backoff(0) == pytest.approx(0.1)
        assert pol.backoff(1) == pytest.approx(0.2)
        assert pol.backoff(2) == pytest.approx(0.4)
        # u is ignored when jitter is off.
        assert pol.backoff(1, 0.123) == pytest.approx(0.2)

    def test_jitter_requires_draw(self):
        pol = RecoveryPolicy(backoff_s=0.1, jitter=1.0)
        with pytest.raises(ValueError):
            pol.backoff(0)

    def test_full_jitter_spans_zero_to_base(self):
        pol = RecoveryPolicy(backoff_s=0.1, backoff_factor=2.0,
                             jitter=1.0)
        base = 0.4  # attempt 2
        assert pol.backoff(2, 0.0) == pytest.approx(0.0)
        assert pol.backoff(2, 1.0) == pytest.approx(base)
        assert pol.backoff(2, 0.5) == pytest.approx(0.5 * base)

    def test_partial_jitter_keeps_floor(self):
        pol = RecoveryPolicy(backoff_s=0.1, backoff_factor=2.0,
                             jitter=0.5)
        base = 0.4
        assert pol.backoff(2, 0.0) == pytest.approx(0.5 * base)
        assert pol.backoff(2, 1.0) == pytest.approx(base)

    def test_backoff_jitter_draws_are_seeded(self):
        a = FaultModel(seed=5)
        b = FaultModel(seed=5)
        ua = [a.backoff_jitter() for _ in range(4)]
        ub = [b.backoff_jitter() for _ in range(4)]
        assert ua == ub
        assert all(0.0 <= u < 1.0 for u in ua)
        assert a.n_draws == b.n_draws

    def test_jittered_recovery_replays_bit_identically(self, gsym):
        dag = _native_dag(gsym)

        def run():
            faults = FaultModel(
                [FaultSpec("worker-crash", time=0.0, resource=0)],
                seed=11, task_fail_rate=0.02)
            return simulate(
                dag, MACHINE, get_policy("native"), faults=faults,
                recovery=RecoveryPolicy(jitter=1.0))

        a, b = run(), run()
        assert a.makespan == b.makespan
        assert a.trace.fingerprint() == b.trace.fingerprint()

    def test_jitter_desynchronizes_retries(self, gsym):
        """Two policies, same scenario: full jitter must change the
        paid delays vs the synchronized schedule (that is its job)."""
        dag = _native_dag(gsym)

        def run(jitter):
            faults = FaultModel(
                [FaultSpec("worker-crash", time=0.0, resource=0)],
                seed=11, task_fail_rate=0.05)
            return simulate(
                dag, MACHINE, get_policy("native"), faults=faults,
                recovery=RecoveryPolicy(jitter=jitter))

        plain = run(0.0)
        jit = run(1.0)
        d0 = [e.delay_s for e in plain.trace.sorted_recovery_events()
              if e.delay_s > 0.0]
        d1 = [e.delay_s for e in jit.trace.sorted_recovery_events()
              if e.delay_s > 0.0]
        assert d0 and d1
        assert d0 != d1
