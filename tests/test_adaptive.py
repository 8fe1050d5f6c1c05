"""Adaptive scheduler: history model, cold-start identity, determinism,
A9xx provenance audit, and the RV405 lint regression."""

import json

import numpy as np
import pytest

from repro.dag import dag_of_trace
from repro.resilience.health import bucket_key
from repro.runtime.adaptive import MODEL_VERSION, AdaptiveScheduler, PerfHistory
from repro.runtime.scheduling import THREAD_SCHEDULERS, get_thread_scheduler
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.symbolic import analyze
from repro.verify import skew_model_stamp, verify_adaptive


def _setup(mat, factotype="llt"):
    res = analyze(mat)
    permuted = mat.permute(res.perm.perm)
    return res, permuted


def _run(res, permuted, scheduler, n_workers=2, record_sync=False):
    """One traced pool run; the tests that rank a real unit tree drop
    the unit flop floor (``no_unit_floor``)."""
    trace = ExecutionTrace()
    factor = factorize_threaded(
        res.symbol, permuted, "llt", n_workers=n_workers, trace=trace,
        scheduler=scheduler, record_sync=record_sync,
    )
    return trace, factor


# ----------------------------------------------------------------------
# Shared bucketing (the key-format pin: health EWMA and PerfHistory must
# never drift apart).
# ----------------------------------------------------------------------
def test_bucket_key_format_pin():
    assert bucket_key(3, 1024.0) == "3:10"
    assert bucket_key(2, 0.0) == "2:0"  # log2 floor clamps at 1 flop
    assert bucket_key(1, 1.5) == "1:0"
    assert bucket_key(0, 2.0**20 + 5.0) == "0:20"


def test_bucket_key_single_source():
    """Every measured-duration consumer aliases the one shared helper."""
    import repro.machine.simulator as simulator
    import repro.resilience.health as health
    import repro.runtime.adaptive as adaptive
    import repro.runtime.threaded as threaded

    assert threaded.bucket_key is health.bucket_key
    assert simulator.bucket_key is health.bucket_key
    assert adaptive.bucket_key is health.bucket_key


# ----------------------------------------------------------------------
# PerfHistory: prediction fallbacks, persistence.
# ----------------------------------------------------------------------
def test_perf_history_observe_and_predict():
    h = PerfHistory()
    assert not h.has_samples()
    assert h.predict(0, 1e6) == 0.0

    key = bucket_key(0, 2.0**20)
    h.observe(key, 2.0**20, 0.5)
    h.observe(key, 2.0**20, 0.5)
    assert h.has_samples()
    assert h.rate(key) == pytest.approx(2.0**21)
    # Exact bucket.
    assert h.predict(0, 2.0**20) == pytest.approx(0.5)
    # Nearest same-kernel bucket (no exact sample at 2**10).
    assert h.predict(0, 2.0**10) == pytest.approx(2.0**10 / 2.0**21)
    # Different kernel falls back to the global rate.
    assert h.predict(1, 2.0**20) == pytest.approx(0.5)
    # Non-positive durations are rejected, not folded.
    h.observe(key, 2.0**20, 0.0)
    assert h.rate(key) == pytest.approx(2.0**21)


def test_perf_history_json_roundtrip():
    h = PerfHistory()
    h.observe("0:10", 1024.0, 0.25)
    text = h.to_json()
    h2 = PerfHistory.from_json(text)
    assert h2.rate("0:10") == pytest.approx(h.rate("0:10"))
    assert h2.global_rate() == pytest.approx(h.global_rate())
    assert h2.to_json() == text  # byte-stable round trip

    bad = json.loads(text)
    bad["model_version"] = MODEL_VERSION + 1
    with pytest.raises(ValueError, match="model_version"):
        PerfHistory.from_json(json.dumps(bad))


# ----------------------------------------------------------------------
# Cold start: bit-identical to the static priority scheduler.
# ----------------------------------------------------------------------
def test_cold_start_identical_to_priority(grid2d_small, no_unit_floor):
    res, permuted = _setup(grid2d_small)
    t_prio, f_prio = _run(res, permuted, get_thread_scheduler("priority"),
                          n_workers=1)
    t_cold, f_cold = _run(res, permuted, AdaptiveScheduler(), n_workers=1)
    # Same execution order...
    order_p = [e.task for e in t_prio.sorted_events()]
    order_c = [e.task for e in t_cold.sorted_events()]
    assert order_p == order_c
    # ...and bit-identical factors.
    for a, b in zip(f_prio.L, f_cold.L):
        assert np.array_equal(a, b)
    assert t_cold.meta["adaptive"]["cold_start"] is True


# ----------------------------------------------------------------------
# Same-seed determinism: identical fingerprints, cold and warm.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("record_sync", [False, True])
def test_same_seed_fingerprint_identity(grid2d_small, no_unit_floor,
                                        n_workers, record_sync):
    """Sync instrumentation (wall-clock events) must not leak into the
    stamp or the fingerprint either."""
    res, permuted = _setup(grid2d_small)
    h1, h2 = PerfHistory(), PerfHistory()

    # Cold pair: two identically-configured runs must stamp and
    # fingerprint identically.
    ta, _ = _run(res, permuted, AdaptiveScheduler(history=h1),
                 n_workers=n_workers, record_sync=record_sync)
    tb, _ = _run(res, permuted, AdaptiveScheduler(history=h2),
                 n_workers=n_workers, record_sync=record_sync)
    assert ta.meta["adaptive"] == tb.meta["adaptive"]
    assert ta.fingerprint() == tb.fingerprint()

    # Warm pair: the histories now hold measured (host-dependent)
    # durations, but the stamp is a function of the task set alone, so
    # the fingerprints must still match.
    tc, _ = _run(res, permuted, AdaptiveScheduler(history=h1),
                 n_workers=n_workers, record_sync=record_sync)
    td, _ = _run(res, permuted, AdaptiveScheduler(history=h2),
                 n_workers=n_workers, record_sync=record_sync)
    assert tc.meta["adaptive"]["cold_start"] is False
    assert tc.meta["adaptive"] == td.meta["adaptive"]
    assert tc.fingerprint() == td.fingerprint()
    # Cold and warm runs differ in the stamp (provenance is part of the
    # trace identity).
    assert ta.fingerprint() != tc.fingerprint()


# ----------------------------------------------------------------------
# A9xx: stamped provenance audited against the trace.
# ----------------------------------------------------------------------
def test_verify_adaptive_clean_and_skewed(grid2d_small, no_unit_floor):
    res, permuted = _setup(grid2d_small)
    sched = AdaptiveScheduler()
    trace, _ = _run(res, permuted, sched, n_workers=2)
    dag = dag_of_trace(res.symbol, "llt", trace)
    assert dag.n_tasks > 1

    stamp = trace.meta["adaptive"]
    assert stamp["model_version"] == MODEL_VERSION
    assert stamp["observed"] == len(trace.events)
    assert sum(stamp["buckets"].values()) == stamp["observed"]

    rep = verify_adaptive(dag, trace)
    assert rep.ok, rep.format()

    forged = skew_model_stamp(trace)
    bad = verify_adaptive(dag, forged)
    assert not bad.ok
    codes = {f.code for f in bad.findings}
    assert "A902" in codes  # bucket sum no longer matches observed
    assert "A904" in codes  # bucket drift vs rebuilt counts


def test_verify_adaptive_provenance_mismatch(grid2d_small, no_unit_floor):
    res, permuted = _setup(grid2d_small)
    # A priority-produced trace must not carry an adaptive stamp.
    trace, _ = _run(res, permuted, get_thread_scheduler("priority"))
    dag = dag_of_trace(res.symbol, "llt", trace)
    assert "adaptive" not in trace.meta
    trace.meta["adaptive"] = {"model_version": 1, "cold_start": True,
                              "seeded": 0, "keys_at_bind": 0,
                              "observed": 0, "buckets": {}}
    rep = verify_adaptive(dag, trace)
    assert not rep.ok
    assert {f.code for f in rep.findings} == {"A901"}

    # And a trace with no task events cannot have been skewed.
    with pytest.raises(ValueError, match="no adaptive model stamp"):
        skew_model_stamp(ExecutionTrace())


# ----------------------------------------------------------------------
# Registry and warm ranking.
# ----------------------------------------------------------------------
def test_adaptive_registered():
    assert "adaptive" in THREAD_SCHEDULERS
    assert isinstance(get_thread_scheduler("adaptive"), AdaptiveScheduler)


def test_warm_ranking_still_valid_schedule(grid2d_medium, no_unit_floor):
    """A genuinely warm (measured, non-uniform) model must still yield a
    dependency-respecting schedule and the sequential factor."""
    from repro.core.factorization import factorize_sequential

    res, permuted = _setup(grid2d_medium)
    ref = factorize_sequential(res.symbol, permuted, "llt")
    hist = PerfHistory()
    _run(res, permuted, AdaptiveScheduler(history=hist), n_workers=4)
    trace, factor = _run(res, permuted, AdaptiveScheduler(history=hist),
                         n_workers=4)
    assert trace.meta["adaptive"]["cold_start"] is False
    dag = dag_of_trace(res.symbol, "llt", trace)
    assert dag.n_tasks > 1
    trace.validate(dag, exclusive_resources=[], check_mutex=False,
                   tol=1e-5)
    for a, b in zip(ref.L, factor.L):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# RV405: the lint regression for the unguarded has_work() bug.
# ----------------------------------------------------------------------
_RACY_HAS_WORK = '''
import heapq, threading

class S:
    def __init__(self):
        self._lock = threading.Lock()
        self._heap = []

    def push(self, t, w):
        with self._lock:
            heapq.heappush(self._heap, t)
        return 0

    def has_work(self):
        return bool(self._heap)
'''


def test_rv405_flags_unguarded_has_work():
    from repro.verify import lockdiscipline_sources

    findings = lockdiscipline_sources({"s.py": _RACY_HAS_WORK})
    assert [(f.code, f.line) for f in findings] == [("RV405", 15)]
    assert "self._heap" in findings[0].message

    fixed = _RACY_HAS_WORK.replace(
        "    def has_work(self):\n        return bool(self._heap)\n",
        "    def has_work(self):\n"
        "        with self._lock:\n"
        "            return bool(self._heap)\n",
    )
    assert lockdiscipline_sources({"s.py": fixed}) == []


def test_rv405_default_scope_clean():
    from repro.verify import lockdiscipline_paths

    assert [f for f in lockdiscipline_paths()
            if f.code == "RV405"] == []
