"""Couple scatter-map cache (the flat plan) and its consumers."""

import numpy as np
import pytest

from repro import cbuild
from repro.core.factor import NumericFactor
from repro.core.factorization import (
    contributing_cblks,
    facing_cblks,
    factorize_sequential,
)
from repro.dag import TaskKind, build_dag
from repro.dag.builder import dag_of_trace
from repro.kernels import native
from repro.kernels.cost import index_overhead_flops
from repro.kernels.indexcache import (
    CoupleMapCache,
    CouplePlanError,
    get_couple_cache,
)
from repro.kernels.panel import panel_factorize, panel_update, update_slice
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse import load_matrix
from repro.sparse.collection import collection_names
from repro.symbolic import analyze
from repro.verify import stale_couple_map, verify_couple_cache
from tests.conftest import backend
from tests.test_analysis_golden import E2E_INPUTS


def _setup(mat):
    res = analyze(mat)
    return res, mat.permute(res.perm.perm)


@pytest.fixture(params=["native", "numpy"])
def checker(request):
    """Which bounds check :meth:`CoupleMapCache.validate` runs:
    ``native.c``'s ``repro_check_plan`` or the NumPy checks (inside
    :func:`repro.cbuild.python_bodies`)."""
    if request.param == "native" and native.availability() is not None:
        pytest.skip("native kernels unavailable")
    with backend(request.param):
        yield request.param


def _reverse_sources(plan):
    """The sources of the target with the most reversed (the corruption
    :meth:`TestCoupleMapCache.test_source_lists_transpose_the_facing_lists`
    makes for the N508 audit)."""
    t = int(np.argmax(np.diff(plan.tgt_ptr)))
    lo, hi = plan.tgt_ptr[t], plan.tgt_ptr[t + 1]
    plan.src[lo:hi] = plan.src[lo:hi][::-1].copy()


def _stretch_facing(plan):
    """One couple's facing slice grown by a row below the target's
    diagonal block: its row map stays right, its column map does not."""
    c = int(np.flatnonzero(plan.i1 < plan.layout.below[plan.src])[0])
    plan.i1[c] += 1


#: Corruptions of a clean plan, each with the check that must name it
#: (the text of its :class:`CouplePlanError`).
CORRUPTIONS = {
    "dtype": (lambda plan: setattr(plan, "src", plan.src.astype(np.int64)),
              "src has the wrong dtype"),
    "length": (lambda plan: setattr(plan, "i0", plan.i0[:-1]),
               "array lengths disagree"),
    "tgt_ptr end": (lambda plan: plan.tgt_ptr.__setitem__(
        -1, plan.tgt_ptr[-1] + 1), "tgt_ptr does not partition"),
    "tgt_ptr decreasing": (lambda plan: plan.tgt_ptr.__setitem__(
        1, plan.tgt_ptr[2] + 1), "tgt_ptr does not partition"),
    "downward": (lambda plan: plan.src.__setitem__(0, plan.tgt[0]),
                 "lower to a higher"),
    "descending": (_reverse_sources, "strictly ascending"),
    "i1 high": (lambda plan: plan.i1.__setitem__(0, 10**6), "tail length"),
    "i0 negative": (lambda plan: plan.i0.__setitem__(0, -1), "tail length"),
    "rl_ptr": (lambda plan: plan.rl_ptr.__setitem__(1, plan.rl_ptr[1] + 1),
               "rl_ptr does not give"),
    "rows_local high": (lambda plan: plan.rows_local.__setitem__(0, 10**6),
                        "rows_local out of"),
    "rows_local negative": (lambda plan: plan.rows_local.__setitem__(0, -1),
                            "rows_local out of"),
    "stale": (lambda plan: plan.rows_local.__setitem__(
        slice(0, 2), plan.rows_local[:2][::-1].copy()), "equal target rows"),
    "facing": (_stretch_facing, "outside the target's diagonal block"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_plan_is_rejected(grid2d_small, checker, name):
    """Each checker names the same first failing check; the plan stays
    unvalidated."""
    corrupt, message = CORRUPTIONS[name]
    symbol = analyze(grid2d_small).symbol
    plan = get_couple_cache(symbol).clone()
    corrupt(plan)
    with pytest.raises(CouplePlanError,
                       match=f"^couple plan rejected: .*{message}"):
        plan.validate()
    assert not plan._valid


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_both_checkers_raise_the_same_message(grid2d_small, name):
    if native.availability() is not None:
        pytest.skip("native kernels unavailable")
    symbol = analyze(grid2d_small).symbol
    messages = []
    for checks in ("native", "numpy"):
        plan = get_couple_cache(symbol).clone()
        CORRUPTIONS[name][0](plan)
        with backend(checks), pytest.raises(CouplePlanError) as info:
            plan.validate()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_both_checkers_size_the_scratch_alike(grid2d_medium):
    if native.availability() is not None:
        pytest.skip("native kernels unavailable")
    plan = CoupleMapCache(analyze(grid2d_medium).symbol)
    plan.validate()
    assert (plan.max_mn, plan.max_nw, plan.max_w) == plan._check_numpy()
    assert plan.max_mn > 0


#: ``CoupleMapCache.nbytes()`` of the dict-of-dataclasses cache the flat
#: plan replaced (commit 01c798e), on the four ``bench_e2e`` symbols.
PARENT_NBYTES = {
    "shell2d_lu": 403336,
    "vol3d_ldlt": 658144,
    "helm3d_zldlt": 1964504,
    "elast3d_llt_seq_rhs16": 2095168,
}


def _assert_plan_matches_symbol(sym):
    """Every plan array against ``update_slice`` / the enumerations."""
    factor = NumericFactor.allocate(sym, "llt")
    cache = CoupleMapCache(sym)
    n_checked = 0
    for k in range(sym.n_cblk):
        targets = facing_cblks(sym, k)
        assert np.array_equal(cache.facing[k], targets)
        for t in targets.tolist():
            i0, i1, rows_local, cols_local, rk_size = cache.lookup(k, t)
            e0, e1, rk = update_slice(factor, k, t)
            assert (i0, i1, rk_size) == (e0, e1, rk.size)
            assert np.array_equal(
                rows_local, np.searchsorted(factor.rows[t], rk[i0:])
            )
            assert np.array_equal(cols_local, rk[i0:i1] - sym.cblk_ptr[t])
            n_checked += 1
    assert n_checked == cache.n_couples
    for t in range(sym.n_cblk):
        expect = contributing_cblks(sym, t).tolist()
        assert cache.source_ids(t) == expect
        assert [k for k, *_ in cache.sources[t]] == expect
        for k, i0, i1, cols_local in cache.sources[t]:
            hit = cache.lookup(k, t)
            assert hit[:2] == (i0, i1)
            assert np.array_equal(cols_local, hit[3])
    # The couples are stored by (target, source); ``by_src`` lists them
    # by (source, target).
    assert np.array_equal(cache.tgt, np.repeat(
        np.arange(sym.n_cblk), np.diff(cache.tgt_ptr)))
    by_src = cache.by_src
    key = cache.src[by_src].astype(np.int64) * sym.n_cblk + cache.tgt[by_src]
    assert np.all(np.diff(key) > 0)
    cache.validate()
    return cache


class TestCoupleMapCache:
    def test_maps_match_update_slice(self, grid2d_small):
        """Every cached map equals what the uncached kernel derives."""
        res, _ = _setup(grid2d_small)
        assert _assert_plan_matches_symbol(res.symbol).n_couples > 0

    @pytest.mark.parametrize("name", collection_names())
    def test_plan_matches_symbol_on_collection(self, name):
        sym = analyze(load_matrix(name, 0.3, 0)).symbol
        _assert_plan_matches_symbol(sym)
        assert verify_couple_cache(sym, get_couple_cache(sym)).ok

    @pytest.mark.parametrize("workload", sorted(PARENT_NBYTES))
    def test_plan_smaller_than_the_maps_it_replaced(self, workload):
        sym = analyze(load_matrix(*E2E_INPUTS[workload], 0)).symbol
        assert 0 < get_couple_cache(sym).nbytes() < PARENT_NBYTES[workload]

    def test_facing_lists_match_enumeration(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        for k in range(res.symbol.n_cblk):
            assert np.array_equal(
                cache.facing[k], facing_cblks(res.symbol, k)
            )

    def test_source_lists_transpose_the_facing_lists(self, grid2d_small):
        """``sources[t]``: the couples landing in ``t``, ascending in
        their source, each with its slice bounds and column map — and
        the audit notices a range that went out of order."""
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        seen = 0
        for t, srcs in enumerate(cache.sources):
            ks = [k for k, *_ in srcs]
            assert ks == sorted(set(ks))
            for k, *_ in srcs:
                assert t in cache.facing[k]
            seen += len(srcs)
        assert seen == cache.n_couples
        assert verify_couple_cache(res.symbol, cache).ok
        bad = cache.clone()
        t = int(np.argmax(np.diff(bad.tgt_ptr)))
        lo, hi = bad.tgt_ptr[t], bad.tgt_ptr[t + 1]
        bad.src[lo:hi] = bad.src[lo:hi][::-1].copy()
        rep = verify_couple_cache(res.symbol, bad)
        assert any(f.code == "N508" for f in rep.errors()), rep.format()
        with pytest.raises(CouplePlanError, match="ascending"):
            bad.validate()
        assert verify_couple_cache(res.symbol, cache).ok   # clone is deep enough

    def test_lookup_counts_and_miss(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        k, t = int(cache.src[0]), int(cache.tgt[0])
        assert cache.lookup(k, t) is not None
        assert cache.lookup(t, k) is None  # couples never point downward
        stats = cache.stats()
        assert stats["couples"] == cache.n_couples
        assert stats["nbytes"] == cache.nbytes() > 0
        assert set(stats) == {"couples", "nbytes", "build_s"}

    def test_memoized_on_symbol(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        c1 = get_couple_cache(res.symbol)
        c2 = get_couple_cache(res.symbol)
        assert c1 is c2


class TestBitIdenticalFactors:
    """Statements about the NumPy kernels (:func:`repro.cbuild.python_bodies`
    on the side that would otherwise run the native backend)."""

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_cached_equals_uncached(self, grid2d_small, factotype):
        """A factor built without a plan takes the kernels' uncached
        fallback and must land on the same bits."""
        res, permuted = _setup(grid2d_small)
        ref = NumericFactor.assemble(res.symbol, permuted, factotype)
        assert ref.index_cache is None
        for k in range(res.symbol.n_cblk):
            panel_factorize(ref, k)
            for t in facing_cblks(res.symbol, k).tolist():
                panel_update(ref, k, t)
        with cbuild.python_bodies():
            cached = factorize_sequential(res.symbol, permuted, factotype)
        assert cached.index_cache is get_couple_cache(res.symbol)
        for a, b in zip(ref.L, cached.L):
            assert np.array_equal(a, b)
        if factotype == "ldlt":
            for a, b in zip(ref.D, cached.D):
                assert np.array_equal(a, b)
        if factotype == "lu":
            for a, b in zip(ref.U, cached.U):
                assert np.array_equal(a, b)

    def test_cache_reused_across_factorizations(self, grid2d_small):
        """Same symbol, new values: one plan, built once."""
        res, permuted = _setup(grid2d_small)
        f1 = factorize_sequential(res.symbol, permuted, "llt")
        cache = f1.index_cache
        assert cache is get_couple_cache(res.symbol)

        rescaled = grid2d_small.permute(res.perm.perm)
        rescaled.values[:] = rescaled.values * 2.0
        f2 = factorize_sequential(res.symbol, rescaled, "llt")
        assert f2.index_cache is cache
        for a, b in zip(f1.L, f2.L):
            # Cholesky of 2·A is √2·L — the values really differed.
            assert np.allclose(np.sqrt(2.0) * a, b, atol=1e-10)


class TestThreadedPlan:
    """The pool attaches the memoised plan and stamps its counters."""

    @pytest.mark.parametrize("scheduler", ["ws", "priority"])
    def test_matches_sequential(self, grid2d_medium, no_unit_floor,
                                scheduler):
        res, permuted = _setup(grid2d_medium)
        ref = factorize_sequential(res.symbol, permuted, "llt")
        par = factorize_threaded(
            res.symbol, permuted, "llt", n_workers=4, scheduler=scheduler,
        )
        assert par.index_cache is ref.index_cache
        for a, b in zip(ref.L, par.L):
            assert np.array_equal(a, b)

    def test_trace_meta_stamps(self, grid2d_small):
        res, permuted = _setup(grid2d_small)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=2, trace=trace,
        )
        assert trace.meta["granularity"] == "unit"
        assert trace.meta["index_cache_stats"]["couples"] > 0
        for gone in ("index_cache", "accumulate", "dl_buffer",
                     "split_rows", "accumulate_stats"):
            assert gone not in trace.meta

    def test_trace_is_valid_schedule(self, grid2d_medium, no_unit_floor):
        res, permuted = _setup(grid2d_medium)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=4, trace=trace,
        )
        dag = dag_of_trace(res.symbol, "llt", trace)
        assert dag.n_tasks > 1
        trace.validate(dag)


class TestVerifyAudit:
    def test_fresh_cache_passes(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        report = verify_couple_cache(res.symbol, cache)
        assert report.ok, report.format()
        assert report.stats["map_mismatches"] == 0

    def test_stale_map_caught(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        corrupted, couple = stale_couple_map(cache)
        report = verify_couple_cache(res.symbol, corrupted)
        assert not report.ok
        assert any(f.code == "N507" for f in report.errors())
        assert corrupted.lookup(*couple) is not None
        # The pristine cache is untouched by the injection.
        assert verify_couple_cache(res.symbol, cache).ok

    def test_missing_couple_caught(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        corrupted = CoupleMapCache(res.symbol).clone()
        # Re-source one couple to a panel that does not face its target:
        # the true couple goes missing and a phantom one appears.
        c = next(c for c in range(corrupted.n_couples)
                 if corrupted.lookup(0, int(corrupted.tgt[c])) is None
                 and corrupted.tgt[c] > 0)
        corrupted.src[c] = 0
        report = verify_couple_cache(res.symbol, corrupted)
        assert not report.ok
        assert any(f.code == "N508" for f in report.errors())


class TestIndexOverheadModel:
    def test_only_updates_charged(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        dag = build_dag(res.symbol, "llt", granularity="2d")
        out = index_overhead_flops(dag)
        assert out.shape == (dag.n_tasks,)
        upd = dag.kind == int(TaskKind.UPDATE)
        assert np.all(out[~upd] == 0.0)
        assert np.all(out[upd] > 0.0)
        assert np.all(np.isfinite(out))
        # Purely symbolic: identical on every call.
        assert np.array_equal(out, index_overhead_flops(dag))
