"""Couple scatter-map cache, DLᵀ buffer, and fan-in accumulation."""

import numpy as np
import pytest

from repro.core.factor import NumericFactor
from repro.core.factorization import facing_cblks, factorize_sequential
from repro.dag import TaskKind, build_dag
from repro.dag.builder import dag_of_trace
from repro.kernels.cost import index_overhead_flops
from repro.kernels.indexcache import CoupleMapCache, get_couple_cache
from repro.kernels.panel import update_slice
from repro.runtime.scheduling import WorkStealingScheduler
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.symbolic import analyze
from repro.verify import stale_couple_map, verify_couple_cache


def _setup(mat):
    res = analyze(mat)
    return res, mat.permute(res.perm.perm)


class TestCoupleMapCache:
    def test_maps_match_update_slice(self, grid2d_small):
        """Every cached map equals what the uncached kernel derives."""
        res, permuted = _setup(grid2d_small)
        factor = NumericFactor.assemble(res.symbol, permuted, "llt")
        cache = CoupleMapCache(res.symbol)
        sym = res.symbol
        n_checked = 0
        for k in range(sym.n_cblk):
            for t in facing_cblks(sym, k):
                t = int(t)
                cm = cache.lookup(k, t)
                assert cm is not None
                i0, i1, rk = update_slice(factor, k, t)
                assert cm.i0 == i0 and cm.i1 == i1
                assert cm.rk_size == rk.size
                assert np.array_equal(
                    cm.rows_local, np.searchsorted(factor.rows[t], rk[i0:])
                )
                assert np.array_equal(
                    cm.cols_local, rk[i0:i1] - sym.cblk_ptr[t]
                )
                n_checked += 1
        assert n_checked == cache.n_couples > 0

    def test_facing_lists_match_enumeration(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        for k in range(res.symbol.n_cblk):
            assert np.array_equal(
                cache.facing[k], facing_cblks(res.symbol, k)
            )

    def test_source_lists_transpose_the_facing_lists(self, grid2d_small):
        """``sources[t]``: the couples landing in ``t``, ascending in
        their source, each with the map it is cached under — and the
        audit notices a list that went out of order."""
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        seen = 0
        for t, srcs in enumerate(cache.sources):
            ks = [k for k, _ in srcs]
            assert ks == sorted(set(ks))
            for k, cm in srcs:
                assert t in cache.facing[k]
                assert cm is cache.maps[(k, t)]
            seen += len(srcs)
        assert seen == cache.n_couples
        assert verify_couple_cache(res.symbol, cache).ok
        bad = cache.clone()
        t = max(range(len(bad.sources)), key=lambda i: len(bad.sources[i]))
        bad.sources[t].reverse()
        rep = verify_couple_cache(res.symbol, bad)
        assert any(f.code == "N508" for f in rep.errors()), rep.format()
        assert verify_couple_cache(res.symbol, cache).ok   # clone is deep enough

    def test_lookup_counts_and_miss(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        cache = CoupleMapCache(res.symbol)
        k, t = next(iter(sorted(cache.maps)))
        assert cache.lookup(k, t) is not None
        assert cache.lookup(t, k) is None  # couples never point downward
        assert cache.hits == 1 and cache.misses == 1
        stats = cache.stats()
        assert stats["couples"] == cache.n_couples
        assert stats["nbytes"] > 0

    def test_memoized_on_symbol(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        c1 = get_couple_cache(res.symbol)
        c2 = get_couple_cache(res.symbol)
        assert c1 is c2


class TestBitIdenticalFactors:
    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_cached_equals_uncached(self, grid2d_small, factotype):
        res, permuted = _setup(grid2d_small)
        ref = factorize_sequential(
            res.symbol, permuted, factotype, index_cache=False
        )
        cached = factorize_sequential(
            res.symbol, permuted, factotype, index_cache=True
        )
        for a, b in zip(ref.L, cached.L):
            assert np.array_equal(a, b)
        if factotype == "ldlt":
            for a, b in zip(ref.D, cached.D):
                assert np.array_equal(a, b)
        if factotype == "lu":
            for a, b in zip(ref.U, cached.U):
                assert np.array_equal(a, b)

    def test_dl_buffer_equals_recompute(self, grid2d_small):
        res, permuted = _setup(grid2d_small)
        ref = factorize_sequential(
            res.symbol, permuted, "ldlt", dl_buffer=False
        )
        buf = factorize_sequential(
            res.symbol, permuted, "ldlt", dl_buffer=True
        )
        for a, b in zip(ref.L, buf.L):
            assert np.array_equal(a, b)
        for a, b in zip(ref.D, buf.D):
            assert np.array_equal(a, b)

    def test_dl_buffer_ignored_for_llt(self, grid2d_small):
        res, permuted = _setup(grid2d_small)
        f = factorize_sequential(
            res.symbol, permuted, "llt", dl_buffer=True
        )
        assert f.dl_buffer is False and f.DL is None

    def test_cache_reused_across_factorizations(self, grid2d_small):
        """Same symbol, new values: one cache build, hits keep growing."""
        res, permuted = _setup(grid2d_small)
        f1 = factorize_sequential(res.symbol, permuted, "llt")
        cache = f1.index_cache
        assert cache is get_couple_cache(res.symbol)
        hits_after_first = cache.hits
        assert hits_after_first >= cache.n_couples

        rescaled = grid2d_small.permute(res.perm.perm)
        rescaled.values[:] = rescaled.values * 2.0
        f2 = factorize_sequential(res.symbol, rescaled, "llt")
        assert f2.index_cache is cache
        assert cache.hits >= 2 * hits_after_first
        for a, b in zip(f1.L, f2.L):
            # Cholesky of 2·A is √2·L — the values really differed.
            assert np.allclose(np.sqrt(2.0) * a, b, atol=1e-10)


class TestFanInAccumulation:
    @pytest.mark.parametrize("scheduler", ["fifo", "ws", "priority",
                                           "affinity"])
    def test_matches_sequential(self, grid2d_medium, scheduler):
        res, permuted = _setup(grid2d_medium)
        ref = factorize_sequential(res.symbol, permuted, "llt")
        par = factorize_threaded(
            res.symbol, permuted, "llt", n_workers=4,
            scheduler=scheduler, accumulate=True, granularity="2d",
        )
        for a, b in zip(ref.L, par.L):
            assert np.allclose(a, b, atol=1e-10)

    def test_ldlt_with_all_toggles(self, grid2d_medium):
        res, permuted = _setup(grid2d_medium)
        ref = factorize_sequential(res.symbol, permuted, "ldlt")
        par = factorize_threaded(
            res.symbol, permuted, "ldlt", n_workers=4,
            accumulate=True, dl_buffer=True, granularity="2d",
        )
        for a, b in zip(ref.L, par.L):
            assert np.allclose(a, b, atol=1e-10)
        for a, b in zip(ref.D, par.D):
            assert np.allclose(a, b, atol=1e-10)

    def test_trace_meta_stamps(self, grid2d_small):
        res, permuted = _setup(grid2d_small)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=2, trace=trace,
            accumulate=True, granularity="2d",
        )
        assert trace.meta["index_cache"] is True
        assert trace.meta["accumulate"] is True
        assert trace.meta["dl_buffer"] is False
        assert trace.meta["index_cache_stats"]["couples"] > 0
        assert trace.meta["accumulate_stats"]["batches"] >= 0

    def test_trace_is_valid_schedule(self, grid2d_medium):
        """Batched completions must still honour every DAG edge."""
        res, permuted = _setup(grid2d_medium)
        trace = ExecutionTrace()
        factorize_threaded(
            res.symbol, permuted, "llt", n_workers=4, trace=trace,
            accumulate=True, granularity="2d",
        )
        dag = dag_of_trace(res.symbol, "llt", trace)
        trace.validate(
            dag, exclusive_resources=[], check_mutex=False, tol=1e-5
        )


class TestPopSameTarget:
    def _two_same_target_updates(self, symbol):
        dag = build_dag(symbol, "llt", granularity="2d")
        upd = np.flatnonzero(dag.kind == int(TaskKind.UPDATE))
        by_target: dict[int, list[int]] = {}
        for t in upd:
            by_target.setdefault(int(dag.target[t]), []).append(int(t))
        for tgt in sorted(by_target):
            if len(by_target[tgt]) >= 2:
                return dag, tgt, by_target[tgt][:2]
        pytest.skip("symbol has no fan-in target")

    def test_pops_from_own_deque(self, grid2d_medium):
        res, _ = _setup(grid2d_medium)
        dag, tgt, (t1, t2) = self._two_same_target_updates(res.symbol)
        sched = WorkStealingScheduler()
        sched.bind(dag, 2)
        sched.push(t1, 0)
        sched.push(t2, 0)
        first = sched.pop(0)
        assert first in (t1, t2)
        second = sched.pop_same_target(0, tgt)
        assert second == (t2 if first == t1 else t1)
        assert sched.pop_same_target(0, tgt) is None
        assert sched.stats()["batched_pops"] == 1

    def test_steals_from_victim(self, grid2d_medium):
        res, _ = _setup(grid2d_medium)
        dag, tgt, (t1, t2) = self._two_same_target_updates(res.symbol)
        sched = WorkStealingScheduler()
        sched.bind(dag, 2)
        sched.push(t1, 0)
        sched.push(t2, 1)  # same-target update on the other worker
        assert sched.pop(0) == t1
        assert sched.pop_same_target(0, tgt) == t2
        assert sched.pop(1) is None


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
        assert couple in corrupted.maps
        # The pristine cache is untouched by the injection.
        assert verify_couple_cache(res.symbol, cache).ok

    def test_missing_couple_caught(self, grid2d_small):
        res, _ = _setup(grid2d_small)
        corrupted = CoupleMapCache(res.symbol).clone()
        key = next(iter(sorted(corrupted.maps)))
        del corrupted.maps[key]
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
