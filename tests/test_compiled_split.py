"""Compiled-kernel backend and tall-panel 2D row splitting.

Covers the ``kernels="numpy"|"compiled"`` toggle end to end (selection,
graceful degradation without numba, trace stamping, tolerance vs. the
numpy reference, bit-identity of the numpy path), the 2D row-block
splitter (``rowblock_bounds`` / ``plan_update_rowblocks`` / split DAG
structure and its exact flop tiling), the auditors that police split
DAGs (H110 hazards, N509 symbolic costs, the ``stale_split`` injector),
and the measured-rate blocking advisor (``PerfHistory`` bucket seeding +
``suggest_blocking``).

The jit kernels re-associate the update reduction, so compiled results
are held to a pinned ``allclose`` bound; everything the fallback routes
through plain numpy is held to bit equality.  Tests that only make
sense on one side of the numba divide carry skip markers.
"""

import json

import numpy as np
import pytest

from repro.core.factorization import factorize_sequential
from repro.core.options import SolverOptions
from repro.dag import build_dag
from repro.kernels.compiled import (
    HAVE_NUMBA,
    fused_gemm_scatter,
    gather_assign,
    merge_add,
    resolve_kernels,
)
from repro.kernels.cost import flops_update, flops_update_part
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.generators import grid_laplacian_2d
from repro.symbolic import SymbolicOptions, analyze
from repro.symbolic.splitting import plan_update_rowblocks, rowblock_bounds
from repro.verify.hazards import analyze_hazards
from repro.verify.symbols import stale_split, verify_dag_costs

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba not installed (the [compiled] extra)"
)
without_numba = pytest.mark.skipif(
    HAVE_NUMBA, reason="degradation contract only observable sans numba"
)

#: Pinned roundoff bound for compiled-vs-numpy factors: the fused jit
#: kernel re-associates each GEMM reduction but performs the same
#: number of multiply-adds, so the deviation stays at roundoff scale.
RTOL, ATOL = 1e-9, 1e-12


def _setup(mat, *, split_max_width=16):
    res = analyze(mat, SymbolicOptions(split_max_width=split_max_width))
    return res, mat.permute(res.perm.perm)


def _assert_factors_close(ref, got, *, exact):
    for k in range(ref.n_cblk):
        if exact:
            assert np.array_equal(ref.L[k], got.L[k]), f"panel {k}"
        else:
            assert np.allclose(ref.L[k], got.L[k], rtol=RTOL, atol=ATOL), (
                f"panel {k}: max dev "
                f"{np.max(np.abs(ref.L[k] - got.L[k])):.3e}"
            )
    if ref.D is not None:
        for k in range(ref.n_cblk):
            if exact:
                assert np.array_equal(ref.D[k], got.D[k])
            else:
                assert np.allclose(ref.D[k], got.D[k],
                                   rtol=RTOL, atol=ATOL)
    if getattr(ref, "U", None) is not None:
        for k in range(ref.n_cblk):
            if exact:
                assert np.array_equal(ref.U[k], got.U[k])
            else:
                assert np.allclose(ref.U[k], got.U[k],
                                   rtol=RTOL, atol=ATOL)


# ----------------------------------------------------------------------
# Backend selection and graceful degradation.
# ----------------------------------------------------------------------
def test_resolve_kernels():
    assert resolve_kernels("numpy") == "numpy"
    expected = "compiled" if HAVE_NUMBA else "numpy"
    assert resolve_kernels("compiled") == expected
    with pytest.raises(ValueError):
        resolve_kernels("fortran")


def test_solver_options_validate_kernels():
    assert SolverOptions(kernels="compiled").kernels == "compiled"
    with pytest.raises(ValueError):
        SolverOptions(kernels="cuda")


def test_trace_meta_stamps(grid2d_small):
    res, permuted = _setup(grid2d_small)
    trace = ExecutionTrace()
    factorize_threaded(
        res.symbol, permuted, "llt", n_workers=2, trace=trace,
        kernels="compiled", split_rows=8, granularity="2d",
    )
    assert trace.meta["kernels"] == resolve_kernels("compiled")
    assert trace.meta["kernels_requested"] == "compiled"
    assert trace.meta["split_rows"] == 8
    assert trace.meta["granularity"] == "2d"


def test_trace_meta_default_backend(grid2d_small):
    from repro.kernels.native import resolve_kernels as resolve_default

    res, permuted = _setup(grid2d_small)
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, permuted, "llt", n_workers=2,
                       trace=trace)
    assert trace.meta["kernels_requested"] == "native"
    assert trace.meta["kernels"] == resolve_default("native")


def test_trace_meta_numpy_default(grid2d_small):
    res, permuted = _setup(grid2d_small)
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, permuted, "llt", n_workers=2,
                       trace=trace, kernels="numpy")
    assert trace.meta["kernels"] == "numpy"
    assert "split_rows" not in trace.meta
    assert trace.meta["granularity"] == "unit"


@without_numba
def test_sequential_compiled_degrades_bit_identically(grid2d_small):
    """Without numba, kernels="compiled" must be byte-equal to numpy."""
    res, permuted = _setup(grid2d_small)
    ref = factorize_sequential(res.symbol, permuted, "llt", kernels="numpy")
    deg = factorize_sequential(res.symbol, permuted, "llt",
                               kernels="compiled")
    assert deg.kernels == "numpy"
    _assert_factors_close(ref, deg, exact=True)


def test_numpy_kernels_bit_identical_threaded(grid2d_small):
    """kernels="numpy" is the bit-identity reference: a single-worker
    run (deterministic task order) must be byte-equal to the default
    path, with and without the 2D split (couple path: the split is
    defined on it, and its single-worker update order is its own)."""
    res, permuted = _setup(grid2d_small)
    ref = factorize_threaded(res.symbol, permuted, "llt", n_workers=1,
                             granularity="2d")
    for split in (None, 8):
        got = factorize_threaded(
            res.symbol, permuted, "llt", n_workers=1,
            kernels="numpy", split_rows=split, granularity="2d",
        )
        _assert_factors_close(ref, got, exact=True)


# ----------------------------------------------------------------------
# Compiled-vs-numpy tolerance across the matrix of configurations.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
@pytest.mark.parametrize("scheduler", ["ws", "priority"])
@pytest.mark.parametrize("accumulate", [False, True])
def test_compiled_matches_numpy(grid2d_medium, factotype, scheduler,
                                accumulate):
    res, permuted = _setup(grid2d_medium)
    ref = factorize_sequential(res.symbol, permuted, factotype)
    got = factorize_threaded(
        res.symbol, permuted, factotype, n_workers=4,
        scheduler=scheduler, accumulate=accumulate,
        kernels="compiled", split_rows=12, granularity="2d",
    )
    # Without numba the fallback is exact numpy; the threaded update
    # order still commutes (disjoint scatters under the target mutex),
    # so only the jit path needs the roundoff allowance.
    _assert_factors_close(ref, got, exact=False)


@needs_numba
def test_jit_backend_really_selected(grid2d_small):
    res, permuted = _setup(grid2d_small)
    seq = factorize_sequential(res.symbol, permuted, "llt",
                               kernels="compiled")
    assert seq.kernels == "compiled"


# ----------------------------------------------------------------------
# The jit kernels' numpy twins (unit level).
# ----------------------------------------------------------------------
def test_fused_gemm_scatter_matches_reference():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal((5, 6))
    rows = np.sort(rng.choice(40, size=20, replace=False)).astype(np.int64)
    cols = np.arange(5, dtype=np.int64)
    out = rng.standard_normal((40, 5))
    expect = out.copy()
    expect[np.ix_(rows, cols)] -= a @ b.T
    fused_gemm_scatter(a, b, out, rows, cols)
    assert np.allclose(out, expect, rtol=RTOL, atol=ATOL)
    if not HAVE_NUMBA:
        assert np.array_equal(out, expect)


def test_merge_and_gather_bit_identical():
    rng = np.random.default_rng(1)
    acc = np.zeros((30, 4))
    rows = np.sort(rng.choice(30, size=12, replace=False)).astype(np.int64)
    cols = np.arange(4, dtype=np.int64)
    contrib = rng.standard_normal((12, 4))
    expect = acc.copy()
    expect[np.ix_(rows, cols)] += contrib
    merge_add(acc, rows, cols, contrib)
    assert np.array_equal(acc, expect)

    panel = np.zeros((30, 4))
    vals = rng.standard_normal(12)
    cloc = np.zeros(12, dtype=np.int64)
    expect = panel.copy()
    expect[rows, cloc] = vals
    gather_assign(panel, rows, cloc, vals)
    assert np.array_equal(panel, expect)


# ----------------------------------------------------------------------
# Row-block tiling and the split DAG.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m,max_rows", [(1, 1), (7, 3), (100, 100),
                                        (100, 99), (257, 64), (5, 100)])
def test_rowblock_bounds_tile_exactly(m, max_rows):
    bounds = rowblock_bounds(m, max_rows)
    assert bounds[0][0] == 0 and bounds[-1][1] == m
    for (lo, hi), (lo2, _hi2) in zip(bounds, bounds[1:]):
        assert hi == lo2
    sizes = [hi - lo for lo, hi in bounds]
    assert all(0 < s <= max_rows for s in sizes)
    # Near-equal: sizes differ by at most one row.
    assert max(sizes) - min(sizes) <= 1


def test_rowblock_bounds_edge_cases():
    assert rowblock_bounds(0, 8) == []
    with pytest.raises(ValueError):
        rowblock_bounds(10, 0)


def test_plan_update_rowblocks_covers_every_couple(grid2d_medium):
    from repro.dag.builder import update_couples

    res, _ = _setup(grid2d_medium)
    src, tgt, ms, _ns = update_couples(res.symbol)
    plan = plan_update_rowblocks(res.symbol, max_rows=8)
    assert len(plan) == src.size
    for i in range(src.size):
        parts = plan[(int(src[i]), int(tgt[i]))]
        assert parts[0][0] == 0 and parts[-1][1] == int(ms[i])


@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
@pytest.mark.parametrize("recompute_ld", [False, True])
def test_split_dag_structure_and_flop_tiling(grid2d_medium, factotype,
                                             recompute_ld):
    from repro.dag.builder import update_couples

    res, _ = _setup(grid2d_medium)
    plain = build_dag(res.symbol, factotype, granularity="2d",
                      recompute_ld=recompute_ld)
    split = build_dag(res.symbol, factotype, granularity="2d",
                      recompute_ld=recompute_ld, split_rows=8)
    split.validate()
    assert split.split_rows == 8
    assert split.n_tasks > plain.n_tasks
    # Parts sum exactly to the unsplit couple's flops, for every couple.
    src, tgt, ms, ns = update_couples(res.symbol)
    widths = {int(s): res.symbol.cblk_width(int(s)) for s in src}
    totals: dict[tuple[int, int], float] = {}
    for t in range(split.n_tasks):
        lo = int(split.row_lo[t])
        if lo < 0:
            continue
        key = (int(split.cblk[t]), int(split.target[t]))
        totals[key] = totals.get(key, 0.0) + float(split.flops[t])
    for i in range(src.size):
        key = (int(src[i]), int(tgt[i]))
        # Real-dtype problem: complex multiplier is 1.
        expect = flops_update(
            int(ms[i]), int(ns[i]), widths[int(src[i])], factotype,
            recompute_ld=recompute_ld,
        )
        assert totals[key] == pytest.approx(expect, rel=1e-12), key
    assert split.flops.sum() == pytest.approx(plain.flops.sum(),
                                              rel=1e-12)


def test_flops_update_part_partition_identity():
    for factotype in ("llt", "ldlt", "lu"):
        for recompute_ld in (False, True):
            m, n, w = 37, 9, 5
            whole = flops_update(m, n, w, factotype,
                                 recompute_ld=recompute_ld)
            parts = sum(
                flops_update_part(m, n, w, factotype, lo, hi,
                                  recompute_ld=recompute_ld)
                for lo, hi in rowblock_bounds(m, 4)
            )
            assert parts == pytest.approx(whole, rel=1e-12)


def test_split_requires_plain_2d(grid2d_small):
    res, _ = _setup(grid2d_small)
    with pytest.raises(ValueError):
        build_dag(res.symbol, "llt", granularity="1d", split_rows=8)


# ----------------------------------------------------------------------
# Auditors on split DAGs: clean passes and seeded corruption.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
def test_auditors_clean_on_split_dag(grid2d_medium, factotype):
    res, _ = _setup(grid2d_medium)
    dag = build_dag(res.symbol, factotype, granularity="2d", split_rows=8)
    rep = verify_dag_costs(dag)
    assert rep.ok, rep.format()
    rep = analyze_hazards(dag)
    assert rep.ok, rep.format()


def test_stale_split_caught_by_both_auditors(grid2d_medium):
    res, _ = _setup(grid2d_medium)
    dag = build_dag(res.symbol, "llt", granularity="2d", split_rows=8)
    bad, task = stale_split(dag)
    assert bad.row_hi[task] == dag.row_hi[task] + 1
    hrep = analyze_hazards(bad)
    assert not hrep.ok
    assert "H110" in {f.code for f in hrep.findings}, hrep.format()
    srep = verify_dag_costs(bad)
    assert not srep.ok
    assert "N509" in {f.code for f in srep.findings}, srep.format()


def test_stale_split_rejects_unsplit_dag(grid2d_small):
    res, _ = _setup(grid2d_small)
    dag = build_dag(res.symbol, "llt", granularity="2d")
    with pytest.raises(ValueError):
        stale_split(dag)


# ----------------------------------------------------------------------
# Measured-rate blocking: bucket seeding + suggest_blocking.
# ----------------------------------------------------------------------
def _kernels_payload(rate_flops_s: float) -> dict:
    from repro.dag.tasks import TaskKind
    from repro.resilience.health import bucket_key

    buckets = {}
    for flops in (2.0**14, 2.0**17, 2.0**20):
        buckets[bucket_key(int(TaskKind.UPDATE), flops)] = [
            8.0, 8.0 * flops, 8.0 * flops / rate_flops_s,
        ]
    return {"bench": "kernels", "schema_version": 1, "cells": [],
            "buckets": buckets}


def test_seed_from_results_consumes_buckets(tmp_path):
    from repro.runtime.adaptive import PerfHistory

    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps(_kernels_payload(2.0e9)))
    hist = PerfHistory()
    assert hist.seed_from_results(path) == 3
    assert hist.global_rate() == pytest.approx(2.0e9, rel=1e-6)


def test_suggest_blocking_from_measured_rates(tmp_path):
    from repro.runtime.adaptive import PerfHistory, suggest_blocking

    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps(_kernels_payload(2.0e9)))
    hist = PerfHistory()
    hist.seed_from_results(path)
    out = suggest_blocking(hist, target_task_s=2e-3)
    w, rows = out["split_max_width"], out["split_rows"]
    assert 8 <= w <= 256
    assert w <= rows <= 4096
    assert out["rate_gflops"] > 0
    # Faster machine => coarser blocking (monotone in the rate).
    path.write_text(json.dumps(_kernels_payload(2.0e11)))
    fast = PerfHistory()
    fast.seed_from_results(path)
    out_fast = suggest_blocking(fast, target_task_s=2e-3)
    assert out_fast["split_max_width"] >= w
    assert out_fast["split_rows"] >= rows


def test_suggest_blocking_rejects_empty_history():
    from repro.runtime.adaptive import PerfHistory, suggest_blocking

    with pytest.raises(ValueError):
        suggest_blocking(PerfHistory())
    seeded = PerfHistory()
    seeded.observe("1:20", 1e6, 1e-3)
    with pytest.raises(ValueError):
        suggest_blocking(seeded, target_task_s=0.0)


def test_suggest_config_reports_kernels(tmp_path):
    from repro.runtime.adaptive import PerfHistory, suggest_config

    cells = [
        {"matrix": "audi", "scheduler": "ws", "n_workers": 4,
         "scale": 1.0, "variant": variant, "wall_s": wall, "flops": 1e9,
         "model_makespan_s": wall}
        for variant, wall in (("base", 1.0), ("opt", 0.8),
                              ("compiled", 0.6))
    ]
    path = tmp_path / "BENCH_threaded.json"
    path.write_text(json.dumps({"bench": "threaded", "cells": cells}))
    cfg = suggest_config("audi", path=path)
    assert cfg["kernels"] == "compiled"
    assert cfg["accumulate"] is True
