"""Flop-count model tests."""

import numpy as np
import pytest

from repro.dag import build_dag
from repro.kernels.cost import (
    complex_multiplier,
    flops_gemm,
    flops_getrf,
    flops_ldlt,
    flops_panel,
    flops_potrf,
    flops_total,
    flops_trsm,
    flops_update,
)
from repro.sparse import load_matrix
from repro.sparse.collection import collection_names
from repro.symbolic import analyze
from tests.test_analysis_golden import E2E_INPUTS

#: ``benchmarks/e2e/harness.WORKLOADS[*].flops_ref`` (frozen there).
E2E_FLOPS_REF = {
    "shell2d_lu": 19568189.0,
    "vol3d_ldlt": 66328134.666667536,
    "helm3d_zldlt": 9833513533.333326,
    "elast3d_llt_seq_rhs16": 1114362692.0,
}


def count_flops_potrf_brute(w: int) -> float:
    """Count multiply+add+div+sqrt of the textbook Cholesky loop."""
    total = 0.0
    for j in range(w):
        total += 1            # sqrt
        total += w - j - 1    # column scale (div)
        for i in range(j + 1, w):
            total += 2 * (w - i)  # fused multiply-add pairs on the trail
    return total


class TestFormulas:
    def test_potrf_matches_brute_force(self):
        for w in (1, 2, 5, 16):
            assert flops_potrf(w) == pytest.approx(
                count_flops_potrf_brute(w), rel=0.35
            )

    def test_potrf_cubic_leading_term(self):
        assert flops_potrf(300) == pytest.approx(300**3 / 3, rel=0.01)

    def test_getrf_twice_potrf(self):
        assert flops_getrf(200) == pytest.approx(2 * flops_potrf(200), rel=0.02)

    def test_gemm(self):
        assert flops_gemm(3, 4, 5) == 120.0

    def test_trsm(self):
        assert flops_trsm(4, 10) == 160.0

    def test_ldlt_cubic(self):
        assert flops_ldlt(300) == pytest.approx(flops_potrf(300), rel=0.01)

    def test_complex_multiplier(self):
        assert complex_multiplier(np.float64) == 1
        assert complex_multiplier(np.complex128) == 4
        assert complex_multiplier(np.float32) == 1


class TestPanelUpdate:
    def test_panel_llt(self):
        assert flops_panel(4, 10, "llt") == flops_potrf(4) + flops_trsm(4, 10)

    def test_panel_lu_double_trsm(self):
        assert flops_panel(4, 10, "lu") == flops_getrf(4) + 2 * flops_trsm(4, 10)

    def test_panel_unknown(self):
        with pytest.raises(ValueError):
            flops_panel(4, 10, "qr")

    def test_update_llt(self):
        assert flops_update(10, 4, 3, "llt") == flops_gemm(10, 4, 3)

    def test_update_ldlt_recompute_extra(self):
        base = flops_update(10, 4, 3, "ldlt", recompute_ld=False)
        extra = flops_update(10, 4, 3, "ldlt", recompute_ld=True)
        assert extra == base + 4 * 3

    def test_update_lu_two_gemms(self):
        got = flops_update(10, 4, 3, "lu")
        assert got == flops_gemm(10, 4, 3) + flops_gemm(6, 4, 3)

    def test_update_unknown(self):
        with pytest.raises(ValueError):
            flops_update(1, 1, 1, "qr")


class TestTotals:
    def test_total_matches_dag_sum(self, grid2d_medium):
        res = analyze(grid2d_medium)
        for ft in ("llt", "ldlt", "lu"):
            total = flops_total(res.symbol, ft, np.float64)
            dag = build_dag(res.symbol, ft, recompute_ld=False)
            assert dag.total_flops() == pytest.approx(total, rel=1e-12)

    def test_total_1d_equals_2d(self, grid2d_small):
        res = analyze(grid2d_small)
        d1 = build_dag(res.symbol, "llt", granularity="1d")
        d2 = build_dag(res.symbol, "llt", granularity="2d")
        assert d1.total_flops() == pytest.approx(d2.total_flops())

    def test_complex_is_4x(self, grid2d_small):
        res = analyze(grid2d_small)
        real = flops_total(res.symbol, "lu", np.float64)
        cplx = flops_total(res.symbol, "lu", np.complex128)
        assert cplx == pytest.approx(4 * real)

    def test_lu_costs_more_than_llt(self, grid2d_small):
        res = analyze(grid2d_small)
        assert flops_total(res.symbol, "lu") > 1.3 * flops_total(res.symbol, "llt")

    def test_dense_matches_closed_form(self):
        """A fully dense matrix must cost ~n³/3 regardless of blocking."""
        from tests.conftest import random_spd_csc

        m = random_spd_csc(60, 1.0, 0)
        res = analyze(m)
        total = flops_total(res.symbol, "llt")
        assert total == pytest.approx(60**3 / 3, rel=0.25)


def flops_total_by_blok_loop(symbol, factotype, dtype=np.float64) -> float:
    """``flops_total`` as it was before it read the flat couple plan: a
    Python walk over every blok (kept as the reference)."""
    total = 0.0
    widths = np.diff(symbol.cblk_ptr)
    for k in range(symbol.n_cblk):
        w = int(widths[k])
        total += flops_panel(w, symbol.cblk_below(k), factotype)
        b0, b1 = int(symbol.blok_ptr[k]) + 1, int(symbol.blok_ptr[k + 1])
        sizes = symbol.blok_lrow[b0:b1] - symbol.blok_frow[b0:b1]
        faces = symbol.blok_face[b0:b1]
        suffix = np.cumsum(sizes[::-1])[::-1]
        i = 0
        while i < b1 - b0:
            j = i
            n = 0
            while j < b1 - b0 and faces[j] == faces[i]:
                n += int(sizes[j])
                j += 1
            total += flops_update(int(suffix[i]), n, w, factotype,
                                  recompute_ld=False)
            i = j
    return total * complex_multiplier(dtype)


class TestTotalFromPlan:
    """``flops_total`` reads the couple plan; same value as the blok walk."""

    @pytest.mark.parametrize("name", collection_names())
    def test_collection(self, name):
        symbol = analyze(load_matrix(name, 0.3, 0)).symbol
        for ft in ("llt", "ldlt", "lu"):
            for dtype in (np.float64, np.complex128):
                assert flops_total(symbol, ft, dtype) == pytest.approx(
                    flops_total_by_blok_loop(symbol, ft, dtype), rel=1e-12)

    @pytest.mark.parametrize("workload", sorted(E2E_FLOPS_REF))
    def test_bench_inputs_keep_their_frozen_count(self, workload):
        matrix = load_matrix(*E2E_INPUTS[workload], 0)
        ft = workload.split("_")[1].lstrip("z")
        assert flops_total(
            analyze(matrix).symbol, ft, matrix.values.dtype
        ) == pytest.approx(E2E_FLOPS_REF[workload], rel=1e-12)
