"""Numerical factorization correctness against SciPy and dense references."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.core.factorization import factorize_sequential
from repro.core.triangular import solve_factored
from repro.symbolic import SymbolicOptions, analyze
from repro.sparse.csc import SparseMatrixCSC
from tests.conftest import random_spd_dense


def solve_via_factor(mat, factotype, *, options=None):
    res = analyze(mat, options)
    permuted = mat.permute(res.perm.perm)
    factor = factorize_sequential(res.symbol, permuted, factotype)
    rng = np.random.default_rng(42)
    b = rng.standard_normal(mat.n_rows)
    if np.issubdtype(factor.dtype, np.complexfloating):
        b = b + 1j * rng.standard_normal(mat.n_rows)
    pb = res.perm.apply_to_vector(b.astype(factor.dtype))
    px = solve_factored(factor, pb)
    x = res.perm.undo_on_vector(px)
    resid = np.linalg.norm(b - mat.matvec(x)) / np.linalg.norm(b)
    return x, resid


FACTOTYPES = ("llt", "ldlt", "lu")


class TestRealGrids:
    @pytest.mark.parametrize("factotype", FACTOTYPES)
    def test_grid2d(self, grid2d_medium, factotype):
        _, resid = solve_via_factor(grid2d_medium, factotype)
        assert resid < 1e-12

    @pytest.mark.parametrize("factotype", FACTOTYPES)
    def test_grid3d(self, grid3d_small, factotype):
        _, resid = solve_via_factor(grid3d_small, factotype)
        assert resid < 1e-12

    @pytest.mark.parametrize("factotype", FACTOTYPES)
    def test_random_pattern(self, random_spd_small, factotype):
        _, resid = solve_via_factor(random_spd_small, factotype)
        assert resid < 1e-11

    def test_matches_scipy_spsolve(self, grid2d_medium):
        x, _ = solve_via_factor(grid2d_medium, "llt")
        b = np.random.default_rng(42).standard_normal(grid2d_medium.n_rows)
        ref = spla.spsolve(grid2d_medium.to_scipy().tocsc(), b)
        assert np.allclose(x, ref, atol=1e-8)


class TestComplex:
    def test_zldlt(self, helmholtz_small):
        _, resid = solve_via_factor(helmholtz_small, "ldlt")
        assert resid < 1e-12

    def test_zlu(self, helmholtz_small):
        _, resid = solve_via_factor(helmholtz_small, "lu")
        assert resid < 1e-12


class TestOptionsInteraction:
    @pytest.mark.parametrize("ratio", [None, 0.0, 0.12, 0.5])
    def test_amalgamation_does_not_change_answer(self, grid2d_small, ratio):
        _, resid = solve_via_factor(
            grid2d_small, "llt",
            options=SymbolicOptions(amalgamation_ratio=ratio),
        )
        assert resid < 1e-12

    @pytest.mark.parametrize("width", [None, 4, 16, 1000])
    def test_splitting_does_not_change_answer(self, grid2d_small, width):
        _, resid = solve_via_factor(
            grid2d_small, "llt",
            options=SymbolicOptions(split_max_width=width),
        )
        assert resid < 1e-12

    def test_natural_ordering_still_correct(self, grid2d_small):
        _, resid = solve_via_factor(
            grid2d_small, "llt", options=SymbolicOptions(ordering="natural")
        )
        assert resid < 1e-12


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 5000))
def test_property_llt_solves_random_spd(n, seed):
    d = random_spd_dense(n, 0.25, seed)
    m = SparseMatrixCSC.from_dense(d)
    _, resid = solve_via_factor(m, "llt")
    assert resid < 1e-10


@settings(max_examples=10, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 5000))
def test_property_lu_solves_random_dominant(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    m = SparseMatrixCSC.from_dense(d + d.T * 0.3 + np.eye(n) * (np.abs(d).sum() + 1))
    _, resid = solve_via_factor(m, "lu")
    assert resid < 1e-10
