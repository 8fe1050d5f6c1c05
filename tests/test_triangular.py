"""Block triangular solve tests."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.factorization import factorize_sequential
from repro.core.triangular import SolveSteps, solve_factored
from repro.symbolic import analyze


@pytest.fixture(scope="module")
def llt_setup(grid2d_small):
    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    factor = factorize_sequential(res.symbol, permuted, "llt")
    L = factor.lower_csc().to_dense()
    return factor, L, permuted


def _sweep(factor, b, backward):
    """One NumPy sweep over every panel, on a copy of ``b``."""
    x = b.copy()
    SolveSteps(factor, x).run(0, factor.n_cblk, backward=backward)
    return x


def test_forward_matches_dense(llt_setup):
    factor, L, _ = llt_setup
    b = np.random.default_rng(0).standard_normal(L.shape[0])
    y = _sweep(factor, b, backward=False)
    ref = sla.solve_triangular(L, b, lower=True)
    assert np.allclose(y, ref, atol=1e-10)


def test_backward_matches_dense(llt_setup):
    factor, L, _ = llt_setup
    b = np.random.default_rng(1).standard_normal(L.shape[0])
    x = _sweep(factor, b, backward=True)
    ref = sla.solve_triangular(L.T, b, lower=False)
    assert np.allclose(x, ref, atol=1e-10)


def test_solve_factored_full(llt_setup):
    factor, _, permuted = llt_setup
    b = np.random.default_rng(2).standard_normal(permuted.n_rows)
    x = solve_factored(factor, b)
    assert np.allclose(permuted.matvec(x), b, atol=1e-9)


@pytest.mark.parametrize("factotype", ["ldlt", "lu"])
def test_solve_factored_other_types(grid2d_small, factotype):
    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    factor = factorize_sequential(res.symbol, permuted, factotype)
    b = np.random.default_rng(3).standard_normal(permuted.n_rows)
    x = solve_factored(factor, b)
    assert np.allclose(permuted.matvec(x), b, atol=1e-9)


def test_solve_factored_complex(helmholtz_small):
    res = analyze(helmholtz_small)
    permuted = helmholtz_small.permute(res.perm.perm)
    factor = factorize_sequential(res.symbol, permuted, "ldlt")
    rng = np.random.default_rng(4)
    b = rng.standard_normal(permuted.n_rows) + 1j * rng.standard_normal(permuted.n_rows)
    x = solve_factored(factor, b)
    assert np.allclose(permuted.matvec(x), b, atol=1e-9)


def test_multiple_solves_same_factor(llt_setup):
    factor, _, permuted = llt_setup
    rng = np.random.default_rng(5)
    for _ in range(3):
        b = rng.standard_normal(permuted.n_rows)
        x = solve_factored(factor, b)
        assert np.allclose(permuted.matvec(x), b, atol=1e-9)
