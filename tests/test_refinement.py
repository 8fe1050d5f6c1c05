"""Iterative refinement tests."""

import numpy as np
import pytest

from repro.core.refinement import iterative_refinement
from repro.sparse.csc import SparseMatrixCSC
from tests.conftest import random_spd_dense


def make_system(n=20, seed=0):
    d = random_spd_dense(n, 0.4, seed)
    m = SparseMatrixCSC.from_dense(d)
    b = np.random.default_rng(seed).standard_normal(n)
    return d, m, b


def test_exact_solver_converges_immediately():
    d, m, b = make_system()
    inv = np.linalg.inv(d)
    result = iterative_refinement(m, lambda r: inv @ r, b, tol=1e-12)
    assert result.converged
    assert result.iterations <= 1
    assert result.residual_norm < 1e-12


def test_sloppy_solver_improves():
    d, m, b = make_system()
    inv = np.linalg.inv(d)
    noisy_inv = inv * (1 + 1e-3)  # 0.1% relative error operator
    result = iterative_refinement(m, lambda r: noisy_inv @ r, b,
                                  tol=1e-12, max_iter=20)
    assert result.converged
    assert result.iterations >= 1
    # history strictly improves until convergence
    assert all(b < a for a, b in zip(result.history, result.history[1:]))


def test_zero_rhs():
    _, m, _ = make_system()
    result = iterative_refinement(m, lambda r: r, np.zeros(20))
    assert result.converged
    assert np.all(result.x == 0)


def test_stagnation_stops_early():
    d, m, b = make_system()
    # A useless solver (identity): residual can't improve much.
    result = iterative_refinement(m, lambda r: r * 1e-6, b, max_iter=10)
    assert not result.converged
    assert result.iterations < 10


def test_max_iter_respected():
    d, m, b = make_system()
    inv = np.linalg.inv(d)
    wobbly = inv * (1 + 0.2)
    result = iterative_refinement(m, lambda r: wobbly @ r, b,
                                  tol=1e-16, max_iter=3)
    assert len(result.history) <= 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_residual_stops_at_once(bad):
    """A NaN or Inf in ``b`` makes every residual non-finite, which the
    stagnation test (``resnorm >= 0.5 · previous``) never catches: the
    loop must stop at the first one instead of running ``max_iter``."""
    d, m, b = make_system()
    inv = np.linalg.inv(d)
    calls = []

    def solve(r):
        calls.append(r)
        return inv @ r

    b[3] = bad
    with np.errstate(invalid="ignore"):
        result = iterative_refinement(m, solve, b, max_iter=10)
    assert len(calls) <= 2
    assert not result.converged
    assert not np.isfinite(result.residual_norm)
    assert len(result.history) == 1


def test_solver_reports_non_finite_rhs_unconverged(grid2d_small):
    from repro import SparseSolver

    solver = SparseSolver(grid2d_small)
    b = np.ones(grid2d_small.n_rows)
    b[0] = np.nan
    with np.errstate(invalid="ignore"):
        x = solver.solve(b)
    assert np.isnan(x).any()
    assert not solver.last_refinement.converged
    assert solver.last_refinement.iterations == 1


def test_result_solves_system():
    d, m, b = make_system(seed=3)
    inv = np.linalg.inv(d)
    result = iterative_refinement(m, lambda r: inv @ r, b)
    assert np.allclose(d @ result.x, b, atol=1e-9)
