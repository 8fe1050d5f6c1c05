"""Dense kernel tests."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from repro.kernels import dense
from repro.kernels.dense import (
    PivotMonitor,
    getrf_nopiv,
    ldlt_nopiv,
    potrf,
    trsm_lower_right,
    trsm_unit_lower_left,
)
from tests.conftest import random_spd_dense


class TestPotrf:
    def test_matches_numpy(self):
        a = random_spd_dense(8, 0.6, 0)
        assert np.allclose(potrf(a), np.linalg.cholesky(a))

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            potrf(np.eye(3, dtype=np.complex128))


class TestLdlt:
    def test_reconstruction_real(self):
        a = random_spd_dense(9, 0.5, 1)
        L, d = ldlt_nopiv(a)
        assert np.allclose(L @ np.diag(d) @ L.T, a)
        assert np.allclose(np.diag(L), 1.0)
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_reconstruction_complex_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = (a + a.T) / 2  # complex symmetric (plain transpose)
        a += np.diag(np.full(6, 10.0 + 5j))
        L, d = ldlt_nopiv(a)
        assert np.allclose(L @ np.diag(d) @ L.T, a)

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            ldlt_nopiv(np.zeros((3, 3)))

    def test_input_not_mutated(self):
        a = random_spd_dense(5, 0.5, 3)
        a0 = a.copy()
        ldlt_nopiv(a)
        assert np.array_equal(a, a0)


class TestGetrf:
    def test_reconstruction(self):
        a = random_spd_dense(8, 0.5, 4) + np.triu(np.ones((8, 8)), 1) * 0.1
        lu = getrf_nopiv(a)
        L = np.tril(lu, -1) + np.eye(8)
        U = np.triu(lu)
        assert np.allclose(L @ U, a)

    def test_matches_scipy_on_dominant(self):
        a = random_spd_dense(7, 0.8, 5)
        lu = getrf_nopiv(a)
        # scipy with pivoting on a diagonally dominant SPD matrix picks
        # the diagonal anyway.
        p, l, u = sla.lu(a)
        assert np.allclose(p, np.eye(7))
        assert np.allclose(np.tril(lu, -1) + np.eye(7), l)
        assert np.allclose(np.triu(lu), u)

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            getrf_nopiv(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _dominant(w, cplx, seed):
    """Random diagonally dominant (complex-)symmetric ``w×w`` block."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((w, w))
    if cplx:
        a = a + 1j * rng.standard_normal((w, w))
    a = a + a.T
    a[np.diag_indices(w)] = np.abs(a).sum(axis=1) + 1.0
    return a


class TestLapackFastPath:
    """``ldlt_nopiv``/``getrf_nopiv`` keep LAPACK's pivoting result only
    when it provably pivoted nowhere; the column loop is the reference
    and the only fallback.  Emptying the routine tables forces it."""

    KERNELS = {
        "ldlt": (ldlt_nopiv, "_SYTRF"),
        "getrf": (getrf_nopiv, "_GETRF"),
    }

    @staticmethod
    def _both(kernel, block, monkeypatch, threshold=None):
        """(fast-path-enabled result, column-loop result, monitors)."""
        fn, table = TestLapackFastPath.KERNELS[kernel]
        mons = [None if threshold is None else PivotMonitor(threshold)
                for _ in range(2)]
        got = fn(block, mons[0])
        with monkeypatch.context() as m:
            m.setattr(dense, table, {})
            ref = fn(block, mons[1])
        # ldlt returns (L, d), getrf one packed array: compare as tuples.
        as_tuple = (lambda r: r if isinstance(r, tuple) else (r,))
        return as_tuple(got), as_tuple(ref), mons

    @staticmethod
    def _accepted(monkeypatch):
        """Record the verdicts of the acceptance test."""
        verdicts = []
        real = dense._static_pivots_ok

        def spy(*args):
            verdicts.append(real(*args))
            return verdicts[-1]

        monkeypatch.setattr(dense, "_static_pivots_ok", spy)
        return verdicts

    @pytest.mark.parametrize("kernel", ["ldlt", "getrf"])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("w", [1, 2, 7, 64, 200])
    def test_fast_path_equals_the_loop(self, monkeypatch, kernel, cplx, w):
        verdicts = self._accepted(monkeypatch)
        block = _dominant(w, cplx, seed=w)
        if kernel == "getrf":
            block = block + np.triu(block, 1) * 0.25   # unsymmetric values
        keep = block.copy()
        got, ref, _ = self._both(kernel, block, monkeypatch)
        assert verdicts == [True]          # taken once, loop not consulted
        assert np.array_equal(block, keep)  # input untouched
        tol = 64 * w * np.finfo(np.float64).eps
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.allclose(a, b, rtol=tol, atol=tol * np.abs(b).max())
        if kernel == "ldlt":
            L, d = got
            assert np.array_equal(np.diag(L), np.ones(w))
            assert not np.triu(L, 1).any()
            assert np.allclose((L * d) @ L.T, block)

    @pytest.mark.parametrize("kernel", ["ldlt", "getrf"])
    def test_lapack_pivoting_block_takes_the_loop(self, monkeypatch, kernel):
        """LAPACK interchanges (or picks a 2×2 block) here; static
        pivoting does not, so the result must be exactly the loop's."""
        verdicts = self._accepted(monkeypatch)
        block = np.array([[1e-3, 1.0], [1.0, 1e-3]])
        got, ref, _ = self._both(kernel, block, monkeypatch)
        assert verdicts == [False]
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kernel", ["ldlt", "getrf"])
    @pytest.mark.parametrize("block", [
        np.zeros((3, 3)),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),     # second pivot exactly 0
    ])
    def test_zero_pivot_still_raises(self, kernel, block):
        with pytest.raises(ZeroDivisionError, match="zero pivot"):
            self.KERNELS[kernel][0](block)

    @pytest.mark.parametrize("kernel", ["ldlt", "getrf"])
    def test_tiny_pivot_perturbed_and_counted_once(self, monkeypatch,
                                                   kernel):
        block = _dominant(6, False, seed=1)
        block[2, :] = block[:, 2] = 0.0
        block[2, 2] = 1e-12                      # under the threshold
        got, ref, mons = self._both(kernel, block, monkeypatch,
                                    threshold=1e-8)
        assert [m.n_perturbed for m in mons] == [1, 1]
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        pivots = got[1] if kernel == "ldlt" else np.diag(got[0])
        assert pivots[2] == 1e-8

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kernel", ["ldlt", "getrf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_behaves_as_before(self, monkeypatch, kernel,
                                                bad):
        """Never accepted by the fast path: strict mode raises as the
        loop does, a perturbing monitor returns the loop's result."""
        verdicts = self._accepted(monkeypatch)
        block = _dominant(5, False, seed=2)
        block[3, 1] = block[1, 3] = bad
        fn = self.KERNELS[kernel][0]
        with pytest.raises(ZeroDivisionError):
            fn(block)
        got, ref, mons = self._both(kernel, block, monkeypatch,
                                    threshold=1e-8)
        assert not any(verdicts)
        assert mons[0].n_perturbed == mons[1].n_perturbed
        for a, b in zip(got, ref):
            assert np.array_equal(a, b, equal_nan=True)

    def test_other_dtypes_take_the_loop(self, monkeypatch):
        verdicts = self._accepted(monkeypatch)
        block = _dominant(4, False, seed=3).astype(np.float32)
        L, d = ldlt_nopiv(block)
        assert verdicts == [] and L.dtype == np.float32
        assert np.allclose((L * d) @ L.T, block, atol=1e-4)


class TestTrsm:
    def test_lower_right(self):
        a = random_spd_dense(6, 0.7, 6)
        L = np.linalg.cholesky(a)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((4, 6))
        x = trsm_lower_right(L, b)
        assert np.allclose(x @ L.T, b)

    def test_lower_right_unit(self):
        L = np.tril(np.ones((4, 4)), -1) * 0.3 + np.diag([9, 9, 9, 9.0])
        rng = np.random.default_rng(8)
        b = rng.standard_normal((3, 4))
        x = trsm_lower_right(L, b, unit=True)
        Lu = np.tril(L, -1) + np.eye(4)
        assert np.allclose(x @ Lu.T, b)

    def test_unit_lower_left(self):
        L = np.tril(np.random.default_rng(9).standard_normal((5, 5)), -1)
        b = np.random.default_rng(10).standard_normal((5, 2))
        x = trsm_unit_lower_left(L, b)
        assert np.allclose((L + np.eye(5)) @ x, b)

    def test_complex_plain_transpose(self):
        rng = np.random.default_rng(11)
        L = np.tril(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        L += np.diag(np.full(4, 5.0))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        x = trsm_lower_right(L, b)
        assert np.allclose(x @ L.T, b)  # .T, never .conj().T


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 5000))
def test_property_ldlt_solves(n, seed):
    a = random_spd_dense(n, 0.4, seed)
    L, d = ldlt_nopiv(a)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    y = sla.solve_triangular(L, b, lower=True, unit_diagonal=True)
    x = sla.solve_triangular(L, y / d, lower=True, unit_diagonal=True, trans="T")
    assert np.allclose(a @ x, b, atol=1e-8)
