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
    triangular_solve,
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


def _triangle(w, cplx, lower, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((w, w))
    if cplx:
        a = a + 1j * rng.standard_normal((w, w))
    a += np.diag(np.full(w, 4.0 + w))
    # The other triangle holds garbage on purpose: it must not be read.
    return a, (np.tril(a) if lower else np.triu(a))


class TestTriangularSolve:
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("unit", [False, True])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("nrhs", [None, 1, 5])
    def test_matches_scipy(self, cplx, lower, unit, trans, nrhs):
        w = 7
        a, tri = _triangle(w, cplx, lower, seed=w + 2 * lower + unit)
        rng = np.random.default_rng(3)
        b = rng.standard_normal((w,) if nrhs is None else (w, nrhs))
        if cplx:
            b = b + 1j * rng.standard_normal(b.shape)
        ref = sla.solve_triangular(a, b, lower=lower, unit_diagonal=unit,
                                   trans="T" if trans else "N")
        x = triangular_solve(a, b, lower=lower, unit=unit, trans=trans)
        assert x.shape == b.shape and x.dtype == b.dtype
        assert np.allclose(x, ref, rtol=1e-14, atol=1e-14)
        # ... and it solves the system it claims to, plain transpose.
        if unit:
            tri = tri - np.diag(np.diag(tri)) + np.eye(w)
        assert np.allclose((tri.T if trans else tri) @ x, b)

    @pytest.mark.parametrize("nrhs", [None, 4])
    def test_any_memory_layout(self, nrhs):
        w = 6
        a, _ = _triangle(w, False, True, seed=1)
        rng = np.random.default_rng(2)
        b = rng.standard_normal((w,) if nrhs is None else (w, nrhs))
        ref = sla.solve_triangular(a, b, lower=True)
        panel = np.zeros((3 * w, w))
        panel[:w] = a                      # C-ordered panel slice
        wide = np.zeros((w, 2 * w))
        wide[:, ::2] = a                   # neither C- nor F-contiguous
        big_b = np.zeros((2 * w,) + b.shape[1:])
        big_b[::2] = b
        for aa in (a, np.asfortranarray(a), panel[:w, :w], wide[:, ::2]):
            for bb in (b, np.asfortranarray(b), big_b[::2]):
                x = triangular_solve(aa, bb, lower=True)
                assert np.allclose(x, ref, rtol=1e-14, atol=1e-14)
        assert np.array_equal(panel[:w], a) and np.array_equal(big_b[::2], b)

    def test_inputs_not_overwritten(self):
        a, _ = _triangle(5, False, True, seed=4)
        b = np.asfortranarray(np.random.default_rng(5).standard_normal((5, 3)))
        a0, b0 = a.copy(), b.copy()
        triangular_solve(a, b, lower=True)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    @pytest.mark.parametrize("lower", [True, False])
    def test_zero_on_the_diagonal_raises_linalgerror(self, lower):
        a, _ = _triangle(4, False, lower, seed=6)
        a[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            triangular_solve(a, np.ones(4), lower=lower)
        with pytest.raises(np.linalg.LinAlgError):
            sla.solve_triangular(a, np.ones(4), lower=lower)
        # ... unless the diagonal is declared unit, as SciPy has it.
        x = triangular_solve(a, np.ones(4), lower=lower, unit=True)
        assert np.all(np.isfinite(x))

    def test_illegal_argument_raises_valueerror(self, monkeypatch):
        def bad_trtrs(a, b, **kwargs):
            return b, -3

        monkeypatch.setitem(dense._TRTRS, np.dtype(np.float64), bad_trtrs)
        with pytest.raises(ValueError, match="3-th argument"):
            triangular_solve(np.eye(2), np.ones(2), lower=True)

    @pytest.mark.parametrize("a_dtype,b_dtype", [
        (np.float32, np.float32), (np.float64, np.complex128),
        (np.float64, np.int64),
    ])
    def test_other_dtypes_go_to_scipy(self, monkeypatch, a_dtype, b_dtype):
        def boom(*args, **kwargs):
            raise AssertionError("held LAPACK handle used for a foreign dtype")

        for dt in list(dense._TRTRS):
            monkeypatch.setitem(dense._TRTRS, dt, boom)
        a = (np.tril(np.ones((3, 3))) + 2 * np.eye(3)).astype(a_dtype)
        b = np.arange(1, 4).astype(b_dtype)
        x = triangular_solve(a, b, lower=True)
        assert np.allclose(a @ x, b, atol=1e-5)

    def test_empty_block_of_right_hand_sides(self):
        x = triangular_solve(np.eye(3), np.empty((3, 0)), lower=True)
        assert x.shape == (3, 0)

    def test_every_solver_call_site_uses_the_helper(self):
        """A raw ``trtrs`` and SciPy's wrapper may differ in the last bit,
        so threaded ≡ sequential only holds if nobody calls SciPy's."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        for rel in ("core/triangular.py", "runtime/threaded.py",
                    "kernels/panel.py"):
            assert "solve_triangular" not in (root / rel).read_text(), rel


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
