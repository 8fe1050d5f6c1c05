"""Panel kernel tests."""

import numpy as np
import pytest

from repro.core.factor import NumericFactor
from repro.core.factorization import facing_cblks, factorize_sequential
from repro.kernels.panel import panel_factorize, panel_update, update_slice
from repro.symbolic import analyze
from tests.conftest import permutation_matrix


class TestPanelKernels:
    def _factor_dense(self, mat, factotype):
        """Run the supernodal factorization and rebuild L densely."""
        res = analyze(mat)
        permuted = mat.permute(res.perm.perm)
        factor = factorize_sequential(res.symbol, permuted, factotype)
        return res, permuted, factor

    def test_update_slice_locates_rows(self, grid2d_small):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        factor = NumericFactor.assemble(res.symbol, permuted, "llt")
        sym = res.symbol
        for k in range(sym.n_cblk):
            for t in facing_cblks(sym, k):
                i0, i1, rk = update_slice(factor, k, int(t))
                assert i0 < i1
                inside = rk[i0:i1]
                assert np.all(inside >= sym.cblk_ptr[t])
                assert np.all(inside < sym.cblk_ptr[t + 1])

    def test_llt_factor_reconstructs(self, grid2d_small):
        res, permuted, factor = self._factor_dense(grid2d_small, "llt")
        L = factor.lower_csc().to_dense()
        assert np.allclose(L @ L.T, permuted.to_dense(), atol=1e-10)

    def test_ldlt_factor_reconstructs(self, grid2d_small):
        res, permuted, factor = self._factor_dense(grid2d_small, "ldlt")
        L = factor.lower_csc().to_dense()
        d = np.concatenate(factor.D)
        assert np.allclose(L @ np.diag(d) @ L.T, permuted.to_dense(), atol=1e-10)

    def test_lu_panels_consistent(self, grid2d_small):
        res, permuted, factor = self._factor_dense(grid2d_small, "lu")
        n = res.n
        L = factor.lower_csc().to_dense()
        # Build U from the U panels + packed diagonal blocks.
        U = np.zeros((n, n))
        sym = res.symbol
        for k in range(sym.n_cblk):
            f, l = int(sym.cblk_ptr[k]), int(sym.cblk_ptr[k + 1])
            w = l - f
            U[f:l, f:l] = np.triu(factor.L[k][:w, :w])
            rows = factor.rows[k][w:]
            if rows.size:
                U[f:l, rows] = factor.U[k][w:, :].T
        assert np.allclose(L @ U, permuted.to_dense(), atol=1e-10)

    def test_unknown_factotype(self, grid2d_small):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        factor = NumericFactor.assemble(res.symbol, permuted, "llt")
        factor.factotype = "qr"
        with pytest.raises(ValueError):
            panel_factorize(factor, 0)

    def test_update_noop_when_not_facing(self, grid2d_small):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        factor = NumericFactor.assemble(res.symbol, permuted, "llt")
        sym = res.symbol
        # Find a (k, t) couple that does NOT face each other.
        faces0 = set(int(x) for x in facing_cblks(sym, 0))
        non = next(
            (t for t in range(1, sym.n_cblk) if t not in faces0), None
        )
        if non is not None:
            before = factor.L[non].copy()
            panel_factorize(factor, 0)
            panel_update(factor, 0, non)
            assert np.array_equal(before, factor.L[non])
