"""Block symbolic structure (SymbolMatrix) and splitting tests."""

import numpy as np
import pytest

from repro.symbolic import analyze, SymbolicOptions
from repro.symbolic.splitting import split_supernodes
from repro.symbolic.structures import build_symbol


class TestBuildSymbol:
    def test_validates_on_grids(self, grid2d_small, grid3d_small):
        for mat in (grid2d_small, grid3d_small):
            res = analyze(mat)
            res.symbol.validate()

    def test_nnz_exact_without_amalgamation(self, grid2d_medium):
        res = analyze(
            grid2d_medium,
            SymbolicOptions(amalgamation_ratio=None, split_max_width=None),
        )
        assert res.symbol.nnz() == res.counts.sum()

    def test_nnz_lu_counts_both_factors(self, grid2d_small):
        res = analyze(grid2d_small)
        lower = res.symbol.nnz(factotype="llt")
        assert res.symbol.nnz(factotype="lu") == 2 * lower - res.n

    def test_nnz_rejects_unknown(self, grid2d_small):
        with pytest.raises(ValueError):
            analyze(grid2d_small).symbol.nnz(factotype="qr")

    def test_diagonal_blok_first(self, grid2d_small):
        sym = analyze(grid2d_small).symbol
        for k in range(sym.n_cblk):
            d = sym.blok(int(sym.blok_ptr[k]))
            assert d.frow == sym.cblk_ptr[k]
            assert d.lrow == sym.cblk_ptr[k + 1]
            assert d.face == k

    def test_cblk_rows_sorted(self, grid2d_small):
        sym = analyze(grid2d_small).symbol
        for k in range(sym.n_cblk):
            rows = sym.cblk_rows(k)
            assert np.all(np.diff(rows) > 0)
            assert rows.size == sym.cblk_height(k)

    def test_facing_lists_consistent(self, grid2d_small):
        sym = analyze(grid2d_small).symbol
        for k in range(sym.n_cblk):
            for b in sym.facing_bloks(k):
                assert sym.blok_face[b] == k
                assert sym.blok_owner[b] != k
        total_off = sum(
            sym.facing_bloks(k).size for k in range(sym.n_cblk)
        )
        assert total_off == np.count_nonzero(sym.blok_face != sym.blok_owner)

    def test_col2cblk(self, grid2d_small):
        sym = analyze(grid2d_small).symbol
        for k in range(sym.n_cblk):
            cols = np.arange(sym.cblk_ptr[k], sym.cblk_ptr[k + 1])
            assert np.all(sym.col2cblk[cols] == k)

    def test_validate_catches_broken_face(self, grid2d_small):
        sym = analyze(grid2d_small).symbol
        off = np.flatnonzero(sym.blok_face != sym.blok_owner)
        if off.size:
            sym.blok_face[off[0]] = int(sym.blok_owner[off[0]])
            with pytest.raises(AssertionError):
                sym.validate()


class TestSplitting:
    def _base(self, mat, **kw):
        return analyze(mat, SymbolicOptions(split_max_width=None, **kw))

    def test_split_bounds_widths(self, grid2d_medium):
        res = self._base(grid2d_medium)
        snptr = res.symbol.cblk_ptr
        rowsets = [
            res.symbol.cblk_rows(k)[res.symbol.cblk_width(k):]
            for k in range(res.symbol.n_cblk)
        ]
        s2, r2 = split_supernodes(snptr, rowsets, max_width=8)
        assert np.diff(s2).max() <= 8
        sym2 = build_symbol(res.n, s2, r2)
        sym2.validate()

    def test_split_preserves_nnz_plus_intra(self, grid2d_small):
        # Splitting adds no structural entries: the union of the panels'
        # (cols x rows) regions is exactly the original supernode region.
        full = analyze(grid2d_small, SymbolicOptions(split_max_width=None))
        split = analyze(grid2d_small, SymbolicOptions(split_max_width=4))
        assert split.symbol.nnz() == full.symbol.nnz()

    def test_split_increases_cblk_count(self, grid2d_medium):
        full = analyze(grid2d_medium, SymbolicOptions(split_max_width=None))
        split = analyze(grid2d_medium, SymbolicOptions(split_max_width=8))
        assert split.symbol.n_cblk > full.symbol.n_cblk

    def test_split_never_exceeds_columns(self):
        # max_width=1: every panel is a single column.
        snptr = np.array([0, 5], dtype=np.int64)
        rowsets = [np.array([7, 9], dtype=np.int64)]
        s2, r2 = split_supernodes(snptr, rowsets, max_width=1)
        assert np.array_equal(s2, [0, 1, 2, 3, 4, 5])
        assert np.array_equal(r2[0], [1, 2, 3, 4, 7, 9])
        assert np.array_equal(r2[-1], [7, 9])

    @pytest.mark.parametrize("max_width", [1, 3, 4, 7, 128])
    def test_split_equals_a_loop_over_every_supernode(self, max_width):
        """The split loops over the supernodes it splits only; a loop
        over every supernode, the old body, gives the same arrays."""
        rng = np.random.default_rng(max_width)
        snptr = np.concatenate(([0], np.cumsum(rng.integers(1, 12, 40))))
        rowsets = [np.sort(rng.choice(np.arange(500, 600), rng.integers(0, 5),
                                      replace=False)) for _ in range(40)]
        want_bounds, want_rows = [0], []
        for k in range(40):
            f, l = int(snptr[k]), int(snptr[k + 1])
            m = min(-(-(l - f) // max_width), l - f)
            base, extra = divmod(l - f, m)
            start = f
            for i in range(m):
                start += base + (i < extra)
                want_bounds.append(start)
                want_rows.append(np.concatenate(
                    [np.arange(start, l), rowsets[k]]) if start < l
                    else rowsets[k])
        s2, r2 = split_supernodes(snptr, rowsets, max_width=max_width)
        assert s2.dtype == np.int64 and s2.tolist() == want_bounds
        assert len(r2) == len(want_rows)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(r2, want_rows))

    def test_bad_width(self):
        with pytest.raises(ValueError):
            split_supernodes(np.array([0, 3]), [np.empty(0, np.int64)],
                             max_width=0)
