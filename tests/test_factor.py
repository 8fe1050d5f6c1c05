"""NumericFactor storage tests (allocation, assembly, export)."""

import numpy as np
import pytest

from repro.core.factor import NumericFactor
from repro.symbolic import analyze


def scatter_back(factor, sym, *, upper_from_u: bool = False) -> np.ndarray:
    """Rebuild the dense matrix from the assembled (unfactorized) panels."""
    n = sym.n
    out = np.zeros((n, n), dtype=factor.dtype)
    for k in range(sym.n_cblk):
        f, l = int(sym.cblk_ptr[k]), int(sym.cblk_ptr[k + 1])
        rows = factor.rows[k]
        out[np.ix_(rows, np.arange(f, l))] += factor.L[k]
        if upper_from_u:
            w = l - f
            below = rows[w:]
            if below.size:
                out[np.ix_(np.arange(f, l), below)] += factor.U[k][w:, :].T
    return out


class TestAllocate:
    def test_shapes(self, grid2d_small):
        res = analyze(grid2d_small)
        f = NumericFactor.allocate(res.symbol, "llt")
        for k in range(res.symbol.n_cblk):
            assert f.L[k].shape == (
                res.symbol.cblk_height(k),
                res.symbol.cblk_width(k),
            )
        assert f.U is None and f.D is None

    def test_lu_allocates_u(self, grid2d_small):
        res = analyze(grid2d_small)
        f = NumericFactor.allocate(res.symbol, "lu")
        assert f.U is not None
        assert all(u.shape == l.shape for u, l in zip(f.U, f.L))

    def test_ldlt_allocates_d(self, grid2d_small):
        res = analyze(grid2d_small)
        f = NumericFactor.allocate(res.symbol, "ldlt")
        assert f.D is not None
        assert sum(d.size for d in f.D) == res.n

    def test_bad_factotype(self, grid2d_small):
        res = analyze(grid2d_small)
        with pytest.raises(ValueError):
            NumericFactor.allocate(res.symbol, "qr")

    def test_nbytes_positive(self, grid2d_small):
        res = analyze(grid2d_small)
        f = NumericFactor.allocate(res.symbol, "lu", np.complex128)
        assert f.nbytes() > 16 * res.symbol.nnz()


class TestArena:
    """One arena per side; ``L[k]``/``U[k]``/``D[k]`` are views of it."""

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_panels_are_views_at_the_layout_offsets(self, grid2d_small,
                                                    factotype):
        from repro.kernels.indexcache import panel_layout

        sym = analyze(grid2d_small).symbol
        f = NumericFactor.allocate(sym, factotype, np.complex128)
        layout = panel_layout(sym)
        assert f.L_arena.size == layout.offset[-1] == sum(p.size for p in f.L)
        assert (f.U_arena is None) == (factotype != "lu")
        assert (f.D_arena is None) == (factotype != "ldlt")
        for k in range(sym.n_cblk):
            f.L[k][...] = k + 1
            chunk = f.L_arena[layout.offset[k]: layout.offset[k + 1]]
            assert f.L[k].flags.c_contiguous and np.all(chunk == k + 1)
            assert np.array_equal(f.rows[k], sym.cblk_rows(k))
        if factotype == "lu":
            assert all(np.shares_memory(u, f.U_arena) for u in f.U)
        if factotype == "ldlt":
            assert all(np.shares_memory(d, f.D_arena) for d in f.D)
            assert f.D_arena.size == sym.n

    def test_ldlt_panel_factorize_writes_d_in_place(self, grid2d_small):
        from repro.kernels.panel import panel_factorize

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        f = NumericFactor.assemble(res.symbol, permuted, "ldlt")
        panel_factorize(f, 0)
        w = res.symbol.cblk_width(0)
        assert np.shares_memory(f.D[0], f.D_arena)
        assert np.all(f.D_arena[:w] != 0) and np.all(f.D_arena[w:] == 0)

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_copy_copies_the_arena_and_reviews(self, grid2d_small, factotype):
        from repro.core.factorization import factorize_sequential

        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        f = factorize_sequential(res.symbol, permuted, factotype,
                                 pivot_threshold=1e-8)
        g = f.copy()
        assert g.pivot_monitor is f.pivot_monitor is not None
        assert g.kernels == f.kernels and g.index_cache is f.index_cache
        for name in ("L", "U", "D"):
            if getattr(f, name) is None:
                assert getattr(g, name) is None
                continue
            arena = getattr(g, name + "_arena")
            assert not np.shares_memory(arena, getattr(f, name + "_arena"))
            for a, b in zip(getattr(f, name), getattr(g, name)):
                assert np.array_equal(a, b) and np.shares_memory(b, arena)


@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
def test_nbytes_and_copy_read_the_arenas(grid2d_small, factotype,
                                         monkeypatch):
    """``nbytes()`` reads the arenas without making a panel view, and is
    the per-panel sum of the same panels; ``copy()`` keeps both, and the
    panels."""
    from repro.core.factor import ArenaPanels

    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    backed = NumericFactor.assemble(res.symbol, permuted, factotype)
    sides = [getattr(backed, name) for name in ("L", "U", "D")]
    per_panel = sum(p.nbytes for side in sides if side is not None
                    for p in side)

    fresh = NumericFactor.assemble(res.symbol, permuted, factotype)
    views = []
    real_getitem = ArenaPanels.__getitem__

    def spy(self, k):
        views.append(k)
        return real_getitem(self, k)

    monkeypatch.setattr(ArenaPanels, "__getitem__", spy)
    assert fresh.nbytes() == per_panel
    assert not views
    monkeypatch.undo()

    assert backed.nbytes() == per_panel
    twin = backed.copy()
    assert twin.nbytes() == per_panel
    for name in ("L", "U", "D"):
        a, b = getattr(backed, name), getattr(twin, name)
        assert (a is None) == (b is None)
        assert a is None or all(np.array_equal(p, q)
                                for p, q in zip(a, b, strict=True))


class TestAssemble:
    def test_lower_scatter_exact(self, grid2d_small):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        f = NumericFactor.assemble(res.symbol, permuted, "llt")
        rebuilt = scatter_back(f, res.symbol)
        dense = permuted.to_dense()
        assert np.allclose(np.tril(rebuilt), np.tril(dense))

    def test_lu_scatter_exact(self, grid2d_small):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        f = NumericFactor.assemble(res.symbol, permuted, "lu")
        rebuilt = scatter_back(f, res.symbol, upper_from_u=True)
        assert np.allclose(rebuilt, permuted.to_dense())

    def test_complex_assembly(self, helmholtz_small):
        res = analyze(helmholtz_small)
        permuted = helmholtz_small.permute(res.perm.perm)
        f = NumericFactor.assemble(res.symbol, permuted, "ldlt")
        assert f.dtype == np.complex128
        rebuilt = scatter_back(f, res.symbol)
        assert np.allclose(np.tril(rebuilt), np.tril(permuted.to_dense()))

    def test_rejects_pattern_matrix(self, grid2d_small):
        res = analyze(grid2d_small)
        with pytest.raises(ValueError):
            NumericFactor.assemble(res.symbol, res.pattern, "llt")

    def test_rejects_size_mismatch(self, grid2d_small, grid3d_small):
        res = analyze(grid2d_small)
        with pytest.raises(ValueError):
            NumericFactor.assemble(res.symbol, grid3d_small, "llt")

    def test_copy_is_deep(self, grid2d_small):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        f = NumericFactor.assemble(res.symbol, permuted, "llt")
        g = f.copy()
        g.L[0][0, 0] += 1.0
        assert f.L[0][0, 0] != g.L[0][0, 0]


def assemble_reference(symbol, matrix, factotype):
    """The historical per-entry scatter loop (one searchsorted per
    value), kept verbatim as the oracle for the vectorized assemble."""
    factor = NumericFactor.allocate(symbol, factotype, matrix.values.dtype)
    col2cblk = symbol.col2cblk
    cblk_ptr = symbol.cblk_ptr
    rows_all, cols_all, vals_all = matrix.to_coo()
    for r, c, v in zip(rows_all, cols_all, vals_all):
        k = int(col2cblk[c])
        if r >= cblk_ptr[k]:  # lower-and-diagonal entry
            rloc = int(np.searchsorted(factor.rows[k], r))
            factor.L[k][rloc, c - cblk_ptr[k]] = v
        elif factotype == "lu":  # strict upper: U panel of the row owner
            t = int(col2cblk[r])
            rloc = int(np.searchsorted(factor.rows[t], c))
            factor.U[t][rloc, r - cblk_ptr[t]] = v
    return factor


class TestAssembleVectorized:
    """The grouped fancy-index assemble must be bitwise equal to the
    per-entry searchsorted loop it replaced."""

    @pytest.mark.parametrize("factotype", ["llt", "lu"])
    def test_matches_reference(self, grid2d_small, factotype):
        res = analyze(grid2d_small)
        permuted = grid2d_small.permute(res.perm.perm)
        fast = NumericFactor.assemble(res.symbol, permuted, factotype)
        ref = assemble_reference(res.symbol, permuted, factotype)
        for a, b in zip(ref.L, fast.L):
            assert np.array_equal(a, b)
        if factotype == "lu":
            for a, b in zip(ref.U, fast.U):
                assert np.array_equal(a, b)

    def test_matches_reference_complex(self, helmholtz_small):
        res = analyze(helmholtz_small)
        permuted = helmholtz_small.permute(res.perm.perm)
        fast = NumericFactor.assemble(res.symbol, permuted, "ldlt")
        ref = assemble_reference(res.symbol, permuted, "ldlt")
        assert fast.dtype == ref.dtype == np.complex128
        for a, b in zip(ref.L, fast.L):
            assert np.array_equal(a, b)

    def test_matches_reference_unsymmetric_values(self, grid2d_medium):
        """LU with values that differ across the diagonal (Aᵀ ≠ A)."""
        res = analyze(grid2d_medium)
        permuted = grid2d_medium.permute(res.perm.perm)
        rng = np.random.default_rng(11)
        permuted.values[:] = permuted.values + 0.25 * rng.standard_normal(
            permuted.values.shape
        )
        fast = NumericFactor.assemble(res.symbol, permuted, "lu")
        ref = assemble_reference(res.symbol, permuted, "lu")
        for a, b in zip(ref.L, fast.L):
            assert np.array_equal(a, b)
        for a, b in zip(ref.U, fast.U):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# a pattern entry the symbol has no place for
# ----------------------------------------------------------------------
def _with_stray_pair(backend, request):
    """``grid_laplacian_3d(5)``'s symbol and its permuted pattern plus the
    pair (122, 0) / (0, 122), which no panel of the symbol holds (panel
    0's rows are 0, 10, 49, 120, 123, 124)."""
    from repro.sparse.csc import coo_to_csc
    from repro.sparse.generators import grid_laplacian_3d

    if backend == "python":
        request.getfixturevalue("python_analysis")
    matrix = grid_laplacian_3d(5)
    res = analyze(matrix)
    permuted = matrix.permute(res.perm.perm)
    rows, cols, vals = permuted.to_coo()
    stray = coo_to_csc(permuted.n_rows, permuted.n_cols,
                       np.r_[rows, 122, 0], np.r_[cols, 0, 122],
                       np.r_[vals, 0.01, 0.01])
    return res.symbol, stray


@pytest.mark.parametrize("backend", ["native", "python"])
@pytest.mark.parametrize("factotype", ["ldlt", "lu"])
@pytest.mark.parametrize("driver", ["sequential", "threaded"])
def test_entry_outside_the_symbol_is_rejected(request, backend,
                                              factotype, driver):
    """Assembly used to land (122, 0) on a neighbouring slot of panel 0,
    which a later write overwrote: the factor silently lost the entry.
    Both assembly maps now name the first such entry, in storage order,
    through both drivers."""
    from repro.core.factorization import factorize_sequential
    from repro.runtime.threaded import factorize_threaded

    symbol, stray = _with_stray_pair(backend, request)
    run = factorize_sequential if driver == "sequential" else \
        factorize_threaded
    with pytest.raises(ValueError, match=r"entry \(122, 0\) is not in the "
                                         r"symbol: panel 0"):
        run(symbol, stray, factotype)


@pytest.mark.parametrize("backend", ["native", "python"])
def test_upper_entry_outside_the_symbol_is_rejected(request, backend):
    """An LU upper entry lands transposed in its row's panel: (0, 122)
    alone has no place in panel 0 either."""
    from repro.core.factor import AssemblyMap
    from repro.sparse.csc import coo_to_csc

    symbol, stray = _with_stray_pair(backend, request)
    rows, cols, vals = stray.to_coo()
    keep = ~((rows == 122) & (cols == 0))
    upper = coo_to_csc(stray.n_rows, stray.n_cols, rows[keep], cols[keep],
                       vals[keep])
    AssemblyMap(symbol, upper.colptr, upper.rowind, False)   # L side only
    with pytest.raises(ValueError, match=r"entry \(0, 122\) is not in the "
                                         r"symbol: panel 0"):
        AssemblyMap(symbol, upper.colptr, upper.rowind, True)
