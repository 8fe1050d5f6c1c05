"""Unit tests for the CSC container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import native as graph_native
from repro.kernels import native
from repro.sparse.csc import SparseMatrixCSC, coo_to_csc


class TestConstruction:
    def test_coo_to_csc_basic(self):
        m = coo_to_csc(3, 3, [0, 2, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        assert m.shape == (3, 3)
        assert m.nnz == 3
        m.check()
        d = m.to_dense()
        assert d[0, 0] == 1.0 and d[2, 1] == 2.0 and d[1, 2] == 3.0

    def test_duplicates_summed(self):
        m = coo_to_csc(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 0] == 3.0

    def test_duplicates_rejected_when_disallowed(self):
        with pytest.raises(ValueError, match="duplicate"):
            coo_to_csc(2, 2, [0, 0], [0, 0], [1.0, 2.0], sum_duplicates=False)

    def test_out_of_range_row(self):
        with pytest.raises(ValueError, match="row index"):
            coo_to_csc(2, 2, [2], [0], [1.0])

    def test_out_of_range_col(self):
        with pytest.raises(ValueError, match="column index"):
            coo_to_csc(2, 2, [0], [5], [1.0])

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="identical shapes"):
            coo_to_csc(2, 2, [0, 1], [0], None)

    def test_pattern_only(self):
        m = coo_to_csc(3, 3, [0, 1], [1, 2])
        assert m.is_pattern
        assert m.values is None
        with pytest.raises(ValueError):
            m.col_values(1)

    def test_empty_matrix(self):
        m = coo_to_csc(4, 4, [], [])
        assert m.nnz == 0
        m.check()

    def test_identity(self):
        m = SparseMatrixCSC.identity(5)
        assert np.allclose(m.to_dense(), np.eye(5))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.4)
        m = SparseMatrixCSC.from_dense(d)
        assert np.allclose(m.to_dense(), d)

    def test_from_scipy_roundtrip(self):
        import scipy.sparse as sp

        s = sp.random(10, 10, 0.3, random_state=1, format="csc")
        m = SparseMatrixCSC.from_scipy(s)
        assert np.allclose(m.to_dense(), s.toarray())
        back = m.to_scipy()
        assert np.allclose(back.toarray(), s.toarray())

    def test_check_rejects_bad_colptr(self):
        m = SparseMatrixCSC.identity(3)
        m.colptr = m.colptr[:-1]
        with pytest.raises(ValueError):
            m.check()


class TestTransforms:
    def test_transpose(self):
        m = coo_to_csc(3, 2, [0, 2, 1], [0, 0, 1], [1.0, 2.0, 3.0])
        t = m.transpose()
        assert t.shape == (2, 3)
        assert np.allclose(t.to_dense(), m.to_dense().T)

    def test_symmetrize_pattern(self):
        m = coo_to_csc(3, 3, [0, 1], [1, 2], [1.0, 1.0])
        s = m.symmetrize_pattern()
        d = s.to_dense()
        assert d[0, 1] == d[1, 0] == 1.0
        assert d[1, 2] == d[2, 1] == 1.0
        assert s.is_pattern

    def test_symmetrize_requires_square(self):
        m = coo_to_csc(2, 3, [0], [1], [1.0])
        with pytest.raises(ValueError):
            m.symmetrize_pattern()

    def test_symmetrize_values(self):
        m = coo_to_csc(2, 2, [0, 1], [1, 0], [2.0, 4.0])
        s = m.symmetrize_values()
        d = s.to_dense()
        assert d[0, 1] == d[1, 0] == 3.0

    def test_lower_triangle(self):
        d = np.arange(9, dtype=float).reshape(3, 3) + 1
        m = SparseMatrixCSC.from_dense(d)
        low = m.lower_triangle()
        assert np.allclose(low.to_dense(), np.tril(d))
        strict = m.lower_triangle(strict=True)
        assert np.allclose(strict.to_dense(), np.tril(d, -1))

    def test_with_full_diagonal(self):
        m = coo_to_csc(3, 3, [0, 2], [1, 0], [1.0, 1.0])
        full = m.with_full_diagonal()
        rows, cols, _ = full.to_coo()
        diag = set(zip(rows[rows == cols].tolist(), cols[rows == cols].tolist()))
        assert diag == {(0, 0), (1, 1), (2, 2)}

    def test_with_full_diagonal_noop(self):
        m = SparseMatrixCSC.identity(3)
        assert m.with_full_diagonal() is m

    def test_permute_matches_dense(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((5, 5))
        m = SparseMatrixCSC.from_dense(d)
        perm = np.array([2, 0, 4, 1, 3])
        p = np.zeros((5, 5))
        p[perm, np.arange(5)] = 1
        assert np.allclose(m.permute(perm).to_dense(), p @ d @ p.T)

    def test_permute_rejects_bad_length(self):
        m = SparseMatrixCSC.identity(3)
        with pytest.raises(ValueError):
            m.permute(np.array([0, 1]))

    @pytest.mark.parametrize("backend", ["native", "python"])
    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [-1, 0, 1],
                                      [2, 2, 2]])
    def test_permute_rejects_a_non_permutation(self, monkeypatch, backend,
                                               perm):
        """Both paths refuse a ``perm`` that is not a bijection on
        ``[0, n)`` (``[0, 0, 1]`` used to return a matrix)."""
        if backend == "python":
            monkeypatch.setattr(graph_native, "library", lambda: None)
        m = coo_to_csc(3, 3, [2, 0], [2, 1], [5.0, 1.0])
        with pytest.raises(ValueError, match="permutation"):
            m.permute(np.array(perm))

    @pytest.mark.parametrize("backend", ["native", "python"])
    def test_permute_rejects_duplicate_coordinates(self, monkeypatch,
                                                   backend):
        if backend == "python":
            monkeypatch.setattr(graph_native, "library", lambda: None)
        m = SparseMatrixCSC(2, 2, np.array([0, 2, 3]), np.array([1, 1, 0]),
                            np.ones(3))
        with pytest.raises(ValueError, match="1 duplicate coordinates"):
            m.permute(np.array([1, 0]))

    def test_pattern_drops_values(self):
        m = SparseMatrixCSC.identity(3)
        assert m.pattern().is_pattern


class TestNumeric:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.5)
        m = SparseMatrixCSC.from_dense(d)
        x = rng.standard_normal(7)
        assert np.allclose(m.matvec(x), d @ x)

    def test_matvec_complex(self):
        d = np.array([[1 + 1j, 0], [2j, 3.0]])
        m = SparseMatrixCSC.from_dense(d)
        x = np.array([1.0, 1j])
        assert np.allclose(m.matvec(x), d @ x)

    def test_diagonal(self):
        d = np.diag([1.0, 2.0, 3.0])
        d[0, 2] = 5.0
        m = SparseMatrixCSC.from_dense(d)
        assert np.allclose(m.diagonal(), [1.0, 2.0, 3.0])

    def test_scale_diagonal_dominant(self):
        rng = np.random.default_rng(4)
        d = rng.standard_normal((6, 6))
        np.fill_diagonal(d, 0.1)
        m = SparseMatrixCSC.from_dense(d).scale_diagonal_dominant(1.5)
        dd = m.to_dense()
        for j in range(6):
            off = np.abs(dd[:, j]).sum() - abs(dd[j, j])
            assert abs(dd[j, j]) > off

    def test_matvec_requires_values(self):
        with pytest.raises(ValueError):
            SparseMatrixCSC.identity(3).pattern().matvec(np.ones(3))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 10_000),
)
def test_property_transpose_involution(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    m = SparseMatrixCSC.from_dense(d)
    assert np.allclose(m.transpose().transpose().to_dense(), d)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_property_permute_preserves_nnz_and_values(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    m = SparseMatrixCSC.from_dense(d)
    perm = rng.permutation(n)
    pm = m.permute(perm)
    assert pm.nnz == m.nnz
    assert np.allclose(sorted(pm.values), sorted(m.values))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_property_symmetrize_is_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    m = SparseMatrixCSC.from_dense(d)
    s = m.symmetrize_pattern().to_dense()
    assert np.array_equal(s, s.T)


# ----------------------------------------------------------------------
# matvec and coo_to_csc against the loops they replaced
# ----------------------------------------------------------------------
def _matvec_add_at(m: SparseMatrixCSC, x: np.ndarray) -> np.ndarray:
    """The ``np.add.at`` mat-vec ``matvec`` replaced (the exact oracle:
    same products, same summation order)."""
    x = np.asarray(x)
    cols = np.repeat(np.arange(m.n_cols), np.diff(m.colptr))
    prod = m.values * x[cols] if x.ndim == 1 else m.values[:, None] * x[cols]
    out = np.zeros((m.n_rows,) + x.shape[1:],
                   dtype=np.result_type(m.values.dtype, x.dtype))
    np.add.at(out, m.rowind, prod)
    return out


def _coo_to_csc_lexsort(n_rows, n_cols, rows, cols, vals):
    """The ``lexsort`` + ``np.add.at`` construction ``coo_to_csc`` replaced."""
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    vals = None if vals is None else np.asarray(vals)[order]
    keep = np.ones(rows.size, dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if vals is not None and rows.size:
        acc = np.zeros(int(keep.sum()), dtype=vals.dtype)
        np.add.at(acc, np.cumsum(keep) - 1, vals)
        vals = acc
    colptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.add.at(colptr, cols[keep] + 1, 1)
    return np.cumsum(colptr), rows[keep], vals


def _random_matrix(rng, n_rows, n_cols, cplx, density=0.35):
    d = rng.standard_normal((n_rows, n_cols))
    if cplx:
        d = d + 1j * rng.standard_normal((n_rows, n_cols))
    d = d * (rng.random((n_rows, n_cols)) < density)
    if n_rows > 2:
        d[1, :] = 0  # a row with no entries
    return SparseMatrixCSC.from_dense(d)


_X_KINDS = ("real", "complex", "int")


def _random_x(rng, shape, kind):
    if kind == "int":
        return rng.integers(-5, 6, size=shape)
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if kind == "complex" else x


@settings(max_examples=120, deadline=None)
@given(
    n_rows=st.integers(1, 14), n_cols=st.integers(1, 14),
    cplx=st.booleans(), x_kind=st.sampled_from(_X_KINDS),
    k=st.sampled_from([None, 1, 2, 5]),
    layout=st.sampled_from(["c", "f", "strided"]),
    seed=st.integers(0, 10_000),
)
def test_property_matvec_is_the_add_at_matvec(n_rows, n_cols, cplx, x_kind,
                                              k, layout, seed):
    rng = np.random.default_rng(seed)
    m = _random_matrix(rng, n_rows, n_cols, cplx)
    shape = (n_cols,) if k is None else (n_cols, k)
    if layout == "strided":
        x = _random_x(rng, (2 * n_cols,) + shape[1:], x_kind)[::2]
    else:
        x = _random_x(rng, shape, x_kind)
        if layout == "f":
            x = np.asfortranarray(x)
    got, ref = m.matvec(x), _matvec_add_at(m, x)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


def _csc_with_duplicates(rng, n_rows, n_cols, nnz, cplx):
    """A CSC matrix whose columns hold repeated, unsorted row indices (and
    a few signed zeros): ``coo_to_csc`` would sum them, so build it raw."""
    if n_rows == 0 or n_cols == 0:
        nnz = 0
    cols = np.sort(rng.integers(0, max(n_cols, 1), nnz))
    rows = rng.integers(0, max(n_rows, 1), nnz)
    vals = rng.standard_normal(nnz)
    if cplx:
        vals = vals + 1j * rng.standard_normal(nnz)
    vals[rng.random(nnz) < 0.1] *= -0.0
    colptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=colptr[1:])
    return SparseMatrixCSC(n_rows, n_cols, colptr, rows.astype(np.int64), vals)


@pytest.mark.skipif(native.availability() is not None,
                    reason="native backend unavailable")
@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(0, 30), n_cols=st.integers(0, 30),
    nnz=st.integers(0, 150), cplx=st.booleans(),
    x_kind=st.sampled_from(("matrix", "real", "int")),
    k=st.sampled_from([None, 0, 1, 3, 16]),
    seed=st.integers(0, 10_000),
)
def test_property_native_matvec_is_the_numpy_matvec(n_rows, n_cols, nnz, cplx,
                                                    x_kind, k, seed):
    """The C loop adds in stored order, as ``np.add.at`` does: the same
    bits for ``(n,)``, ``(n, k)`` and ``(n, 0)`` on float64 and
    complex128 — a complex matrix times a real or integer ``x`` too."""
    rng = np.random.default_rng(seed)
    m = _csc_with_duplicates(rng, n_rows, n_cols, nnz, cplx)
    shape = (n_cols,) if k is None else (n_cols, k)
    kind = ("complex" if cplx else "real") if x_kind == "matrix" else x_kind
    x = _random_x(rng, shape, kind)
    got = native.csc_matvec(n_rows, m.colptr, m.rowind, m.values, x)
    ref = m._matvec_numpy(x)
    assert got is not None
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got.view(np.float64)),
                          np.signbit(ref.view(np.float64)))
    assert np.array_equal(m.matvec(x), ref)


@pytest.mark.skipif(native.availability() is not None,
                    reason="native backend unavailable")
def test_native_matvec_equals_numpy_above_the_elision_size():
    """Above 256 KiB NumPy may reuse a temporary operand as the output
    and multiply with the operands swapped, which rounds a complex
    product differently; the NumPy body names its operand, so its bits
    do not depend on the size, and C reproduces them."""
    rng = np.random.default_rng(3)
    m = _csc_with_duplicates(rng, 3000, 3000, 40_000, True)
    assert m.values.nbytes >= 256 * 1024
    for shape in ((3000,), (3000, 2)):
        x = _random_x(rng, shape, "complex")
        got = native.csc_matvec(3000, m.colptr, m.rowind, m.values, x)
        assert np.array_equal(got, m._matvec_numpy(x))


@pytest.mark.skipif(native.availability() is not None,
                    reason="native backend unavailable")
def test_native_matvec_declines_what_it_cannot_reproduce():
    """A real matrix times a complex ``x``, other dtypes and index arrays
    C could not follow stay on the NumPy body (which raises its own
    errors)."""
    rng = np.random.default_rng(0)
    m = _csc_with_duplicates(rng, 6, 5, 12, False)
    z = _random_x(rng, (5, 2), "complex")
    assert native.csc_matvec(6, m.colptr, m.rowind, m.values, z) is None
    assert np.array_equal(m.matvec(z), m._matvec_numpy(z))
    f32 = m.values.astype(np.float32)
    assert native.csc_matvec(6, m.colptr, m.rowind, f32, np.ones(5)) is None
    for rowind in (m.rowind + 6, m.rowind - 6):
        assert native.csc_matvec(6, m.colptr, rowind, m.values,
                                 np.ones(5)) is None
    with pytest.raises(IndexError):
        SparseMatrixCSC(6, 5, m.colptr, m.rowind + 6, m.values).matvec(
            np.ones(5))
    assert native.csc_matvec(6, m.colptr[::-1], m.rowind, m.values,
                             np.ones(5)) is None


class TestMatvecEdges:
    def test_empty_matrix(self):
        m = coo_to_csc(0, 0, [], [], np.empty(0))
        assert m.matvec(np.empty(0)).shape == (0,)
        assert m.matvec(np.empty((0, 3))).shape == (0, 3)

    def test_no_entries_gives_zeros(self):
        m = coo_to_csc(3, 2, [], [], np.empty(0))
        assert np.array_equal(m.matvec(np.ones(2)), np.zeros(3))
        assert np.array_equal(m.matvec(np.ones((2, 4))), np.zeros((3, 4)))

    def test_float32_values_keep_their_precision(self):
        m = _random_matrix(np.random.default_rng(0), 6, 6, False)
        m32 = SparseMatrixCSC(6, 6, m.colptr, m.rowind,
                              m.values.astype(np.float32))
        x = np.random.default_rng(1).standard_normal(6).astype(np.float32)
        got = m32.matvec(x)
        assert got.dtype == np.float32
        assert np.array_equal(got, _matvec_add_at(m32, x))

    def test_wrong_length_rejected(self):
        m = SparseMatrixCSC.identity(3)
        for bad in (np.ones(4), np.ones((2, 2)), np.ones((3, 1, 1))):
            with pytest.raises(ValueError, match="shape"):
                m.matvec(bad)

    def test_pattern_only_rejected_for_blocks_too(self):
        with pytest.raises(ValueError, match="pattern"):
            SparseMatrixCSC.identity(3).pattern().matvec(np.ones((3, 2)))


@settings(max_examples=120, deadline=None)
@given(
    n_rows=st.integers(1, 9), n_cols=st.integers(1, 9),
    nnz=st.integers(0, 60), kind=st.sampled_from(["real", "complex", "none"]),
    presorted=st.booleans(), seed=st.integers(0, 10_000),
)
def test_property_coo_to_csc_is_the_lexsort_construction(
        n_rows, n_cols, nnz, kind, presorted, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    if presorted:
        order = np.lexsort((rows, cols))
        rows, cols = rows[order], cols[order]
    vals = None if kind == "none" else _random_x(rng, nnz, kind)
    colptr, rowind, values = _coo_to_csc_lexsort(n_rows, n_cols, rows, cols,
                                                 vals)
    m = coo_to_csc(n_rows, n_cols, rows, cols, vals)
    m.check()
    assert np.array_equal(m.colptr, colptr)
    assert np.array_equal(m.rowind, rowind)
    if vals is None:
        assert m.values is None
    else:
        assert m.values.dtype == values.dtype
        assert np.array_equal(m.values, values)   # same summation order
    has_duplicates = rowind.size < nnz
    if has_duplicates:
        with pytest.raises(ValueError, match="duplicate"):
            coo_to_csc(n_rows, n_cols, rows, cols, vals, sum_duplicates=False)
    else:
        strict = coo_to_csc(n_rows, n_cols, rows, cols, vals,
                            sum_duplicates=False)
        assert np.array_equal(strict.rowind, rowind)
        assert np.array_equal(strict.colptr, colptr)
        if vals is not None:
            assert np.array_equal(strict.values, values)


def test_coo_to_csc_sums_integer_values_as_integers():
    m = coo_to_csc(2, 2, [0, 0, 1], [0, 0, 1], np.array([1, 2, 5]))
    assert m.values.dtype == np.array([1]).dtype
    assert m.values.tolist() == [3, 5]
