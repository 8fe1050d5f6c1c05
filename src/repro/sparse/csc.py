"""Compressed-sparse-column matrix container.

The container is intentionally minimal: the downstream pipeline (ordering,
symbolic factorization, numerical factorization) reads the three flat
arrays directly.  Construction and structural transformations are
vectorised — per-entry Python loops are avoided throughout, following the
profile-first/vectorise idioms of the project coding guides.

Conventions
-----------
* ``colptr`` has length ``n + 1``; column ``j`` owns entries
  ``rowind[colptr[j]:colptr[j+1]]``.
* Row indices are sorted within each column and contain no duplicates
  (duplicates are summed at construction time).
* ``values`` may be ``None`` for pattern-only matrices (the symbolic
  pipeline never touches values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SparseMatrixCSC", "coo_to_csc", "bucket_pointers", "entry_owners"]


def bucket_pointers(index: np.ndarray, n: int) -> np.ndarray:
    """``ptr`` (length ``n + 1``) with ``ptr[i + 1] - ptr[i]`` = how many
    entries of ``index`` equal ``i``: ``colptr`` from sorted column ids."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n), out=ptr[1:])
    return ptr


def entry_owners(ptr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bucket_pointers`: the bucket of every entry (the
    column of every CSC entry, the source of every adjacency entry)."""
    return np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))


def coo_to_csc(
    n_rows: int,
    n_cols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: Optional[np.ndarray] = None,
    *,
    sum_duplicates: bool = True,
) -> "SparseMatrixCSC":
    """Build a :class:`SparseMatrixCSC` from coordinate triplets.

    Entries are sorted into column-major order; duplicate ``(row, col)``
    coordinates are summed when ``sum_duplicates`` is true (the Matrix
    Market convention), otherwise they raise ``ValueError``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have identical shapes")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of range")

    # Column-major sort on one key (fits int64 for any matrix that fits in
    # memory); only the summation order of duplicate values needs it stable.
    key = cols * n_rows + rows
    stable = sum_duplicates and values is not None
    order = np.argsort(key, kind="stable" if stable else None)
    key, rows, cols = key[order], rows[order], cols[order]
    vals = None if values is None else np.asarray(values)[order]

    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    if not keep.all():
        if not sum_duplicates:
            raise ValueError(f"{np.count_nonzero(~keep)} duplicate coordinates")
        if vals is not None:
            # Accumulate each run of duplicates onto its first entry.
            first = np.zeros(np.count_nonzero(keep), dtype=vals.dtype)
            np.add.at(first, np.cumsum(keep) - 1, vals)
            vals = first
        rows, cols = rows[keep], cols[keep]
    return SparseMatrixCSC(
        n_rows, n_cols, bucket_pointers(cols, n_cols), rows, vals
    )


@dataclass
class SparseMatrixCSC:
    """A CSC sparse matrix with optional values.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    colptr:
        ``int64`` array of length ``n_cols + 1``.
    rowind:
        ``int64`` array of row indices, sorted within each column.
    values:
        Numeric array aligned with ``rowind``, or ``None`` for a
        pattern-only matrix.
    """

    n_rows: int
    n_cols: int
    colptr: np.ndarray
    rowind: np.ndarray
    values: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.rowind.size)

    @property
    def dtype(self):
        return None if self.values is None else self.values.dtype

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def is_pattern(self) -> bool:
        return self.values is None

    def col(self, j: int) -> np.ndarray:
        """Row indices of column ``j`` (a view, do not mutate)."""
        return self.rowind[self.colptr[j] : self.colptr[j + 1]]

    def col_values(self, j: int) -> np.ndarray:
        if self.values is None:
            raise ValueError("pattern-only matrix has no values")
        return self.values[self.colptr[j] : self.colptr[j + 1]]

    def check(self) -> None:
        """Validate structural invariants; raises ``ValueError`` on breakage."""
        if self.colptr.shape != (self.n_cols + 1,):
            raise ValueError("colptr has wrong length")
        if self.colptr[0] != 0 or self.colptr[-1] != self.rowind.size:
            raise ValueError("colptr endpoints inconsistent with rowind")
        if np.any(np.diff(self.colptr) < 0):
            raise ValueError("colptr must be non-decreasing")
        if self.rowind.size:
            if self.rowind.min() < 0 or self.rowind.max() >= self.n_rows:
                raise ValueError("row index out of range")
        cols = entry_owners(self.colptr)
        unsorted = (cols[1:] == cols[:-1]) & (np.diff(self.rowind) <= 0)
        if unsorted.any():
            raise ValueError(f"column {cols[1:][unsorted][0]} not strictly sorted")
        if self.values is not None and self.values.shape != self.rowind.shape:
            raise ValueError("values misaligned with rowind")

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Return ``(rows, cols, values)`` coordinate arrays."""
        return self.rowind.copy(), entry_owners(self.colptr), (
            None if self.values is None else self.values.copy()
        )

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (tests / small problems only)."""
        dtype = self.dtype if self.values is not None else np.float64
        out = np.zeros((self.n_rows, self.n_cols), dtype=dtype)
        rows, cols, vals = self.to_coo()
        out[rows, cols] = 1.0 if vals is None else vals
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csc_matrix`` (validation only)."""
        import scipy.sparse as sp

        vals = (
            np.ones(self.nnz, dtype=np.float64)
            if self.values is None
            else self.values
        )
        return sp.csc_matrix(
            (vals, self.rowind, self.colptr), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrixCSC":
        """Build from any scipy sparse matrix (validation only)."""
        m = mat.tocsc()
        m.sum_duplicates()
        m.sort_indices()
        return cls(
            m.shape[0],
            m.shape[1],
            m.indptr.astype(np.int64),
            m.indices.astype(np.int64),
            m.data.copy(),
        )

    @classmethod
    def from_dense(cls, arr: np.ndarray, *, tol: float = 0.0) -> "SparseMatrixCSC":
        arr = np.asarray(arr)
        rows, cols = np.nonzero(np.abs(arr) > tol)
        return coo_to_csc(
            arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols]
        )

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "SparseMatrixCSC":
        idx = np.arange(n, dtype=np.int64)
        return cls(
            n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n, dtype=dtype)
        )

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "SparseMatrixCSC":
        """Return :math:`A^T` (O(nnz) counting transpose)."""
        rows, cols, vals = self.to_coo()
        return coo_to_csc(
            self.n_cols, self.n_rows, cols, rows, vals, sum_duplicates=False
        )

    def pattern(self) -> "SparseMatrixCSC":
        """Drop values, keep the structure."""
        return SparseMatrixCSC(
            self.n_rows, self.n_cols, self.colptr.copy(), self.rowind.copy()
        )

    def symmetrize_pattern(self) -> "SparseMatrixCSC":
        """Pattern of :math:`A + A^T` (no values).

        This is the graph the solver analyses: PaStiX always works on the
        symmetrised pattern so the symbolic structure is independent of the
        numerical values (static pivoting).
        """
        if not self.is_square:
            raise ValueError("symmetrize requires a square matrix")
        rows, cols, _ = self.to_coo()
        # Sorted by row (stably, so columns ascend within a row), a
        # symmetric pattern is its own column-major listing with rows and
        # columns swapped: the common case, and nothing to add then.
        by_row = np.argsort(rows, kind="stable")
        if np.array_equal(rows[by_row], cols) and np.array_equal(cols[by_row], rows):
            return self.pattern()
        allr = np.concatenate([rows, cols])
        allc = np.concatenate([cols, rows])
        return coo_to_csc(self.n_rows, self.n_cols, allr, allc)

    def symmetrize_values(self) -> "SparseMatrixCSC":
        """Numeric :math:`(A + A^T) / 2` — handy for building SPD tests."""
        if self.values is None:
            raise ValueError("pattern-only matrix")
        rows, cols, vals = self.to_coo()
        allr = np.concatenate([rows, cols])
        allc = np.concatenate([cols, rows])
        allv = np.concatenate([vals, vals]) * 0.5
        return coo_to_csc(self.n_rows, self.n_cols, allr, allc, allv)

    def lower_triangle(self, *, strict: bool = False) -> "SparseMatrixCSC":
        """Keep entries with ``row >= col`` (or ``>`` when strict)."""
        rows, cols, vals = self.to_coo()
        keep = rows > cols if strict else rows >= cols
        return coo_to_csc(
            self.n_rows,
            self.n_cols,
            rows[keep],
            cols[keep],
            None if vals is None else vals[keep],
            sum_duplicates=False,
        )

    def with_full_diagonal(self, fill_value: float = 0.0) -> "SparseMatrixCSC":
        """Ensure every diagonal entry is structurally present."""
        if not self.is_square:
            raise ValueError("square matrices only")
        rows, cols, vals = self.to_coo()
        have = np.zeros(self.n_rows, dtype=bool)
        have[rows[rows == cols]] = True
        missing = np.flatnonzero(~have).astype(np.int64)
        if missing.size == 0:
            return self
        rows = np.concatenate([rows, missing])
        cols = np.concatenate([cols, missing])
        if vals is not None:
            vals = np.concatenate(
                [vals, np.full(missing.size, fill_value, dtype=vals.dtype)]
            )
        return coo_to_csc(self.n_rows, self.n_cols, rows, cols, vals)

    def permute(self, perm: np.ndarray) -> "SparseMatrixCSC":
        """Symmetric permutation :math:`P A P^T`.

        ``perm`` maps *old* index → *new* index (scatter convention):
        row/column ``i`` of ``A`` becomes row/column ``perm[i]``; it must
        be a permutation of ``range(n)``.  Runs the analysis helper's
        ``repro_permute_pattern`` (two counting sorts) when it loads,
        :meth:`_permute_numpy` otherwise; the two are identical.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n_rows,) or not self.is_square:
            raise ValueError("perm must have length n for a square matrix")
        n = self.n_rows
        if n and (perm.min() < 0 or perm.max() >= n
                  or np.bincount(perm, minlength=n).max() != 1):
            raise ValueError("perm must be a permutation of range(n)")
        from repro.graph import native

        lib = native.library()
        out = (None if lib is None else native.permute_pattern(
            lib, n, self.colptr, self.rowind, perm, self.values is not None))
        if out is None:
            return self._permute_numpy(perm)
        colptr, rowind, src = out
        return SparseMatrixCSC(n, n, colptr, rowind,
                               None if self.values is None
                               else self.values[src])

    def _permute_numpy(self, perm: np.ndarray) -> "SparseMatrixCSC":
        """:meth:`permute`'s NumPy body: the path without a C compiler,
        and the oracle the C counting sorts equal array for array."""
        rows, cols, vals = self.to_coo()
        return coo_to_csc(
            self.n_rows,
            self.n_cols,
            perm[rows],
            perm[cols],
            vals,
            sum_duplicates=False,
        )

    # ------------------------------------------------------------------
    # numeric helpers
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` without materialising a dense matrix.

        ``x`` may be a vector of length ``n_cols`` or a block of
        right-hand sides of shape ``(n_cols, k)``.
        """
        if self.values is None:
            raise ValueError("pattern-only matrix")
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.n_cols:
            raise ValueError(f"x has shape {x.shape}, not ({self.n_cols}[, k])")
        from repro.kernels.native import csc_matvec

        out = csc_matvec(self.n_rows, self.colptr, self.rowind, self.values, x)
        return self._matvec_numpy(x) if out is None else out

    def _matvec_numpy(self, x: np.ndarray) -> np.ndarray:
        """:meth:`matvec`'s NumPy body: the path without a C compiler,
        and the oracle the C loop is bit-identical to."""
        # Entries are stored column by column: x[col] per entry is a repeat.
        # A block goes one column at a time: no (nnz, k) temporary, and a
        # 1-D ``np.add.at`` runs NumPy's indexed-loop fast path (the 2-D
        # call has none) with the summation order it always had.
        counts = np.diff(self.colptr)
        out = np.zeros(
            x.shape[1:] + (self.n_rows,),
            dtype=np.result_type(self.values.dtype, x.dtype),
        )
        for xj, oj in zip(np.atleast_2d(x.T), np.atleast_2d(out)):
            # Named, not a temporary: NumPy reuses a temporary operand of
            # 256 KiB or more as the output, with the operands swapped,
            # and a complex product of its fused multiply-add loops is not
            # symmetric in them — the rounding would depend on the size.
            xs = np.repeat(xj, counts)
            np.add.at(oj, self.rowind, self.values * xs)
        return np.ascontiguousarray(out.T)

    def diagonal(self) -> np.ndarray:
        """Extract the diagonal as a dense vector (missing entries = 0)."""
        if self.values is None:
            raise ValueError("pattern-only matrix")
        n = min(self.n_rows, self.n_cols)
        out = np.zeros(n, dtype=self.values.dtype)
        rows, cols, vals = self.to_coo()
        mask = rows == cols
        out[rows[mask]] = vals[mask]
        return out

    def scale_diagonal_dominant(self, factor: float = 1.1) -> "SparseMatrixCSC":
        """Return a copy whose diagonal dominates each column's 1-norm.

        Used by generators to make LU-without-pivoting numerically safe
        (the paper's solvers rely on static pivoting, which presumes the
        reordered matrix is factorisable without row exchanges).
        """
        if self.values is None:
            raise ValueError("pattern-only matrix")
        rows, cols, vals = self.to_coo()
        colsum = np.zeros(self.n_cols, dtype=np.float64)
        off = rows != cols
        np.add.at(colsum, cols[off], np.abs(vals[off]))
        newvals = vals.copy()
        diag_mask = ~off
        newvals[diag_mask] = (
            np.sign(vals[diag_mask].real + (vals[diag_mask].real == 0))
            * (np.abs(vals[diag_mask]) + factor * colsum[cols[diag_mask]])
        ).astype(vals.dtype)
        return coo_to_csc(
            self.n_rows, self.n_cols, rows, cols, newvals, sum_duplicates=False
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "pattern" if self.values is None else str(self.values.dtype)
        return (
            f"SparseMatrixCSC(shape={self.shape}, nnz={self.nnz}, {kind})"
        )
