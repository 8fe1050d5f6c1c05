"""Numeric factor storage (block CSC, PaStiX's ``SolverMatrix`` analogue).

Each cblk ``k`` owns a dense tall-and-skinny panel ``L[k]`` of shape
``(height_k, width_k)`` whose rows are the factor rows of the panel
(``symbol.cblk_rows(k)``: the ``width`` diagonal columns first, then the
below rows).  LU keeps a second panel ``U[k]`` of identical shape holding
``Uᵀ`` (the packed diagonal block lives in ``L[k]``'s top square); LDLᵀ
keeps the diagonal ``D[k]``.

Storing each panel as one contiguous array is exactly the paper's §III
design: "each panel is stored as a single tall and skinny matrix, such
that the TRSM granularity can be decided at runtime and is independent of
the data storage".  The panels of one side are consecutive slices of one
arena (``L_arena``; ``U_arena``, ``D_arena``), laid out by
:class:`repro.kernels.indexcache.PanelLayout`: ``factor.L[k]`` is a view,
and the native kernel (:mod:`repro.kernels.native`) reaches every panel
from the arena's base pointer.  A factor built from plain per-panel lists
has no arena and runs on the NumPy kernels only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.kernels.indexcache import panel_layout
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.structures import SymbolMatrix

__all__ = ["NumericFactor"]

_FACTOTYPES = ("llt", "ldlt", "lu")


@dataclass
class NumericFactor:
    """Block storage of the numerical factor(s)."""

    symbol: SymbolMatrix
    factotype: str
    dtype: np.dtype
    L: list[np.ndarray]
    U: Optional[list[np.ndarray]]
    D: Optional[list[np.ndarray]]
    rows: list[np.ndarray]
    #: Optional :class:`repro.kernels.dense.PivotMonitor` enabling
    #: static-pivot perturbation during panel factorizations.
    pivot_monitor: Optional[object] = None
    #: Optional :class:`repro.kernels.indexcache.CoupleMapCache` holding
    #: the precomputed per-couple scatter maps; the panel kernels use it
    #: when present instead of re-deriving the maps per update.
    index_cache: Optional[object] = None
    #: Effective numeric kernel backend: ``"native"``
    #: (:mod:`repro.kernels.native`) or ``"numpy"``.
    kernels: str = "numpy"
    #: The arenas ``L``/``U``/``D`` are views of (``None`` for a factor
    #: built from plain lists).
    L_arena: Optional[np.ndarray] = None
    U_arena: Optional[np.ndarray] = None
    D_arena: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls, symbol: SymbolMatrix, factotype: str, dtype=np.float64
    ) -> "NumericFactor":
        """Allocate zeroed panels for the given symbol structure.

        One zeroed arena per side; ``L[k]`` (``U[k]``, ``D[k]``) are views
        of it at the offsets of the symbol's ``PanelLayout``
        (:mod:`repro.kernels.indexcache`), so the native kernel reaches
        the same bytes from one base pointer.
        """
        if factotype not in _FACTOTYPES:
            raise ValueError(f"factotype must be one of {_FACTOTYPES}")
        dtype = np.dtype(dtype)
        layout = panel_layout(symbol)
        factor = cls(symbol, factotype, dtype, [], None, None,
                     layout.panel_rows)
        factor._bind_arenas(
            np.zeros(int(layout.offset[-1]), dtype=dtype),
            np.zeros(int(layout.offset[-1]), dtype=dtype)
            if factotype == "lu" else None,
            np.zeros(symbol.n, dtype=dtype) if factotype == "ldlt" else None,
        )
        return factor

    def _bind_arenas(self, L_arena, U_arena, D_arena) -> None:
        """Adopt the arenas and re-derive the per-panel views."""
        layout = panel_layout(self.symbol)
        off = layout.offset.tolist()
        shapes = list(zip(layout.height.tolist(), layout.width.tolist()))

        def panels(arena):
            return [
                arena[off[k]: off[k + 1]].reshape(shape)
                for k, shape in enumerate(shapes)
            ]

        self.L_arena, self.U_arena, self.D_arena = L_arena, U_arena, D_arena
        self.L = panels(L_arena)
        self.U = None if U_arena is None else panels(U_arena)
        ptr = self.symbol.cblk_ptr.tolist()
        self.D = None if D_arena is None else [
            D_arena[ptr[k]: ptr[k + 1]] for k in range(len(shapes))
        ]

    @classmethod
    def assemble(
        cls,
        symbol: SymbolMatrix,
        matrix: SparseMatrixCSC,
        factotype: str,
        dtype=None,
    ) -> "NumericFactor":
        """Allocate and scatter the (already permuted) matrix values in.

        ``matrix`` must be ordered consistently with ``symbol`` (i.e. the
        output of ``pattern.permute`` with the analysis permutation, with
        values).  For ``llt``/``ldlt`` only the lower triangle is read;
        for ``lu`` both triangles are scattered (L and U sides).
        """
        if matrix.values is None:
            raise ValueError("assemble needs numeric values")
        if matrix.n_rows != symbol.n:
            raise ValueError("matrix size does not match symbol")
        dtype = np.dtype(dtype or matrix.values.dtype)
        factor = cls.allocate(symbol, factotype, dtype)
        layout = panel_layout(symbol)

        col2cblk = symbol.col2cblk
        rows_all, cols_all, vals_all = matrix.to_coo()
        owner = col2cblk[cols_all]

        def scatter(arena, tgt, grow, gcol, gval):
            """One flat assignment of panel ``tgt``'s (grow, gcol) = gval."""
            arena[
                layout.offset[tgt]
                + layout.local_rows(tgt, grow) * layout.width[tgt]
                + (gcol - symbol.cblk_ptr[tgt])
            ] = gval

        # Lower-and-diagonal part: entries with row inside the owner's
        # factor rows (row >= first column of the owning cblk).
        low = rows_all >= symbol.cblk_ptr[owner]
        scatter(factor.L_arena, owner[low], rows_all[low], cols_all[low],
                vals_all[low])

        if factotype == "lu":
            # Strict upper cross-cblk entries go to the row-owner's U panel
            # (stored transposed).  In-diagonal-block upper entries were
            # already placed by the lower pass (row >= fcol covers them).
            # Entry (i, j), i < j: U[i, j] -> Uᵀ panel row j, col i.
            up = ~low
            scatter(factor.U_arena, col2cblk[rows_all[up]], cols_all[up],
                    rows_all[up], vals_all[up])
        return factor

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.symbol.n

    @property
    def n_cblk(self) -> int:
        return self.symbol.n_cblk

    def nbytes(self) -> int:
        """Total bytes of panel storage."""
        total = sum(p.nbytes for p in self.L)
        if self.U is not None:
            total += sum(p.nbytes for p in self.U)
        if self.D is not None:
            total += sum(d.nbytes for d in self.D)
        return total

    def copy(self) -> "NumericFactor":
        out = NumericFactor(
            self.symbol, self.factotype, self.dtype, [], None, None, self.rows
        )
        if self.L_arena is not None:
            out._bind_arenas(
                *(None if a is None else a.copy()
                  for a in (self.L_arena, self.U_arena, self.D_arena))
            )
        else:
            out.L, out.U, out.D = (
                None if side is None else [p.copy() for p in side]
                for side in (self.L, self.U, self.D)
            )
        out.pivot_monitor = self.pivot_monitor
        out.index_cache = self.index_cache
        out.kernels = self.kernels
        return out

    # ------------------------------------------------------------------
    def lower_csc(self) -> SparseMatrixCSC:
        """Export the L factor as a CSC matrix (unit/non-unit as stored).

        For ``lu`` the unit diagonal is materialised and the packed upper
        part of the diagonal block is excluded.  Mainly for tests and
        small-problem inspection.
        """
        rows_out: list[np.ndarray] = []
        cols_out: list[np.ndarray] = []
        vals_out: list[np.ndarray] = []
        for k in range(self.n_cblk):
            f = int(self.symbol.cblk_ptr[k])
            w = self.symbol.cblk_width(k)
            panel = self.L[k]
            rws = self.rows[k]
            for j in range(w):
                col_rows = rws[j:]
                col_vals = panel[j:, j].copy()
                if self.factotype == "lu":
                    col_vals[0] = 1.0
                elif self.factotype == "ldlt":
                    col_vals[0] = 1.0
                else:
                    col_vals = panel[j:, j]
                rows_out.append(col_rows)
                cols_out.append(np.full(col_rows.size, f + j, dtype=np.int64))
                vals_out.append(col_vals)
        from repro.sparse.csc import coo_to_csc

        return coo_to_csc(
            self.n,
            self.n,
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
            sum_duplicates=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mb = self.nbytes() / 1e6
        return (
            f"NumericFactor({self.factotype}, n={self.n}, "
            f"cblks={self.n_cblk}, {mb:.1f} MB)"
        )
