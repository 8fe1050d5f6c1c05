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
made on first access (:class:`ArenaPanels`), and the native kernel
(:mod:`repro.kernels.native`) reaches every panel from the arena's base
pointer.  Every factor is arena-backed: :meth:`NumericFactor.allocate`
and :meth:`NumericFactor.assemble` build the arenas, and
:meth:`NumericFactor.copy` copies them.

Assembly is one gather-scatter per side, ``arena[dst] = values[src]``,
through an :class:`AssemblyMap`: the value → arena positions depend on
the symbol and the pattern only, so the map is built once and memoised in
the symbol's plan store, kept while the pattern arrays are the very ones
it was built from (held by reference).
A refactorization of the same pattern arrays reuses it.  The map is
built by ``repro_assembly_map`` of the analysis helper
(:func:`repro.graph.native.assembly_map`, on the arrays the plan pass
checked) when it loads, by its NumPy body otherwise; a pattern entry the
symbol has no place for is a ``ValueError`` on both.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from repro.kernels.indexcache import panel_layout
from repro.sparse.csc import SparseMatrixCSC, entry_owners
from repro.symbolic.structures import SymbolMatrix, memo, plan_store

__all__ = ["ArenaPanels", "AssemblyMap", "NumericFactor", "assembly_map"]

_FACTOTYPES = ("llt", "ldlt", "lu")


class ArenaPanels(Sequence):
    """The panels of one arena: item ``k`` is ``arena[bounds[k]:bounds[k
    + 1]]``, shaped ``(-1, width[k])`` when ``width`` is given (``L``,
    ``U``) and flat otherwise (``D``).  A view is made on first access and
    kept, so a factor the native kernel runs end to end makes none."""

    def __init__(self, arena: np.ndarray, bounds: np.ndarray,
                 width: Optional[np.ndarray] = None) -> None:
        self.arena = arena
        self._bounds = bounds
        self._width = width
        self._views: list[Optional[np.ndarray]] = [None] * (bounds.size - 1)

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        view = self._views[k]
        if view is None:
            k = range(len(self))[k]
            view = self.arena[int(self._bounds[k]): int(self._bounds[k + 1])]
            if self._width is not None:
                view = view.reshape(-1, int(self._width[k]))
            self._views[k] = view
        return view

    def __iter__(self):
        return (self[k] for k in range(len(self)))


class AssemblyMap:
    """Where every value of one pattern lands in the arenas of one symbol.

    ``L_src`` / ``L_dst``: the value indices of the lower-and-diagonal
    entries (row at or below the first column of the owning cblk) and
    their ``L_arena`` positions.  ``U_src`` / ``U_dst`` (LU only): the
    strict upper cross-cblk entries, stored transposed in the row owner's
    U panel — entry ``(i, j)``, ``i < j``, is row ``j``, column ``i`` of
    that panel.  ``colptr`` / ``rowind`` are the pattern arrays the map
    was built from, kept by reference as its memo key
    (:func:`assembly_map`).
    """

    def __init__(self, symbol: SymbolMatrix, colptr: np.ndarray,
                 rowind: np.ndarray, lu: bool) -> None:
        # Lazy: the analysis helper and the plan pass sit above.
        from repro.dag.builder import factor_plan
        from repro.graph import native

        self.symbol, self.colptr, self.rowind = symbol, colptr, rowind
        layout = panel_layout(symbol)
        lib = native.library()
        checked = None if lib is None else memo(
            symbol, "symbol arrays",
            lambda: factor_plan(symbol).get("symbol arrays"))
        try:
            sides = (None if checked is None else native.assembly_map(
                lib, checked, layout, colptr, rowind, lu))
        except LookupError as missing:
            self._missing(int(missing.args[0]))
        if sides is None:
            sides = self._map_numpy(layout, lu)
        self.L_src, self.L_dst, self.U_src, self.U_dst = sides

    def _map_numpy(self, layout, lu: bool) -> tuple:
        """The map's NumPy body: the path without a C compiler, and the
        oracle ``repro_assembly_map`` equals array for array."""
        symbol, colptr, rowind = self.symbol, self.colptr, self.rowind
        cols = entry_owners(colptr)
        owner = symbol.col2cblk[cols]
        bad = []

        def positions(src, tgt, grow, gcol):
            """Arena index of panel ``tgt``'s (grow, gcol); records the
            first entry of ``src`` whose row the panel does not hold."""
            local = layout.local_rows(tgt, grow)
            at = np.minimum(layout.row_ptr[tgt] + local, layout.rows.size - 1)
            held = (local < layout.height[tgt]) & (layout.rows[at] == grow)
            if not held.all():
                bad.append(int(src[np.argmin(held)]))
            return (layout.offset[tgt] + local * layout.width[tgt]
                    + (gcol - symbol.cblk_ptr[tgt]))

        low = rowind >= symbol.cblk_ptr[owner]
        L_src = np.flatnonzero(low)
        L_dst = positions(L_src, owner[low], rowind[low], cols[low])
        U_src = U_dst = None
        if lu:
            # In-diagonal-block upper entries were already placed by the
            # lower side (row >= fcol covers them).
            U_src = np.flatnonzero(~low)
            urows = rowind[U_src]
            U_dst = positions(U_src, symbol.col2cblk[urows], cols[U_src],
                              urows)
        if bad:
            self._missing(min(bad))
        return L_src, L_dst, U_src, U_dst

    def _missing(self, entry: int) -> NoReturn:
        """Raise for pattern entry ``entry``, which lands in no row of
        the panel it belongs to: the pattern is not the symbol's."""
        row = int(self.rowind[entry])
        col = int(np.searchsorted(self.colptr, entry, side="right")) - 1
        owner, fcol = self.symbol.col2cblk, self.symbol.cblk_ptr
        panel = owner[col] if row >= fcol[owner[col]] else owner[row]
        raise ValueError(
            f"pattern entry ({row}, {col}) is not in the symbol: panel "
            f"{int(panel)} holds no place for it")

    def apply(self, factor: "NumericFactor", values: np.ndarray) -> None:
        """Scatter ``values`` into ``factor``'s (zeroed) arenas."""
        factor.L_arena[self.L_dst] = values[self.L_src]
        if factor.U_arena is not None:
            factor.U_arena[self.U_dst] = values[self.U_src]


def assembly_map(symbol: SymbolMatrix, matrix: SparseMatrixCSC,
                 factotype: str) -> AssemblyMap:
    """The :class:`AssemblyMap` of ``matrix``'s pattern into ``symbol``'s
    panels, memoised in its plan store.

    The store keeps one map per side set (LU or not) and reuses it while
    ``matrix`` carries the very ``colptr`` / ``rowind`` arrays it was
    built from: a caller that refactorizes new values on the same pattern
    arrays (:class:`repro.core.solver.SparseSolver`) builds it once.  Do
    not edit those arrays in place.  A lost race between concurrent first
    callers at worst builds twice; both results are identical.
    """
    key = ("assembly", factotype == "lu")

    def build() -> AssemblyMap:
        return AssemblyMap(symbol, matrix.colptr, matrix.rowind, key[1])

    amap = memo(symbol, key, build)
    if amap.colptr is not matrix.colptr or amap.rowind is not matrix.rowind:
        amap = plan_store(symbol)[key] = build()
    return amap


@dataclass
class NumericFactor:
    """Block storage of the numerical factor(s)."""

    symbol: SymbolMatrix
    factotype: str
    dtype: np.dtype
    L: Sequence[np.ndarray]
    U: Optional[Sequence[np.ndarray]]
    D: Optional[Sequence[np.ndarray]]
    rows: Sequence[np.ndarray]
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
    #: The arenas ``L``/``U``/``D`` are views of (``None`` for an absent
    #: side: ``U`` outside LU, ``D`` outside LDLᵀ).
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
                     ArenaPanels(layout.rows, layout.row_ptr))
        factor._bind_arenas(
            np.zeros(int(layout.offset[-1]), dtype=dtype),
            np.zeros(int(layout.offset[-1]), dtype=dtype)
            if factotype == "lu" else None,
            np.zeros(symbol.n, dtype=dtype) if factotype == "ldlt" else None,
        )
        return factor

    def _bind_arenas(self, L_arena, U_arena, D_arena) -> None:
        """Adopt the arenas; the per-panel views follow on demand."""
        layout = panel_layout(self.symbol)
        self.L_arena, self.U_arena, self.D_arena = L_arena, U_arena, D_arena
        self.L = ArenaPanels(L_arena, layout.offset, layout.width)
        self.U = (None if U_arena is None
                  else ArenaPanels(U_arena, layout.offset, layout.width))
        self.D = (None if D_arena is None
                  else ArenaPanels(D_arena, self.symbol.cblk_ptr))

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
        for ``lu`` both triangles are scattered (L and U sides).  The
        positions come from the memoised :func:`assembly_map`.
        """
        if matrix.values is None:
            raise ValueError("assemble needs numeric values")
        if matrix.n_rows != symbol.n:
            raise ValueError("matrix size does not match symbol")
        amap = assembly_map(symbol, matrix, factotype)
        factor = cls.allocate(symbol, factotype,
                              dtype or matrix.values.dtype)
        amap.apply(factor, matrix.values)
        return factor

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.symbol.n

    @property
    def n_cblk(self) -> int:
        return self.symbol.n_cblk

    def nbytes(self) -> int:
        """Total bytes of panel storage (the panels tile their arenas)."""
        return sum(a.nbytes for a in (self.L_arena, self.U_arena,
                                      self.D_arena) if a is not None)

    def copy(self) -> "NumericFactor":
        out = NumericFactor(
            self.symbol, self.factotype, self.dtype, [], None, None, self.rows
        )
        out._bind_arenas(
            *(None if a is None else a.copy()
              for a in (self.L_arena, self.U_arena, self.D_arena))
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
