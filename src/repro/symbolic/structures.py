"""Block symbolic structure (PaStiX-style ``SymbolMatrix``).

After supernode detection, amalgamation, and splitting, the factor is
described by *column blocks* (cblks — the panels) and *blocks* (bloks —
dense sub-blocks of a panel, each facing exactly one other cblk).  This is
the structure both runtimes unroll into the task DAG: one panel task per
cblk, one update task per (cblk, facing cblk) couple.

Layout conventions (mirroring PaStiX):

* cblk ``k`` owns columns ``cblk_ptr[k]:cblk_ptr[k+1]``;
* its bloks are ``blok_ptr[k]:blok_ptr[k+1]``, the first being the
  diagonal blok; bloks are sorted by first row;
* blok ``b`` covers rows ``blok_frow[b]:blok_lrow[b]`` (exclusive end) and
  faces cblk ``blok_face[b]`` (every blok lies inside one facing cblk).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csc import bucket_pointers, entry_owners

__all__ = ["SymbolMatrix", "CBlk", "Blok", "build_symbol", "memo", "plan_store"]


@dataclass(frozen=True)
class CBlk:
    """View of one column block (panel)."""

    index: int
    fcol: int
    lcol: int   # exclusive
    blok_range: tuple[int, int]

    @property
    def width(self) -> int:
        return self.lcol - self.fcol


@dataclass(frozen=True)
class Blok:
    """View of one dense block of a panel."""

    index: int
    frow: int
    lrow: int   # exclusive
    face: int   # facing cblk
    owner: int  # owning cblk

    @property
    def nrows(self) -> int:
        return self.lrow - self.frow


@dataclass
class SymbolMatrix:
    """Block symbolic structure of the factor.

    Attributes (all NumPy arrays, see module docstring for conventions):

    * ``cblk_ptr``  — column partition, length ``K+1``;
    * ``blok_ptr``  — cblk → blok range, length ``K+1``;
    * ``blok_frow``, ``blok_lrow``, ``blok_face``, ``blok_owner``;
    * ``col2cblk`` — column → owning cblk, length ``n``;
    * ``face_ptr`` / ``face_list`` — for each cblk, the bloks facing it
      (the in-edges of the update DAG), excluding diagonal bloks.
    """

    n: int
    cblk_ptr: np.ndarray
    blok_ptr: np.ndarray
    blok_frow: np.ndarray
    blok_lrow: np.ndarray
    blok_face: np.ndarray
    blok_owner: np.ndarray
    col2cblk: np.ndarray
    face_ptr: np.ndarray = field(default=None)  # type: ignore[assignment]
    face_list: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.face_ptr is None:
            self._build_facing_index()

    # ------------------------------------------------------------------
    @property
    def n_cblk(self) -> int:
        return int(self.cblk_ptr.size - 1)

    @property
    def n_blok(self) -> int:
        return int(self.blok_frow.size)

    def cblk(self, k: int) -> CBlk:
        return CBlk(
            k,
            int(self.cblk_ptr[k]),
            int(self.cblk_ptr[k + 1]),
            (int(self.blok_ptr[k]), int(self.blok_ptr[k + 1])),
        )

    def blok(self, b: int) -> Blok:
        return Blok(
            b,
            int(self.blok_frow[b]),
            int(self.blok_lrow[b]),
            int(self.blok_face[b]),
            int(self.blok_owner[b]),
        )

    def cblk_width(self, k: int) -> int:
        return int(self.cblk_ptr[k + 1] - self.cblk_ptr[k])

    def cblk_heights(self) -> np.ndarray:
        """:meth:`cblk_height` of every panel at once (int64)."""
        return np.add.reduceat(
            self.blok_lrow - self.blok_frow, self.blok_ptr[:-1]
        ).astype(np.int64)

    def cblk_rows(self, k: int) -> np.ndarray:
        """All factor rows of panel ``k`` (own columns then below rows)."""
        b0, b1 = int(self.blok_ptr[k]), int(self.blok_ptr[k + 1])
        return np.concatenate(
            [
                np.arange(self.blok_frow[b], self.blok_lrow[b], dtype=np.int64)
                for b in range(b0, b1)
            ]
        )

    def cblk_height(self, k: int) -> int:
        """Total number of factor rows of panel ``k`` (incl. the diagonal)."""
        b0, b1 = int(self.blok_ptr[k]), int(self.blok_ptr[k + 1])
        return int(
            (self.blok_lrow[b0:b1] - self.blok_frow[b0:b1]).sum()
        )

    def cblk_below(self, k: int) -> int:
        """Rows strictly below the diagonal blok of panel ``k``."""
        return self.cblk_height(k) - self.cblk_width(k)

    def off_diagonal_bloks(self, k: int) -> range:
        return range(int(self.blok_ptr[k]) + 1, int(self.blok_ptr[k + 1]))

    def facing_bloks(self, k: int) -> np.ndarray:
        """Off-diagonal bloks (by index) whose rows fall inside cblk ``k``."""
        return self.face_list[self.face_ptr[k]: self.face_ptr[k + 1]]

    # ------------------------------------------------------------------
    def nnz(self, *, factotype: str = "llt") -> int:
        """Structural nonzeros of the factor(s).

        ``llt``/``ldlt`` count the lower factor; ``lu`` counts L and U
        (the diagonal is shared: counted once).
        """
        widths = np.diff(self.cblk_ptr).astype(np.int64)
        below = self.cblk_heights() - widths
        lower = int((widths * (widths + 1) // 2 + widths * below).sum())
        if factotype in ("llt", "ldlt"):
            return lower
        if factotype == "lu":
            return 2 * lower - self.n
        raise ValueError(f"unknown factotype {factotype!r}")

    # ------------------------------------------------------------------
    def _build_facing_index(self) -> None:
        offdiag = np.flatnonzero(self.blok_face != self.blok_owner)
        order = offdiag[np.argsort(self.blok_face[offdiag], kind="stable")]
        self.face_ptr = bucket_pointers(self.blok_face[offdiag], self.n_cblk)
        self.face_list = order.astype(np.int64)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raises ``AssertionError``.

        Most importantly the *facing-subset* property: for any panel, the
        rows at and below any of its off-diagonal bloks must be contained
        in the structure of the facing panel — this is exactly what makes
        every GEMM update land on allocated storage.
        """
        K = self.n_cblk
        assert self.cblk_ptr[0] == 0 and self.cblk_ptr[-1] == self.n
        assert np.all(np.diff(self.cblk_ptr) > 0), "empty cblk"
        for k in range(K):
            b0, b1 = int(self.blok_ptr[k]), int(self.blok_ptr[k + 1])
            assert b1 > b0, f"cblk {k} has no bloks"
            d = self.blok(b0)
            assert d.frow == self.cblk_ptr[k] and d.lrow == self.cblk_ptr[k + 1], (
                f"cblk {k}: first blok is not the diagonal blok"
            )
            prev_end = -1
            for b in range(b0, b1):
                blk = self.blok(b)
                assert blk.owner == k
                assert blk.frow >= prev_end, f"blok {b} overlaps/unsorted"
                prev_end = blk.lrow
                assert blk.nrows > 0
                fk = blk.face
                assert (
                    self.cblk_ptr[fk] <= blk.frow
                    and blk.lrow <= self.cblk_ptr[fk + 1]
                ), f"blok {b} crosses cblk boundary"
                assert fk == self.col2cblk[blk.frow]

        # Facing-subset property.
        struct_cache: dict[int, np.ndarray] = {}

        def rows_of(k: int) -> np.ndarray:
            if k not in struct_cache:
                struct_cache[k] = self.cblk_rows(k)
            return struct_cache[k]

        for k in range(K):
            rows_k = rows_of(k)
            below = rows_k[self.cblk_width(k):]
            for b in self.off_diagonal_bloks(k):
                fk = int(self.blok_face[b])
                target = rows_of(fk)
                frow = int(self.blok_frow[b])
                tail = below[np.searchsorted(below, frow):]
                missing = np.setdiff1d(tail, target, assume_unique=True)
                assert missing.size == 0, (
                    f"update {k}->{fk}: rows {missing[:5]} absent from target"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SymbolMatrix(n={self.n}, cblks={self.n_cblk}, "
            f"bloks={self.n_blok}, nnz={self.nnz()})"
        )


def plan_store(symbol: SymbolMatrix) -> dict:
    """``symbol``'s plan store: every product of its pattern a
    factorization or solve reads again (the panel layout, the couple plan,
    the counts, the row blocks, the DAGs, the assembly map; the keys are
    listed in ``docs/solver_internals.md`` §4.0), by key.

    It lives on the symbol object, so every factorization and solve of
    one analysis shares one build of each.  A symbol owns its store: a
    copy that carried the original's ``__dict__`` over (``copy.copy``)
    gets a new, empty one.
    """
    owner, store = symbol.__dict__.get("_plans", (None, None))
    if owner is not symbol:
        store = {}
        symbol.__dict__["_plans"] = (symbol, store)
    return store


def memo(symbol: SymbolMatrix, key, build):
    """``plan_store(symbol)[key]``, set to ``build()`` on a miss (unless
    that is ``None``: nothing is memoised).  A part already memoised
    stays — one ``build`` memoised itself, or a concurrent first caller
    won the race — and every caller gets that one."""
    store = plan_store(symbol)
    value = store.get(key)
    if value is None:
        value = build()
        if value is not None:
            value = store.setdefault(key, value)
    return value


def build_symbol(
    n: int,
    snptr: np.ndarray,
    rowsets: list[np.ndarray],
) -> SymbolMatrix:
    """Assemble a :class:`SymbolMatrix` from a column partition and the
    per-supernode below rows.

    Each rowset is cut into maximal runs of consecutive rows lying in a
    single facing cblk; runs become off-diagonal bloks.
    """
    K = snptr.size - 1
    snptr = snptr.astype(np.int64)
    cblks = np.arange(K, dtype=np.int64)
    col2cblk = entry_owners(snptr)

    # Every below row with its owning and facing cblk, all panels at once.
    rows = (np.concatenate(rowsets) if K else np.empty(0)).astype(np.int64)
    owner = np.repeat(cblks, [r.size for r in rowsets])
    face = col2cblk[rows]
    # A run (off-diagonal blok) breaks on a new panel, a row gap or a
    # facing-cblk change.
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (
        (owner[1:] != owner[:-1])
        | (rows[1:] != rows[:-1] + 1)
        | (face[1:] != face[:-1])
    )
    run_start = np.flatnonzero(first)
    run_last = np.append(run_start, rows.size)[1:] - 1

    # Panel k's bloks: its diagonal blok, then its runs in row order —
    # a stable sort by owner of (all diagonal bloks, then all runs).
    blok_owner = np.concatenate([cblks, owner[run_start]])
    order = np.argsort(blok_owner, kind="stable")
    return SymbolMatrix(
        n=n,
        cblk_ptr=snptr,
        blok_ptr=bucket_pointers(blok_owner, K),
        blok_frow=np.concatenate([snptr[:-1], rows[run_start]])[order],
        blok_lrow=np.concatenate([snptr[1:], rows[run_last] + 1])[order],
        blok_face=np.concatenate([cblks, face[run_start]])[order],
        blok_owner=blok_owner[order],
        col2cblk=col2cblk,
    )
