"""Flat couple plan: the symbolic scatter maps of the numeric hot path.

Every update couple ``(k, t)`` needs the same index bookkeeping before
its GEMM can scatter into the facing panel:

* ``i0, i1`` — the slice of ``k``'s below-diagonal rows that lands
  inside ``t``'s column range;
* ``rows_local`` — the position of every tail row of ``k`` (at and
  after ``i0``) inside ``t``'s factor-row array.  Its first ``i1 - i0``
  entries fall in ``t``'s diagonal block, whose rows *are* its columns,
  so they double as the ``t``-local column map (``cols_local``) and the
  remainder is the LU U-side row map.

All of it is **purely symbolic**, so it is built once per
:class:`~repro.symbolic.structures.SymbolMatrix` (:func:`get_couple_cache`
memoises on the symbol object) and shared by every factorization and
solve of that pattern.  The paper's sparse-GEMM discussion (§V) singles
out exactly this bookkeeping as the non-BLAS cost of the update task;
PaStiX's ``blok``/``cblk`` solver structures play the same role.

The plan is a handful of flat arrays, because its first reader is C
(:mod:`repro.kernels.native` walks them unchecked, one call per unit):

=====================  ==================================================
per couple ``c``       (sorted by target, then source — the left-looking
                       order) ``src[c]``, ``tgt[c]``, ``i0[c]``,
                       ``i1[c]``, and ``rows_local[rl_ptr[c]:rl_ptr[c+1]]``
per target ``t``       its couples ``tgt_ptr[t]:tgt_ptr[t+1]`` (ascending
                       source)
per source ``k``       its couples ``by_src[src_ptr[k]:src_ptr[k+1]]``
                       (ascending target)
per panel              :class:`PanelLayout`: ``height``, ``width``, arena
                       ``offset``, and the concatenated factor rows
=====================  ==================================================

The NumPy kernels, the threaded solve and the audit read the same arrays
through :meth:`CoupleMapCache.lookup`, :attr:`~CoupleMapCache.sources`
and :attr:`~CoupleMapCache.facing`, which hand out views.

The plan and the layout are built with the rest of a factorization's
plan, in one pass of the analysis helper
(:func:`repro.dag.builder.factor_plan`, ``repro_factor_plan`` of
``graph/analysis.c``) when it loads, by :meth:`CoupleMapCache.
_build_numpy` and :class:`PanelLayout`'s NumPy body otherwise: the NumPy
bodies are the oracle, and the two give the same arrays, dtypes
included.

Because C indexes through the arrays unchecked,
:meth:`CoupleMapCache.validate` proves them in range — every row map
entry against the target row it names — once per plan, and raises
:class:`CouplePlanError` before any native call otherwise.  The checks
run in C (``repro_check_plan``, through
:func:`repro.graph.native.check_plan`; the plan pass runs them on the
plan it builds) when the analysis helper loads, as NumPy array passes
otherwise, with the same messages (:data:`PLAN_CHECKS`).  Independently
of that guard the plan is audited:
``repro.verify.symbols.verify_couple_cache`` (N507/N508) re-derives
every map from the symbol through *different* primitives (``make
selftest`` proves it fires).
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_left

import numpy as np

from repro.sparse.csc import bucket_pointers, entry_owners
from repro.symbolic.structures import SymbolMatrix

__all__ = [
    "CoupleMapCache",
    "CouplePlanError",
    "PLAN_CHECKS",
    "PanelLayout",
    "get_couple_cache",
    "panel_layout",
]


class CouplePlanError(ValueError):
    """A couple plan failed its bounds checks (stale or corrupted)."""


#: The checks of :meth:`CoupleMapCache.validate` after the dtypes and
#: lengths, in the order they run, as the :class:`CouplePlanError` text
#: each raises.  ``analysis.c``'s ``repro_check_plan`` returns the 1-based
#: number of the first that fails.
PLAN_CHECKS = (
    "tgt_ptr does not partition the couples by target",
    "a couple does not point from a lower to a higher panel",
    "sources of a target are not strictly ascending",
    "i0 <= i1 <= tail length violated",
    "rl_ptr does not give every couple its tail length",
    "rows_local out of the target panel's range",
    "rows_local does not map source rows onto equal target rows",
    "facing rows outside the target's diagonal block",
)


def _require(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise CouplePlanError(f"couple plan rejected: {what}")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        int(ends[-1]) if ends.size else 0, dtype=np.int64
    )


class PanelLayout:
    """Per-panel geometry of one symbol.

    Panel ``k`` is ``height[k] × width[k]`` (``below[k]`` rows under the
    diagonal block), row-major, and starts at element ``offset[k]`` of a
    factor arena (``offset[-1]`` elements in all); its global factor
    rows (own columns, then the below rows) are
    ``rows[row_ptr[k]:row_ptr[k+1]]``.  ``keyed = rows + n·panel`` (made
    on first use: only the NumPy bodies search it) is strictly
    increasing, so one global ``searchsorted`` localises any batch of
    ``(panel, row)`` pairs.  All arrays are read-only: they are shared by
    every factor of the symbol.  ``arrays`` are the six arrays as the
    plan pass built them (:func:`repro.dag.builder.factor_plan`); without
    them the NumPy body builds them.
    """

    _ARRAYS = ("width", "height", "below", "offset", "row_ptr", "rows")

    def __init__(self, symbol: SymbolMatrix,
                 arrays: dict | None = None) -> None:
        self.symbol = symbol
        if arrays is not None:
            for name in self._ARRAYS:
                setattr(self, name, arrays[name])
        else:
            self._build_numpy()
        for name in self._ARRAYS:
            getattr(self, name).flags.writeable = False

    def _build_numpy(self) -> None:
        symbol = self.symbol
        K = symbol.n_cblk
        self.width = np.diff(symbol.cblk_ptr).astype(np.int64)
        self.height = (
            symbol.cblk_heights() if K else np.empty(0, dtype=np.int64)
        )
        self.below = self.height - self.width
        self.offset = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(self.height * self.width, out=self.offset[1:])
        self.row_ptr = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(self.height, out=self.row_ptr[1:])
        self.rows = _ranges(
            symbol.blok_frow.astype(np.int64, copy=False),
            (symbol.blok_lrow - symbol.blok_frow).astype(np.int64, copy=False),
        )

    @functools.cached_property
    def keyed(self) -> np.ndarray:
        keyed = self.rows + self.symbol.n * entry_owners(self.row_ptr)
        keyed.flags.writeable = False
        return keyed

    def local_rows(self, panel: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Position of global ``row[i]`` among the rows of ``panel[i]``."""
        return (
            np.searchsorted(
                self.keyed,
                panel.astype(np.int64, copy=False) * self.symbol.n + row,
            )
            - self.row_ptr[panel]
        )


def _memoised(symbol: SymbolMatrix, attr: str):
    """``symbol``'s own memo ``attr`` (not one a copy of another symbol's
    ``__dict__`` carried over), or ``None``."""
    value = symbol.__dict__.get(attr)
    return value if value is not None and value.symbol is symbol else None


def panel_layout(symbol: SymbolMatrix) -> PanelLayout:
    """The symbol's :class:`PanelLayout`, built on first use with the
    couple plan (:func:`repro.dag.builder.factor_plan`), else by its
    NumPy body, and memoised."""
    layout = _memoised(symbol, "_panel_layout")
    if layout is None:
        # Lazy: the plan pass sits above the kernels' import graph.
        from repro.dag.builder import factor_plan

        factor_plan(symbol)
        layout = _memoised(symbol, "_panel_layout")
    if layout is None:
        layout = symbol._panel_layout = PanelLayout(symbol)
    return layout


class CoupleMapCache:
    """All couple scatter maps of one symbol as flat arrays (see the
    module docstring for the layout), built in array passes.

    ``n_couples`` counts the true couples: every ``(source, facing)``
    pair with at least one facing row.  ``arrays`` are the plan's arrays
    as the plan pass built and checked them
    (:func:`repro.dag.builder.factor_plan`: its ``max_mn``, ``max_nw``
    and ``max_w`` too), which makes the plan valid and ``build_s`` that
    pass's time; without them the NumPy body builds them.
    """

    def __init__(self, symbol: SymbolMatrix, arrays: dict | None = None,
                 build_s: float = 0.0) -> None:
        t0 = time.perf_counter()
        self.symbol = symbol
        self.layout = panel_layout(symbol)
        self._reset_derived()
        if arrays is None:
            self._build_numpy()
            self.build_s = time.perf_counter() - t0
            return
        for name in self._ARRAYS:
            setattr(self, name, arrays[name])
        self.max_mn, self.max_nw, self.max_w = (
            arrays["max_mn"], arrays["max_nw"], arrays["max_w"])
        self._valid = True
        self.build_s = build_s

    def _build_numpy(self) -> None:
        """The plan's NumPy body: the path without a C compiler, and the
        oracle ``repro_factor_plan`` equals array for array."""
        # Lazy: the DAG layer sits above the kernels it costs.
        from repro.dag.builder import update_couples

        lay, K = self.layout, self.symbol.n_cblk
        # By (source, target); m rows at and after the first facing row,
        # n of them facing.
        src, tgt, m, n = update_couples(self.symbol)
        i0 = lay.below[src] - m

        order = np.argsort(tgt, kind="stable")   # (target, source) order
        # Per-couple scalars are int32 (panel ids and row counts; the
        # pointers and the row maps stay int64): C reads either, and the
        # plan stays smaller than the maps alone used to be.
        self.src = src[order].astype(np.int32)
        self.tgt = tgt[order].astype(np.int32)
        self.i0 = i0[order].astype(np.int32)
        self.i1 = (i0 + n)[order].astype(np.int32)
        self.tgt_ptr = bucket_pointers(self.tgt, K)
        self.src_ptr = bucket_pointers(src, K)
        self.by_src = np.empty(order.size, dtype=np.int32)
        self.by_src[order] = np.arange(order.size, dtype=np.int32)

        m = m[order]
        self.rl_ptr = np.zeros(m.size + 1, dtype=np.int64)
        np.cumsum(m, out=self.rl_ptr[1:])
        self.rows_local = lay.local_rows(
            np.repeat(self.tgt, m), lay.rows[self._tail_index(m)]
        )

    def _tail_index(self, m: np.ndarray) -> np.ndarray:
        """Index into ``layout.rows`` of every couple's source tail rows."""
        lay = self.layout
        return _ranges(
            lay.row_ptr[self.src] + lay.width[self.src] + self.i0, m
        )

    def _reset_derived(self) -> None:
        self._valid = False
        self._scalars: tuple | None = None
        self._sources: list[tuple] | None = None
        self._facing: list[np.ndarray] | None = None
        #: ``plan_t`` of this plan, filled by :mod:`repro.kernels.native`.
        self._native: object = None

    @property
    def n_couples(self) -> int:
        return int(self.src.size)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Prove every index C will follow is in range, once per plan.

        Checks the dtypes and lengths, then :data:`PLAN_CHECKS` in order:
        the pointer arrays, ``src < tgt``, ``0 ≤ i0 < i1 ≤`` the source's
        tail length, that every ``rows_local`` entry names the target row
        holding the *same* global row as the source row it maps (which
        bounds it by the target's height), and that the facing slice
        lands in the target's diagonal block (it is used as a column
        index).  Also sizes the native scratch (``max_mn``/``max_nw``/
        ``max_w``).  ``analysis.c``'s ``repro_check_plan`` runs the checks
        when the analysis helper loads, :meth:`_check_numpy` otherwise;
        either raises the same :class:`CouplePlanError`.  A plan that
        passed (or that the plan pass built, and checked) is not
        re-checked.
        """
        if self._valid:
            return
        for name in self._ARRAYS:
            arr = getattr(self, name)
            _require(
                arr.dtype == self._DTYPES.get(name, np.int64)
                and arr.ndim == 1 and arr.flags.c_contiguous,
                f"{name} has the wrong dtype or layout",
            )
        K, C = self.symbol.n_cblk, self.src.size
        _require(
            self.tgt.size == C and self.i0.size == C and self.i1.size == C
            and self.tgt_ptr.size == K + 1 and self.rl_ptr.size == C + 1,
            "array lengths disagree",
        )
        # Lazy: the analysis helper sits above the kernels' import graph.
        from repro.graph import native

        lib = native.library()
        maxima = (self._check_numpy() if lib is None
                  else native.check_plan(lib, self))
        if isinstance(maxima, int):
            _require(False, PLAN_CHECKS[maxima - 1])
        self.max_mn, self.max_nw, self.max_w = maxima
        self._valid = True

    def _check_numpy(self) -> tuple[int, int, int]:
        """:data:`PLAN_CHECKS` as array passes: the path without a C
        compiler, and the oracle ``repro_check_plan`` agrees with on the
        first failing check and on the scratch sizes it returns."""
        lay = self.layout
        C = self.src.size
        check = iter(PLAN_CHECKS)

        def require(ok) -> None:
            _require(ok, next(check))

        require(
            self.tgt_ptr[0] == 0 and self.tgt_ptr[-1] == C
            and bool(np.all(np.diff(self.tgt_ptr) >= 0))
            and np.array_equal(self.tgt, entry_owners(self.tgt_ptr)),
        )
        require((0 <= self.src) & (self.src < self.tgt))
        same = self.tgt[1:] == self.tgt[:-1]
        require(self.src[1:][same] > self.src[:-1][same])
        tail = lay.below[self.src]
        require((0 <= self.i0) & (self.i0 < self.i1) & (self.i1 <= tail))
        m = tail - self.i0
        require(
            self.rl_ptr[0] == 0 and self.rl_ptr[-1] == self.rows_local.size
            and np.array_equal(np.diff(self.rl_ptr), m),
        )
        tgt_rep = np.repeat(self.tgt, m)
        rl = self.rows_local
        require((0 <= rl) & (rl < lay.height[tgt_rep]))
        require(
            lay.rows[lay.row_ptr[tgt_rep] + rl]
            == lay.rows[self._tail_index(m)],
        )
        n = self.i1 - self.i0
        facing = _ranges(self.rl_ptr[:-1], n)
        require(rl[facing] < np.repeat(lay.width[self.tgt], n))
        return (int((m * n).max(initial=0)),
                int((n * lay.width[self.src]).max(initial=0)),
                int(lay.width.max(initial=0)))

    # ------------------------------------------------------------------
    def _lists(self) -> tuple:
        """``(tgt_ptr, src, i0, i1, rl_ptr)`` as Python lists: scalar
        access from the interpreter is several times faster on them."""
        if self._scalars is None:
            self._scalars = tuple(
                arr.tolist() for arr in
                (self.tgt_ptr, self.src, self.i0, self.i1, self.rl_ptr)
            )
        return self._scalars

    def lookup(self, k: int, t: int):
        """``(i0, i1, rows_local, cols_local, rk_size)`` of couple
        ``(k, t)`` — views, ``rk_size`` the length of ``k``'s tail — or
        ``None`` when ``k`` does not face ``t``."""
        tgt_ptr, src, i0s, i1s, rl_ptr = self._lists()
        hi = tgt_ptr[t + 1]
        c = bisect_left(src, k, tgt_ptr[t], hi)
        if c == hi or src[c] != k:
            return None
        i0, i1 = i0s[c], i1s[c]
        rows = self.rows_local[rl_ptr[c]: rl_ptr[c + 1]]
        return i0, i1, rows, rows[: i1 - i0], i0 + rows.size

    @property
    def sources(self) -> list[tuple]:
        """``sources[t]``: the couples landing in ``t`` as ``(k, i0, i1,
        cols_local)`` tuples, ascending in ``k`` — the fan-in list of the
        left-looking triangular solve, materialised on first use."""
        if self._sources is None:
            tp, src, i0s, i1s, rl = self._lists()
            per = [
                (k, i0s[c], i1s[c],
                 self.rows_local[rl[c]: rl[c] + i1s[c] - i0s[c]])
                for c, k in enumerate(src)
            ]
            self._sources = [
                tuple(per[tp[t]: tp[t + 1]]) for t in range(len(tp) - 1)
            ]
        return self._sources

    @property
    def facing(self) -> list[np.ndarray]:
        """``facing[k]``: the targets panel ``k`` updates, ascending (the
        enumeration of :func:`repro.core.factorization.facing_cblks`)."""
        if self._facing is None:
            by_target = self.tgt[self.by_src]
            sp = self.src_ptr.tolist()
            self._facing = [
                by_target[sp[k]: sp[k + 1]] for k in range(len(sp) - 1)
            ]
        return self._facing

    def source_ids(self, t: int) -> list[int]:
        """The panels whose updates land in ``t``, ascending."""
        return self.src[self.tgt_ptr[t]: self.tgt_ptr[t + 1]].tolist()

    # ------------------------------------------------------------------
    _ARRAYS = ("src", "tgt", "i0", "i1", "rl_ptr", "rows_local", "tgt_ptr",
               "src_ptr", "by_src")
    _DTYPES = dict.fromkeys(("src", "tgt", "i0", "i1", "by_src"), np.int32)

    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self._ARRAYS)

    def stats(self) -> dict:
        """Counters for ``ExecutionTrace.meta`` / benchmark reports."""
        return {
            "couples": self.n_couples,
            "build_s": float(self.build_s),
            "nbytes": int(self.nbytes()),
        }

    def clone(self) -> "CoupleMapCache":
        """Independent copy of the arrays, unvalidated (injectors)."""
        out = object.__new__(CoupleMapCache)
        out.symbol = self.symbol
        out.layout = self.layout
        for name in self._ARRAYS:
            setattr(out, name, getattr(self, name).copy())
        out.build_s = self.build_s
        out._reset_derived()
        return out


def get_couple_cache(symbol: SymbolMatrix) -> CoupleMapCache:
    """The symbol's couple plan, built on first use and memoized.

    The plan lives on the symbol object itself (``_couple_cache``), so
    two factorizations of the same pattern — and the sequential driver,
    the threaded runtime, and the verify audit — all share one build: by
    the plan pass (:func:`repro.dag.builder.factor_plan`) when the
    analysis helper loads, else by the NumPy body.  A lost race between
    concurrent first callers at worst builds twice; both results are
    identical, so either may win.
    """
    cache = _memoised(symbol, "_couple_cache")
    if cache is None:
        # Lazy: the plan pass sits above the kernels' import graph.
        from repro.dag.builder import factor_plan

        factor_plan(symbol)
        cache = _memoised(symbol, "_couple_cache")
    if cache is None:
        cache = symbol._couple_cache = CoupleMapCache(symbol)
    return cache
