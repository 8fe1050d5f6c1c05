"""Symbolic scatter-map cache for the numeric hot path.

Every update couple ``(k, t)`` needs the same four pieces of index
bookkeeping before its GEMM can scatter into the facing panel:

* ``i0, i1`` — the slice of ``k``'s below-diagonal rows that lands
  inside ``t``'s column range (two ``searchsorted`` calls);
* ``cols_local`` — those rows rebased to ``t``-local column indices;
* ``rows_local`` — the position of every tail row of ``k`` (at and
  after ``i0``) inside ``t``'s factor-row array (one ``searchsorted``
  over the whole tail).

All four are **purely symbolic**: they depend only on the
:class:`~repro.symbolic.structures.SymbolMatrix`, never on numeric
values, so recomputing them inside every ``panel_update_compute`` call —
on every factorization of the same pattern — is redundant work.  The
paper's sparse-GEMM discussion (§V) singles out exactly this scatter
bookkeeping as the non-BLAS cost of the update task; real supernodal
codes precompute the block index maps once at analysis time (PaStiX's
``blok``/``cblk`` solver structures play the same role).

:class:`CoupleMapCache` builds the maps once per symbol and is attached
to a :class:`~repro.core.factor.NumericFactor` (``factor.index_cache``),
where :func:`repro.kernels.panel.panel_update_compute` and
:func:`~repro.kernels.panel.panel_update` pick it up.  Because the maps
are symbol-owned, **repeated factorizations of the same pattern with new
values reuse the same cache** (:func:`get_couple_cache` memoizes on the
symbol object).

The cache is audited: ``repro.verify.symbols.verify_couple_cache``
(N507/N508) re-derives every map from the symbol through *different*
primitives and fails on any mismatch, so a stale or corrupted cache can
never silently produce a wrong factor (``make selftest`` proves the
audit fires).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.symbolic.structures import SymbolMatrix

__all__ = ["CoupleMap", "CoupleMapCache", "get_couple_cache"]


@dataclass(frozen=True)
class CoupleMap:
    """Precomputed scatter maps of one update couple ``(k, t)``.

    ``rows_local`` spans ``k``'s whole tail from ``i0`` (the L-side
    scatter rows); its first ``i1 - i0`` entries are the facing slice
    and the remainder (``rows_local[i1 - i0:]``) is exactly the LU
    U-side map — the searchsorted the uncached path recomputes.
    ``rk_size`` is the length of ``k``'s below-diagonal row array, so
    callers can test ``i1 < rk_size`` without touching the rows.
    """

    i0: int
    i1: int
    rows_local: np.ndarray
    cols_local: np.ndarray
    rk_size: int


class CoupleMapCache:
    """All couple scatter maps of one symbol, built in one pass.

    ``maps[(k, t)]`` holds the :class:`CoupleMap` of every true couple
    (every ``(source, facing)`` pair with at least one facing row);
    ``facing[k]`` is the ascending array of targets panel ``k`` updates
    (the same enumeration as
    :func:`repro.core.factorization.facing_cblks`, precomputed), and
    ``sources[t]`` its transpose: the ``(k, map)`` pairs of the couples
    landing in panel ``t``, ascending in ``k`` — the fan-in list of the
    left-looking triangular solve.

    ``hits``/``misses`` are best-effort counters (racy under threads, by
    design — they feed benchmark stats, not control flow).
    """

    def __init__(self, symbol: SymbolMatrix) -> None:
        t0 = time.perf_counter()
        self.symbol = symbol
        self.maps: dict[tuple[int, int], CoupleMap] = {}
        self.facing: list[np.ndarray] = []
        self.sources: list[list[tuple[int, CoupleMap]]] = [
            [] for _ in range(symbol.n_cblk)
        ]
        self.hits = 0
        self.misses = 0
        self._build()
        self.n_couples = len(self.maps)
        self.build_s = time.perf_counter() - t0

    def _build(self) -> None:
        sym = self.symbol
        ptr = sym.cblk_ptr
        rows = [sym.cblk_rows(k) for k in range(sym.n_cblk)]
        for k in range(sym.n_cblk):
            w = sym.cblk_width(k)
            rk = rows[k][w:]
            b0, b1 = int(sym.blok_ptr[k]) + 1, int(sym.blok_ptr[k + 1])
            if b0 >= b1:
                self.facing.append(np.empty(0, dtype=np.int64))
                continue
            faces = sym.blok_face[b0:b1]
            keep = np.ones(faces.size, dtype=bool)
            keep[1:] = faces[1:] != faces[:-1]
            targets = faces[keep].astype(np.int64, copy=False)
            self.facing.append(targets)
            for t in targets:
                t = int(t)
                i0 = int(np.searchsorted(rk, ptr[t]))
                i1 = int(np.searchsorted(rk, ptr[t + 1]))
                cm = CoupleMap(
                    i0,
                    i1,
                    np.searchsorted(rows[t], rk[i0:]).astype(
                        np.int64, copy=False
                    ),
                    (rk[i0:i1] - ptr[t]).astype(np.int64, copy=False),
                    int(rk.size),
                )
                self.maps[(k, t)] = cm
                self.sources[t].append((k, cm))

    # ------------------------------------------------------------------
    def lookup(self, k: int, t: int) -> CoupleMap | None:
        """The couple's maps, or ``None`` when ``k`` does not face ``t``."""
        cm = self.maps.get((k, t))
        if cm is None:
            self.misses += 1
        else:
            self.hits += 1
        return cm

    def nbytes(self) -> int:
        return sum(
            cm.rows_local.nbytes + cm.cols_local.nbytes
            for cm in self.maps.values()
        ) + sum(f.nbytes for f in self.facing)

    def stats(self) -> dict:
        """Counters for ``ExecutionTrace.meta`` / benchmark reports."""
        return {
            "couples": int(self.n_couples),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "build_s": float(self.build_s),
            "nbytes": int(self.nbytes()),
        }

    def clone(self) -> "CoupleMapCache":
        """Shallow clone with an independent ``maps`` dict (injectors)."""
        out = object.__new__(CoupleMapCache)
        out.symbol = self.symbol
        out.maps = dict(self.maps)
        out.facing = list(self.facing)
        out.sources = [list(srcs) for srcs in self.sources]
        out.hits = 0
        out.misses = 0
        out.n_couples = self.n_couples
        out.build_s = self.build_s
        return out


def get_couple_cache(symbol: SymbolMatrix) -> CoupleMapCache:
    """The symbol's couple cache, built on first use and memoized.

    The cache lives on the symbol object itself (``_couple_cache``), so
    two factorizations of the same pattern — and the sequential driver,
    the threaded runtime, and the verify audit — all share one build.
    A lost race between concurrent first callers at worst builds twice;
    both results are identical, so either may win.
    """
    cache = getattr(symbol, "_couple_cache", None)
    if cache is None or cache.symbol is not symbol:
        cache = CoupleMapCache(symbol)
        symbol._couple_cache = cache
    return cache
