"""Vertex separators.

The nested-dissection driver asks this module for a small, balanced vertex
separator of a (sub)graph.  Two mechanisms are provided:

* :func:`level_set_separator` — BFS level-set separator from a
  pseudo-peripheral vertex, choosing the level that minimises a
  size/imbalance objective.  Cheap, fully vectorised, robust.
* :func:`thin_separator` — a refinement pass that moves separator vertices
  adjacent to only one side into that side, shrinking the separator
  (the cheap half of an FM pass, sufficient to clean up level sets).
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bfs import pseudo_peripheral_vertex

__all__ = ["level_set_separator", "thin_separator"]


def level_set_separator(
    graph: Graph,
    *,
    max_imbalance: float = 3.0,
    seed_vertex: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``graph`` into ``(sep, part_a, part_b)`` using BFS level sets.

    The separator is the BFS level minimising
    ``|level| * (1 + imbalance)`` where imbalance is the weighted ratio of
    the two sides; levels whose imbalance exceeds ``max_imbalance`` are
    skipped unless nothing else qualifies.  All three returned arrays are
    vertex-id arrays partitioning ``range(n)``.
    """
    n = graph.n
    if n == 1:
        return (np.empty(0, np.int64), np.arange(1, dtype=np.int64),
                np.empty(0, np.int64))
    _, levels = pseudo_peripheral_vertex(graph, seed_vertex)
    depth = int(levels.max())
    if depth <= 0:
        return _neighborhood_separator(graph, seed_vertex)

    # Vertices the sweep did not reach (other components) are weighed and
    # filed with the last level, i.e. on the B side of any interior level.
    levels = np.where(levels < 0, depth, levels)
    w = graph.vwgt.astype(np.float64)
    total = w.sum()
    # Interior levels 1 … depth-1: weight of the level, of all below it, of
    # all above it.
    level_w = np.zeros(depth + 1)
    np.add.at(level_w, levels, w)
    ws = level_w[1:depth]
    wa = np.cumsum(level_w)[: depth - 1]
    wb = total - wa - ws
    usable = np.flatnonzero((wa != 0) & (wb != 0))
    if usable.size == 0:
        # Degenerate level structure (e.g. two levels): fall back to the
        # always-valid one-vertex construction.
        return _neighborhood_separator(graph, seed_vertex)
    wa, ws, wb = wa[usable], ws[usable], wb[usable]
    imbalance = np.maximum(wa, wb) / np.maximum(1.0, np.minimum(wa, wb))
    score = ws * (1.0 + imbalance)
    # Feasible levels first, then the lowest score, then the lowest level.
    best = np.lexsort((score, imbalance > max_imbalance))[0]
    lev = int(usable[best]) + 1
    sep = np.flatnonzero(levels == lev).astype(np.int64)
    part_a = np.flatnonzero(levels < lev).astype(np.int64)
    part_b = np.flatnonzero(levels > lev).astype(np.int64)
    return thin_separator(graph, sep, part_a, part_b)


def _by_side(side: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex arrays of a 0 / 1 / 2 labelling, in that order."""
    return tuple(np.flatnonzero(side == s) for s in range(3))


def _neighborhood_separator(
    graph: Graph, v: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trivial but always-valid separator: ``({v}, N(v), rest)``.

    Used when no level structure exists (complete or two-level graphs).
    The caller treats an empty part as "separation failed" and orders the
    region directly.
    """
    v = int(v) % max(graph.n, 1)
    side = np.full(graph.n, 2, dtype=np.int8)
    side[graph.neighbors(v)] = 0
    side[v] = 1
    return _by_side(side)


def thin_separator(
    graph: Graph,
    sep: np.ndarray,
    part_a: np.ndarray,
    part_b: np.ndarray,
    *,
    max_passes: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink a separator by releasing vertices touching only one side.

    A separator vertex with no neighbour in part B may move into part A
    (and symmetrically) without reconnecting A and B; isolated separator
    vertices go to the lighter side.  Iterates until a fixed point or
    ``max_passes``.
    """
    side = np.zeros(graph.n, dtype=np.int8)  # 0 = sep, 1 = A, 2 = B
    side[part_a] = 1
    side[part_b] = 2
    for _ in range(max_passes):
        sep_ids = np.flatnonzero(side == 0)
        if sep_ids.size == 0:
            break
        # For each separator vertex: does it touch side A, side B?
        nbrs, lens = graph.gather(sep_ids)
        owner = np.repeat(np.arange(sep_ids.size), lens)
        nbr_side = side[nbrs]
        has_a = np.bincount(owner[nbr_side == 1], minlength=sep_ids.size) > 0
        has_b = np.bincount(owner[nbr_side == 2], minlength=sep_ids.size) > 0
        # Touching one side only, join it; touching neither, the lighter.
        wa = graph.vwgt[side == 1].sum()
        wb = graph.vwgt[side == 2].sum()
        lighter = 1 if wa <= wb else 2
        target = np.where(has_a, np.where(has_b, 0, 1),
                          np.where(has_b, 2, lighter))
        if not target.any():
            break
        side[sep_ids] = target
    return _by_side(side)

