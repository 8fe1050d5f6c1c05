"""Multilevel 2-way edge partitioning.

Classic V-cycle: coarsen with heavy-edge matching until the graph is
small, split the coarsest graph by greedy BFS region growing, then project
back, applying a bounded boundary-refinement (simplified
Fiduccia–Mattheyses: single-vertex moves by best gain with balance
constraint) at each level.

The nested-dissection driver can derive a vertex separator from the edge
cut (see :func:`repro.graph.separator.separator_from_edge_cut`); the
default ND path uses BFS level-set separators directly, and this
partitioner serves the quality-comparison ablation and tests.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bfs import pseudo_peripheral_vertex
from repro.graph.coarsen import heavy_edge_matching, coarsen_graph
from repro.sparse.csc import entry_owners

__all__ = ["multilevel_bisection", "edge_cut", "grow_bisection", "refine_bisection"]


def edge_cut(graph: Graph, part: np.ndarray) -> int:
    """Total weight of edges crossing the partition."""
    src = entry_owners(graph.xadj)
    cut = part[src] != part[graph.adjncy]
    if graph.ewgt is not None:
        return int(graph.ewgt[cut].sum()) // 2
    return int(cut.sum()) // 2


def grow_bisection(graph: Graph, seed: int = 0) -> np.ndarray:
    """Initial 0/1 partition by BFS region growing to half the weight."""
    start, levels = pseudo_peripheral_vertex(graph, seed % max(1, graph.n))
    order = np.argsort(levels, kind="stable")
    # Unreached vertices (level -1) sort first; push them to the end.
    reached = levels[order] >= 0
    order = np.concatenate([order[reached], order[~reached]])
    cum = np.cumsum(graph.vwgt[order])
    half = graph.total_weight / 2.0
    k = int(np.searchsorted(cum, half)) + 1
    part = np.ones(graph.n, dtype=np.int8)
    part[order[:k]] = 0
    return part


def refine_bisection(
    graph: Graph,
    part: np.ndarray,
    *,
    max_passes: int = 4,
    balance: float = 1.10,
) -> np.ndarray:
    """Greedy boundary refinement (simplified FM).

    Each pass scans boundary vertices in descending gain order and moves a
    vertex when the move reduces the cut and keeps the heavier side below
    ``balance`` × half the total weight.  Gains are recomputed lazily per
    pass (no bucket structure — adequate at the coarse levels where most
    of the improvement happens).
    """
    part = part.copy()
    n = graph.n
    src = entry_owners(graph.xadj)
    ew = graph.ewgt if graph.ewgt is not None else np.ones(src.size, dtype=np.int64)
    limit = balance * graph.total_weight / 2.0

    for _ in range(max_passes):
        same = part[src] == part[graph.adjncy]
        internal = np.zeros(n, dtype=np.int64)
        external = np.zeros(n, dtype=np.int64)
        np.add.at(internal, src[same], ew[same])
        np.add.at(external, src[~same], ew[~same])
        gain = external - internal
        boundary = np.flatnonzero(external > 0)
        if boundary.size == 0:
            break
        cand = boundary[np.argsort(-gain[boundary], kind="stable")]
        w0 = float(graph.vwgt[part == 0].sum())
        w1 = graph.total_weight - w0
        improved = False
        for v in cand:
            if gain[v] <= 0:
                break
            wv = float(graph.vwgt[v])
            if part[v] == 0:
                if w1 + wv > limit:
                    continue
                w0 -= wv
                w1 += wv
            else:
                if w0 + wv > limit:
                    continue
                w1 -= wv
                w0 += wv
            part[v] ^= 1
            improved = True
            # Update neighbour gains locally.
            lo, hi = graph.xadj[v], graph.xadj[v + 1]
            nbrs = graph.adjncy[lo:hi]
            gain[nbrs] += np.where(part[nbrs] == part[v], -2, 2) * ew[lo:hi]
            gain[v] = -gain[v]
        if not improved:
            break
    return part


def multilevel_bisection(
    graph: Graph,
    *,
    coarsen_to: int = 64,
    seed: int = 0,
    max_levels: int = 24,
) -> np.ndarray:
    """2-way partition of ``graph``; returns a 0/1 array of length ``n``."""
    if graph.n <= 2:
        part = np.zeros(graph.n, dtype=np.int8)
        if graph.n == 2:
            part[1] = 1
        return part

    hierarchy: list[tuple[Graph, np.ndarray]] = []
    g = graph
    for _ in range(max_levels):
        if g.n <= coarsen_to:
            break
        match = heavy_edge_matching(g, seed=seed)
        coarse, cmap = coarsen_graph(g, match)
        if coarse.n >= g.n * 0.95:  # matching stalled (e.g. star graphs)
            break
        hierarchy.append((g, cmap))
        g = coarse

    part = grow_bisection(g, seed=seed)
    part = refine_bisection(g, part)
    for fine, cmap in reversed(hierarchy):
        part = part[cmap]
        part = refine_bisection(fine, part)
    return part
