"""Graph coarsening via heavy-edge matching (HEM).

Used by the multilevel bisection partitioner: match each vertex with its
heaviest-edge unmatched neighbour, contract matched pairs, and repeat until
the graph is small enough to partition directly.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.sparse.csc import coo_to_csc, entry_owners

__all__ = ["heavy_edge_matching", "coarsen_graph"]


def heavy_edge_matching(graph: Graph, seed: int = 0) -> np.ndarray:
    """Compute a matching: ``match[v]`` is v's partner (or v itself).

    Vertices are visited in random order; each unmatched vertex picks its
    heaviest unmatched neighbour (edge weights default to 1, making this
    random matching, which is adequate for separator purposes).
    """
    rng = np.random.default_rng(seed)
    match = np.full(graph.n, -1, dtype=np.int64)
    order = rng.permutation(graph.n)
    xadj, adjncy = graph.xadj, graph.adjncy
    ewgt = graph.ewgt
    for v in order:
        if match[v] >= 0:
            continue
        nbrs = adjncy[xadj[v]: xadj[v + 1]]
        free = nbrs[match[nbrs] < 0]
        if free.size == 0:
            match[v] = v
            continue
        if ewgt is not None:
            w = ewgt[xadj[v]: xadj[v + 1]][match[nbrs] < 0]
            u = int(free[np.argmax(w)])
        else:
            u = int(free[0])
        match[v] = u
        match[u] = v
    return match


def coarsen_graph(graph: Graph, match: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Contract matched pairs into coarse vertices.

    Returns ``(coarse, cmap)`` where ``cmap[v]`` is the coarse vertex of
    fine vertex ``v``.  Coarse vertex weights are the sums of their fine
    constituents; parallel edges are merged with summed weights.
    """
    n = graph.n
    # Assign coarse ids: the lower endpoint of each pair is canonical.
    canonical = np.minimum(np.arange(n, dtype=np.int64), match)
    uniq, cmap = np.unique(canonical, return_inverse=True)
    nc = uniq.size

    cu = cmap[entry_owners(graph.xadj)]
    cv = cmap[graph.adjncy]
    keep = cu != cv
    ew = (graph.ewgt[keep] if graph.ewgt is not None
          else np.ones(np.count_nonzero(keep), dtype=np.int64))
    # Coarse adjacency = the CSC of (target, source) triplets: sorted by
    # source then target, parallel edges merged with summed weights.
    merged = coo_to_csc(nc, nc, cv[keep], cu[keep], ew)

    vwgt = np.zeros(nc, dtype=np.int64)
    np.add.at(vwgt, cmap, graph.vwgt)
    coarse = Graph(nc, merged.colptr, merged.rowind, vwgt=vwgt,
                   ewgt=merged.values)
    return coarse, cmap
