"""Reverse Cuthill–McKee ordering (bandwidth reduction)."""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bfs import connected_components, pseudo_peripheral_vertex
from repro.ordering.perm import Permutation

__all__ = ["reverse_cuthill_mckee"]


def reverse_cuthill_mckee(graph: Graph) -> Permutation:
    """RCM ordering of ``graph``.

    Components are processed in index order; within a component, vertices
    are visited in BFS order from a pseudo-peripheral vertex, neighbours
    expanded in ascending-degree order, and the final sequence is
    reversed.  Returned as scatter-form :class:`Permutation`.
    """
    n = graph.n
    if n == 0:
        return Permutation.identity(0)
    deg = graph.degrees()
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    xadj, adjncy = graph.xadj, graph.adjncy

    comp = connected_components(graph)
    by_comp = np.argsort(comp, kind="stable")
    for members in np.split(by_comp, np.cumsum(np.bincount(comp))[:-1]):
        # Restrict the pseudo-peripheral search to this component.
        sub, mapping = graph.subgraph(members)
        start_local, _ = pseudo_peripheral_vertex(sub, 0)
        start = int(mapping[start_local])

        queue = [start]
        visited[start] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            nbrs = adjncy[xadj[v]: xadj[v + 1]]
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                fresh = fresh[np.argsort(deg[fresh], kind="stable")]
                visited[fresh] = True
                queue.extend(int(u) for u in fresh)

    iperm = np.asarray(order[::-1], dtype=np.int64)
    return Permutation.from_iperm(iperm)
