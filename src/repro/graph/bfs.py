"""Breadth-first machinery: level structures, pseudo-peripheral vertices,
connected components.

BFS is frontier-vectorised: each level expansion is a handful of NumPy
gather/scatter operations over the whole frontier rather than a
per-vertex Python loop, following the project's vectorise-the-inner-loop
idiom.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph

__all__ = ["bfs_levels", "pseudo_peripheral_vertex", "connected_components"]


def _flood(graph: Graph, frontier: np.ndarray, level: np.ndarray,
           mark: np.ndarray) -> list[np.ndarray]:
    """Breadth-first sweep from ``frontier`` over the vertices whose
    ``level`` is negative, writing their depth; returns the frontiers.

    A level costs O(its edges), never O(n): candidates write their slot
    into ``mark`` (length-``n`` scratch, contents irrelevant) and the one
    occurrence per vertex that reads its own slot back is kept.
    """
    frontiers = [frontier]
    level[frontier] = 0
    while True:
        nbrs, _ = graph.gather(frontier)
        nbrs = nbrs[level[nbrs] < 0]
        if nbrs.size == 0:
            return frontiers
        level[nbrs] = len(frontiers)
        slot = np.arange(nbrs.size)
        mark[nbrs] = slot
        frontier = nbrs[mark[nbrs] == slot]
        frontiers.append(frontier)


def bfs_levels(graph: Graph, start: int | np.ndarray) -> np.ndarray:
    """BFS level of every vertex from ``start`` (vertex or set of vertices).

    Unreachable vertices get level ``-1``.
    """
    level = np.full(graph.n, -1, dtype=np.int64)
    _flood(graph, np.atleast_1d(np.asarray(start, dtype=np.int64)), level,
           np.empty(graph.n, dtype=np.int64))
    return level


def pseudo_peripheral_vertex(graph: Graph, start: int = 0, *,
                             max_iter: int = 8) -> tuple[int, np.ndarray]:
    """Find a pseudo-peripheral vertex by repeated BFS (George–Liu).

    Returns ``(vertex, levels_from_vertex)``.  Each sweep restarts from a
    minimum-degree vertex of the deepest level until eccentricity stops
    growing.
    """
    v = int(start)
    levels = bfs_levels(graph, v)
    ecc = int(levels.max())
    for _ in range(max_iter):
        deepest = np.flatnonzero(levels == ecc)
        # Minimum-degree vertex of the last level gives thinner levels.
        deg = graph.xadj[deepest + 1] - graph.xadj[deepest]
        cand = int(deepest[np.argmin(deg)])
        new_levels = bfs_levels(graph, cand)
        new_ecc = int(new_levels.max())
        if new_ecc <= ecc:
            return cand, new_levels
        v, levels, ecc = cand, new_levels, new_ecc
    return v, levels


def connected_components(graph: Graph) -> np.ndarray:
    """Component id of every vertex (ids are dense, ordered by discovery,
    i.e. by the smallest vertex of each component).

    One pass, O(n + edges + #components): each component is flooded once,
    on shared arrays, from its smallest vertex; vertices without
    neighbours (all of a diagonal matrix) are settled without a flood.
    """
    n = graph.n
    # root[v]: smallest vertex of v's component, -1 while unknown.
    root = np.where(np.diff(graph.xadj) == 0, np.arange(n, dtype=np.int64), -1)
    mark = np.empty(n, dtype=np.int64)
    left = n - np.count_nonzero(root >= 0)
    seed = 0
    while left:
        while root[seed] >= 0:   # amortised O(n) over the whole call
            seed += 1
        members = np.concatenate(
            _flood(graph, np.array([seed], dtype=np.int64), root, mark)
        )
        root[members] = seed
        left -= members.size
    is_root = root == np.arange(n, dtype=np.int64)
    return (np.cumsum(is_root) - 1)[root]
