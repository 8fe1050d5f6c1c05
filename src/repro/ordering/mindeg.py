"""Minimum-degree ordering with element absorption.

A quotient-graph minimum-degree: eliminated vertices become *elements*;
the reachable set of a vertex is its remaining plain neighbours plus the
union of the variables of its adjacent elements.  Adjacent elements are
absorbed when a new element is formed, which keeps element lists shallow.

This is the exact-external-degree variant (no approximation, no
supervariable detection): asymptotically slower than AMD but simple and
correct.  It is used for nested-dissection leaves (a few hundred vertices)
and as a standalone ordering on small matrices; both fit its O(n·d²)
envelope comfortably.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import or_

import numpy as np

from repro.graph.adjacency import Graph
from repro.ordering.perm import Permutation

__all__ = ["minimum_degree"]


def _union(acc: int, which: int, sets: list[int]) -> int:
    """``acc`` ∪ ``sets[i]`` for every member ``i`` of the bitset ``which``."""
    while which:
        low = which & -which
        acc |= sets[low.bit_length() - 1]
        which ^= low
    return acc


def minimum_degree(graph: Graph) -> Permutation:
    """Minimum-degree ordering of ``graph`` (scatter-form permutation);
    ties go to the lowest vertex id.

    The leaves of the default nested dissection run the same ordering in
    C (``graph/analysis.c``, a marker-array quotient graph), equal to
    this body vertex for vertex.
    """
    n = graph.n
    # Every vertex set is a Python int used as a bitset (bit u = vertex
    # u): union, difference and cardinality are single C calls, where
    # set objects paid a hash insertion per member per reach().
    bit = [1 << v for v in range(n)]
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    # Plain (uneliminated) neighbours, and adjacent elements, per vertex.
    nbr = [
        reduce(or_, map(bit.__getitem__, adjncy[xadj[v]: xadj[v + 1]]), 0)
        for v in range(n)
    ]
    elems = [0] * n
    # element id -> variable set (element ids are the eliminated vertices)
    elem_vars = [0] * n

    degree = [m.bit_count() for m in nbr]
    heap: list[tuple[int, int]] = [(degree[v], v) for v in range(n)]
    heapq.heapify(heap)

    iperm = []
    for _ in range(n):
        # Pop until an up-to-date entry surfaces (lazy deletion); the
        # eliminated vertex's degree of -1 makes its other entries stale.
        while True:
            d, v = heapq.heappop(heap)
            if d == degree[v]:
                break
        degree[v] = -1
        iperm.append(v)

        # Reachable set of v: plain neighbours plus the variables of its
        # adjacent elements, which the new element v absorbs.
        absorbed = elems[v]
        r = elem_vars[v] = _union(nbr[v], absorbed, elem_vars) & ~bit[v]
        outside = ~(r | bit[v])
        m = r
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            # u loses v, and its plain neighbours inside the new element
            # become redundant.
            plain = nbr[u] = nbr[u] & outside
            others = elems[u] & ~absorbed
            elems[u] = others | bit[v]
            reach = _union(plain | r, others, elem_vars)
            degree[u] = (reach & ~low).bit_count()
            heapq.heappush(heap, (degree[u], u))
        nbr[v] = elems[v] = 0

    return Permutation.from_iperm(np.asarray(iperm, dtype=np.int64))
