"""Nested-dissection ordering.

The top of the analysis pipeline.  Recursively: find a small balanced
vertex separator, order the two halves first and the separator last, and
recurse into the halves.  Separator vertices ordered last become the large
supernodes at the top of the elimination tree — exactly the blocks the
paper offloads to GPUs.

PaStiX delegates this to Scotch; here it is built on
:mod:`repro.graph`: BFS level-set separators, and minimum degree on the
leaves (regions of at most :data:`LEAF_SIZE` vertices).  It runs as one C
call when :mod:`repro.graph.native` loads; the driver below is its
fallback and its oracle, permutation for permutation.
"""

from __future__ import annotations

import numpy as np

from repro.graph import native
from repro.graph.adjacency import Graph
from repro.graph.bfs import connected_components
from repro.graph.separator import level_set_separator
from repro.ordering.mindeg import minimum_degree
from repro.ordering.perm import Permutation
from repro.sparse.csc import SparseMatrixCSC

__all__ = ["nested_dissection"]

#: Regions of at most this many vertices stop recursing and are ordered
#: by minimum degree.
LEAF_SIZE = 96


def _order_leaf(sub: Graph) -> np.ndarray:
    """Local ordering of a leaf subgraph; returns local iperm (new→old)."""
    if sub.n <= 2:
        return np.arange(sub.n, dtype=np.int64)
    return minimum_degree(sub).iperm


def nested_dissection(source: Graph | SparseMatrixCSC) -> Permutation:
    """Compute a nested-dissection permutation (scatter form).

    Accepts a :class:`Graph` or a square sparse matrix (whose symmetrised
    pattern is used).  The returned permutation sends each region's
    interior before its separator, recursively, so separators stack at the
    end of the ordering.
    """
    graph = source if isinstance(source, Graph) else Graph.from_matrix(source)
    n = graph.n
    if (graph.vwgt.dtype.kind in "iu"
            and (lib := native.library()) is not None):
        iperm = native.nested_dissection(
            lib, n, graph.xadj, graph.adjncy, graph.vwgt, LEAF_SIZE
        )
        if iperm is not None:
            return Permutation.from_iperm(iperm)
    iperm = np.empty(n, dtype=np.int64)

    # Work stack of (original-vertex-ids, lo, known-connected): the region
    # fills iperm[lo : lo + size].
    stack: list[tuple[np.ndarray, int, bool]] = [
        (np.arange(n, dtype=np.int64), 0, False)
    ]
    while stack:
        vertices, lo, connected = stack.pop()
        size = vertices.size
        hi = lo + size
        if size == 0:
            continue
        sub, mapping = graph.subgraph(vertices)

        # Disconnected regions: dissect each component independently.
        comp = None if connected else connected_components(sub)
        if comp is not None and comp.max() > 0:
            # Grouped by component, ascending inside each: already the
            # final order of every component of one or two vertices (no
            # separator exists and leaf orderings keep them in place), so
            # only larger components go back on the stack.
            members = mapping[np.argsort(comp, kind="stable")]
            iperm[lo:hi] = members
            sizes = np.bincount(comp)
            starts = np.cumsum(sizes) - sizes
            for c in np.flatnonzero(sizes > 2).tolist():
                first = int(starts[c])
                stack.append(
                    (members[first: first + int(sizes[c])], lo + first, True)
                )
            continue

        if size <= LEAF_SIZE:
            sep = pa = pb = vertices[:0]
        else:
            sep, pa, pb = level_set_separator(sub)

        if sep.size == 0 or pa.size == 0 or pb.size == 0:
            # A leaf, or separation failed (dense or tiny graph): order
            # the region locally.
            iperm[lo:hi] = mapping[_order_leaf(sub)]
            continue

        # Layout: [A | B | separator]; separator gets the last positions.
        sep_lo = hi - sep.size
        iperm[sep_lo:hi] = mapping[sep]
        stack.append((mapping[pa], lo, False))
        stack.append((mapping[pb], lo + pa.size, False))

    return Permutation.from_iperm(iperm)
