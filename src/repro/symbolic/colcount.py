"""Column counts of the Cholesky factor (Gilbert–Ng–Peyton).

Computes ``count[j] = nnz(L[:, j])`` (including the diagonal) in
``O(nnz · α(n))`` without forming ``L``, using the skeleton-graph /
row-subtree-leaf characterisation: an off-diagonal entry ``A(i, j)`` with
``i > j`` contributes to ``count[j]`` exactly when ``j`` is a *leaf* of
row ``i``'s subtree, and double counting along the tree is corrected by
subtracting at the least common ancestor of consecutive leaves.

This is the ``cs_counts`` algorithm of Davis' "Direct Methods for Sparse
Linear Systems", reimplemented from the book's description.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import SparseMatrixCSC, bucket_pointers, entry_owners

__all__ = ["column_counts"]


def column_counts(
    pattern: SparseMatrixCSC,
    parent: np.ndarray,
    post: np.ndarray,
) -> np.ndarray:
    """Column counts of L for a symmetric-pattern matrix.

    Parameters
    ----------
    pattern:
        Symmetric pattern of ``A`` (both triangles present).
    parent, post:
        Elimination tree and a postorder of it.
    """
    n = pattern.n_cols
    # Python lists throughout: single-element indexing of an int64 array
    # boxes a NumPy scalar per access.  Pass 2 reads the entries below the
    # diagonal only, so only they convert.
    cols = entry_owners(pattern.colptr)
    lower = pattern.rowind > cols
    ptr = bucket_pointers(cols[lower], n).tolist()
    rows = pattern.rowind[lower].tolist()
    parent, post = np.asarray(parent).tolist(), np.asarray(post).tolist()

    delta = [0] * n
    first = [-1] * n      # first descendant (postorder rank)
    maxfirst = [-1] * n
    prevleaf = [-1] * n
    ancestor = list(range(n))   # union-find for LCAs

    # Pass 1: first descendants and leaf deltas.
    for k, j in enumerate(post):
        delta[j] = 1 if first[j] == -1 else 0  # j is a leaf of the etree
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent[j]

    # Pass 2: process nodes in postorder; for each neighbour i > j decide
    # whether j is a (first or subsequent) leaf of i's row subtree.
    for j in post:
        pj = parent[j]
        if pj != -1:
            delta[pj] -= 1
        fj = first[j]
        for i in rows[ptr[j]: ptr[j + 1]]:
            if fj <= maxfirst[i]:
                continue  # j is not a new leaf for row i
            maxfirst[i] = fj
            jprev = prevleaf[i]
            prevleaf[i] = j
            delta[j] += 1
            if jprev != -1:
                # Find the LCA of jprev and j with path compression.
                q = jprev
                while q != ancestor[q]:
                    q = ancestor[q]
                s = jprev
                while s != q:
                    s, ancestor[s] = ancestor[s], q
                delta[q] -= 1
        if pj != -1:
            ancestor[j] = pj

    # Pass 3: accumulate deltas up the tree in postorder.
    counts = delta
    for j in post:
        if parent[j] != -1:
            counts[parent[j]] += counts[j]
    return np.asarray(counts, dtype=np.int64)
