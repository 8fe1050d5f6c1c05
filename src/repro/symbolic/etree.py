"""Elimination tree (Liu's algorithm) and tree utilities.

The elimination tree of a symmetric pattern has ``parent[j]`` = the row of
the first sub-diagonal nonzero of column ``j`` of the Cholesky factor; it
encodes every column dependency of the factorization and is the backbone
of the whole analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csc import SparseMatrixCSC, bucket_pointers, entry_owners

__all__ = ["elimination_tree", "postorder", "tree_depths", "EliminationTree"]


def elimination_tree(pattern: SparseMatrixCSC) -> np.ndarray:
    """Compute the elimination tree of a symmetric-pattern square matrix.

    Liu's algorithm with path compression (the ``ancestor`` array): for
    each column ``k`` and entry ``i < k``, walk from ``i`` toward the root,
    compressing, and graft the top of the walk onto ``k``.  Runs in
    ``O(nnz · α(n))``.

    Returns ``parent`` with ``-1`` marking roots.
    """
    n = pattern.n_cols
    if not pattern.is_square:
        raise ValueError("elimination tree needs a square matrix")
    # The loop runs on Python lists: indexing an int64 array element by
    # element boxes a NumPy scalar per access, ~5x the cost of a list.
    # Only the entries above the diagonal drive it, so only they convert.
    parent = [-1] * n
    ancestor = [-1] * n
    cols = entry_owners(pattern.colptr)
    upper = pattern.rowind < cols
    ptr = bucket_pointers(cols[upper], n).tolist()
    rows = pattern.rowind[upper].tolist()
    for k in range(n):
        for i in rows[ptr[k]: ptr[k + 1]]:
            # Walk from i up to the root of its current subtree.
            while i != -1 and i < k:
                nxt = ancestor[i]
                ancestor[i] = k  # path compression
                if nxt == -1:
                    parent[i] = k
                i = nxt
    return np.asarray(parent, dtype=np.int64)


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of a forest.

    Returns ``post`` such that ``post[k]`` is the node visited k-th; every
    node appears after all of its descendants.  Children are visited in
    ascending index order, giving a deterministic result.
    """
    n = parent.size
    parent = parent.tolist()   # list indexing, as in elimination_tree
    # Build child lists as a linked structure (head/next arrays) so the
    # traversal allocates nothing per node.
    head = [-1] * n
    nxt = [-1] * n
    # Iterate in reverse so each head list ends up in ascending order.
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p >= 0:
            nxt[v] = head[p]
            head[p] = v
    post: list[int] = []
    stack: list[int] = []
    for root in range(n):
        if parent[root] != -1:
            continue
        stack.append(root)
        while stack:
            node = stack[-1]
            child = head[node]
            if child != -1:
                head[node] = nxt[child]  # consume the child edge
                stack.append(child)
            else:
                post.append(node)
                stack.pop()
    if len(post) != n:
        raise ValueError("parent array contains a cycle")
    return np.asarray(post, dtype=np.int64)


def tree_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node (roots have depth 0)."""
    n = parent.size
    parent = parent.tolist()
    depth = [-1] * n
    for v in range(n):
        # Walk up until a node with a known depth, then unwind.
        path = []
        u = v
        while u != -1 and depth[u] < 0:
            path.append(u)
            u = parent[u]
        d = 0 if u == -1 else depth[u] + 1
        for node in reversed(path):
            depth[node] = d
            d += 1
    return np.asarray(depth, dtype=np.int64)


@dataclass(frozen=True)
class EliminationTree:
    """Elimination tree bundle: parent links plus a postorder.

    ``parent`` is indexed by column of the (already permuted) matrix.  In
    a postordered matrix ``parent[j] > j`` for every non-root — the
    invariant the supernode detector relies on.
    """

    parent: np.ndarray
    post: np.ndarray

    @property
    def n(self) -> int:
        return int(self.parent.size)

    @property
    def n_roots(self) -> int:
        return int(np.count_nonzero(self.parent == -1))

    def is_postordered(self) -> bool:
        """True when the identity order is already a postorder."""
        nonroot = self.parent >= 0
        return bool(np.all(self.parent[nonroot] > np.flatnonzero(nonroot)))

    @classmethod
    def from_pattern(cls, pattern: SparseMatrixCSC) -> "EliminationTree":
        parent = elimination_tree(pattern)
        return cls(parent, postorder(parent))
