"""Supernode detection, supernodal row structures, and amalgamation.

All functions here assume the matrix has already been permuted into a
postorder of its elimination tree, so ``parent[j] > j`` and every
supernode is a contiguous column range.

Amalgamation implements the paper's §V requirement: PaStiX reuses the
approximate-supernode algorithm of Hénon–Ramet–Roman to build *larger*
blocks at the cost of extra fill-in ("the default parameter … has been
slightly increased to allow up to 12 % more fill-in to build larger
blocks"), which is what makes GPU offload worthwhile.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import SparseMatrixCSC, bucket_pointers, entry_owners

__all__ = [
    "fundamental_supernodes",
    "supernode_row_sets",
    "amalgamated_row_sets",
    "amalgamate",
]


def fundamental_supernodes(
    parent: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Partition columns into fundamental supernodes.

    Columns ``j-1`` and ``j`` share a supernode iff ``parent[j-1] == j``
    and ``count[j-1] == count[j] + 1`` (their below-diagonal structures
    coincide).  Requires a postordered matrix.

    Returns ``snptr`` of length ``K+1``: supernode ``s`` owns columns
    ``snptr[s]:snptr[s+1]``.
    """
    n = parent.size
    # Column j starts a supernode unless it continues column j-1's.
    starts = np.ones(n + 1, dtype=bool)
    starts[1:n] = ~(
        (parent[:-1] == np.arange(1, n)) & (counts[:-1] == counts[1:] + 1)
    )
    return np.flatnonzero(starts).astype(np.int64)


def supernode_row_sets(
    pattern: SparseMatrixCSC,
    snptr: np.ndarray,
    counts: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Block symbolic factorization: below-supernode row structure.

    For each supernode ``s`` with columns ``[f, l)``, computes the sorted
    row indices ``R_s`` of ``L`` strictly below row ``l-1`` in those
    columns, by the quotient-graph recurrence

    ``R_s = rows(A[:, f:l]) ∪ ( ⋃_{children c} R_c )  minus rows < l``

    where the children are the supernodes whose first below row falls in
    ``s``.  When ``counts`` is given, the identity
    ``|R_s| == counts[f] - width`` is asserted (a strong cross-check
    between two independent algorithms).

    Returns ``(rowsets, parent_snode)``.
    """
    ptr, rows, parent_snode = _flat_row_sets(pattern, snptr, counts)
    return _slices(ptr, rows, range(snptr.size - 1)), parent_snode


def amalgamated_row_sets(
    pattern: SparseMatrixCSC,
    snptr: np.ndarray,
    counts: np.ndarray | None,
    ratio: float | None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`supernode_row_sets` followed by :func:`amalgamate` (none
    when ``ratio`` is ``None``), slicing the row sets of the surviving
    supernodes only.  Returns the new ``(snptr, rowsets)``."""
    ptr, rows, parent_snode = _flat_row_sets(pattern, snptr, counts)
    if ratio is None:
        keep: range | np.ndarray = range(snptr.size - 1)
    else:
        snptr, keep = _merge(snptr, ptr, parent_snode, ratio)
    return snptr, _slices(ptr, rows, keep)


def _slices(ptr: np.ndarray, rows: np.ndarray, keep) -> list[np.ndarray]:
    """``rows[ptr[s]:ptr[s + 1]]`` for every ``s`` in ``keep``."""
    lo, hi = ptr[:-1].tolist(), ptr[1:].tolist()
    return [rows[lo[s]: hi[s]] for s in keep]


def _flat_row_sets(
    pattern: SparseMatrixCSC,
    snptr: np.ndarray,
    counts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row sets of :func:`supernode_row_sets` as one flat array:
    ``(ptr, rows, parent_snode)``, supernode ``s`` owning
    ``rows[ptr[s]:ptr[s + 1]]``."""
    K = snptr.size - 1
    expected = None if counts is None else counts[snptr[:-1]] - np.diff(snptr)
    col2sn = entry_owners(snptr)

    # A's own contribution to every supernode in one pass: the entries
    # below their supernode's last column (CSC order groups them).
    entry_sn = np.repeat(col2sn, np.diff(pattern.colptr))
    below = pattern.rowind >= snptr[entry_sn + 1]
    a_rows = pattern.rowind[below]
    a_ptr = bucket_pointers(entry_sn[below], K).tolist()

    lcols = snptr[1:].tolist()
    rowsets: list[np.ndarray] = [None] * K  # type: ignore[list-item]
    parent_snode = [-1] * K
    contrib: list[list[np.ndarray]] = [[] for _ in range(K)]

    for s in range(K):
        merged = np.concatenate(contrib[s] + [a_rows[a_ptr[s]: a_ptr[s + 1]]])
        contrib[s] = []  # free the inputs eagerly
        merged.sort()
        keep = np.ones(merged.size, dtype=bool)
        keep[1:] = merged[1:] != merged[:-1]
        rowsets[s] = merged = merged[keep]
        if expected is not None and merged.size != expected[s]:
            raise AssertionError(
                f"supernode {s}: row set size {merged.size} != "
                f"count-derived {expected[s]}"
            )
        if merged.size:
            p = int(col2sn[merged[0]])
            parent_snode[s] = p
            # Contribution to the parent: rows beyond the parent's columns.
            beyond = merged[np.searchsorted(merged, lcols[p]):]
            if beyond.size:
                contrib[p].append(beyond)
    ptr = np.zeros(K + 1, dtype=np.int64)
    np.cumsum([r.size for r in rowsets], out=ptr[1:])
    return (ptr, np.concatenate([np.empty(0, np.int64), *rowsets]),
            np.asarray(parent_snode, dtype=np.int64))


def _sn_nnz(width: int, nrows: int) -> int:
    """nnz of one supernode of the (lower) factor."""
    return width * (width + 1) // 2 + width * nrows


def amalgamate(
    snptr: np.ndarray,
    rowsets: list[np.ndarray],
    parent_snode: np.ndarray,
    *,
    ratio: float = 0.12,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merge supernodes with their parents to build larger blocks.

    A child may merge into its parent when their column ranges are
    contiguous.  Merges are performed cheapest-fill-first (a heap with
    lazy invalidation) and the *total* extra structural fill is capped at
    ``ratio × nnz(L)`` — matching the paper's "allow up to 12 % more
    fill-in to build larger blocks" (a global budget, not a per-merge
    ratio, which would compound without bound).  ``ratio = 0`` performs
    only zero-fill merges.

    ``rowsets``/``parent_snode`` must come from a block symbolic
    factorization (:func:`supernode_row_sets`): there a child's rows
    beyond its parent's columns are a subset of the parent's rows, so a
    merged supernode keeps exactly its parent's row set and a merge's fill
    follows from two widths and two row counts — no set union per
    candidate, O(#supernodes) heap work in all.

    Returns the new ``(snptr, rowsets)``.
    """
    ptr = np.zeros(snptr.size, dtype=np.int64)
    np.cumsum([r.size for r in rowsets], out=ptr[1:])
    snptr, keep = _merge(snptr, ptr, parent_snode, ratio)
    return snptr, [rowsets[s] for s in keep.tolist()]


def _merge(
    snptr: np.ndarray, ptr: np.ndarray, parent_snode: np.ndarray, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """The merge loop of :func:`amalgamate` on row counts alone
    (``ptr[s + 1] - ptr[s]`` rows below supernode ``s``): the new
    ``snptr`` and the surviving supernodes, in ascending first column."""
    import heapq

    K = snptr.size - 1
    fcol = snptr[:-1].tolist()
    lcol = snptr[1:].tolist()   # exclusive
    nrows = np.diff(ptr).tolist()
    parent = parent_snode.tolist()
    alive = [True] * K
    version = [0] * K
    children: list[list[int]] = [[] for _ in range(K)]
    for s in range(K):
        if parent[s] >= 0:
            children[parent[s]].append(s)

    budget = ratio * sum(
        _sn_nnz(lcol[s] - fcol[s], nrows[s]) for s in range(K)
    )
    heap: list[tuple[int, int, int, int, int]] = []

    def push_candidate(c: int, p: int) -> None:
        wc, wp = lcol[c] - fcol[c], lcol[p] - fcol[p]
        fill = (_sn_nnz(wc + wp, nrows[p])
                - _sn_nnz(wc, nrows[c]) - _sn_nnz(wp, nrows[p]))
        heapq.heappush(heap, (fill, c, p, version[c], version[p]))

    for s in range(K):
        p = parent[s]
        if p >= 0 and lcol[s] == fcol[p]:
            push_candidate(s, p)

    while heap:
        fill, c, p, vc, vp = heapq.heappop(heap)
        if not (alive[c] and alive[p]):
            continue
        if version[c] != vc or version[p] != vp:
            continue
        if fill > budget:
            # Cheapest remaining merge exceeds the budget: done.
            break
        # Merge c into p: p grows downwards and keeps its rows.
        budget -= fill
        fcol[p] = fcol[c]
        alive[c] = False
        version[p] += 1
        for g in children[c]:
            if alive[g]:
                parent[g] = p
                children[p].append(g)
        children[c] = []
        # New candidate pairs involving the grown parent.
        gp = parent[p]
        if gp >= 0 and alive[gp] and lcol[p] == fcol[gp]:
            push_candidate(p, gp)
        for g in children[p]:
            if alive[g] and lcol[g] == fcol[p]:
                push_candidate(g, p)

    order = sorted((s for s in range(K) if alive[s]), key=fcol.__getitem__)
    # Sanity: contiguous partition.
    if [fcol[s] for s in order[1:]] != [lcol[s] for s in order[:-1]]:
        raise AssertionError("amalgamation produced a non-contiguous partition")
    keep = np.asarray(order, dtype=np.int64)
    return np.concatenate([snptr[:1], snptr[keep + 1]]).astype(
        np.int64, copy=False), keep
