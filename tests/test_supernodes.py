"""Supernode detection, row sets, and amalgamation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ordering import nested_dissection
from repro.ordering.perm import Permutation
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic.colcount import column_counts
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.supernodes import (
    amalgamate,
    fundamental_supernodes,
    supernode_row_sets,
)
from tests.conftest import random_spd_dense


def postordered_pipeline(mat: SparseMatrixCSC):
    """Permute to postorder; returns (pattern, parent, counts).

    The returned pattern carries the permuted numeric values (symmetric
    SPD inputs only), so tests can cross-check against a dense Cholesky.
    """
    pattern = mat.symmetrize_pattern().with_full_diagonal()
    parent1 = elimination_tree(pattern)
    perm = Permutation.from_iperm(postorder(parent1))
    pat2 = mat.permute(perm.perm).with_full_diagonal()
    parent = elimination_tree(pat2)
    counts = column_counts(pat2, parent, np.arange(pat2.n_cols))
    return pat2, parent, counts


def snode_nnz(snptr, rowsets) -> int:
    return sum(
        int(w := snptr[i + 1] - snptr[i]) * (w + 1) // 2 + w * rowsets[i].size
        for i in range(snptr.size - 1)
    )


class TestFundamental:
    def test_dense_is_one_supernode(self):
        d = random_spd_dense(6, 1.0, 0)
        pat, parent, counts = postordered_pipeline(SparseMatrixCSC.from_dense(d))
        snptr = fundamental_supernodes(parent, counts)
        assert snptr.size == 2 and snptr[1] == 6

    def test_tridiagonal_all_singletons_merge(self):
        # Tridiagonal: parent chain with counts decreasing by one — the
        # whole matrix is one supernode structurally?  No: col j's
        # structure is {j, j+1}; col j+1's is {j+1, j+2}; counts equal (2)
        # so the merge condition count[j] == count[j+1]+1 fails except at
        # the end — supernodes are fine-grained.
        import scipy.sparse as sp

        t = sp.diags([np.ones(5), np.ones(6), np.ones(5)], [-1, 0, 1]).tocsc()
        pat, parent, counts = postordered_pipeline(SparseMatrixCSC.from_scipy(t))
        snptr = fundamental_supernodes(parent, counts)
        widths = np.diff(snptr)
        # last two columns share structure {4,5},{5}: one supernode of 2
        assert widths[-1] == 2

    def test_partition_covers_all_columns(self, grid2d_small):
        pat, parent, counts = postordered_pipeline(grid2d_small)
        snptr = fundamental_supernodes(parent, counts)
        assert snptr[0] == 0 and snptr[-1] == pat.n_cols
        assert np.all(np.diff(snptr) >= 1)

    def test_within_supernode_structure_nested(self, grid2d_small):
        """Columns of a supernode share their below-diagonal structure."""
        pat, parent, counts = postordered_pipeline(grid2d_small)
        snptr = fundamental_supernodes(parent, counts)
        L = np.linalg.cholesky(pat.to_dense())
        struct = np.abs(L) > 1e-14
        for s in range(snptr.size - 1):
            f, l = snptr[s], snptr[s + 1]
            base = np.flatnonzero(struct[:, f])
            base = base[base >= l]
            for j in range(f + 1, l):
                cols = np.flatnonzero(struct[:, j])
                cols = cols[cols >= l]
                assert np.array_equal(cols, base)


class TestRowSets:
    def test_sizes_match_counts(self, grid2d_small):
        pat, parent, counts = postordered_pipeline(grid2d_small)
        snptr = fundamental_supernodes(parent, counts)
        rowsets, parent_sn = supernode_row_sets(pat, snptr, counts)
        # the counts cross-check is built in; also verify directly
        for s in range(snptr.size - 1):
            w = snptr[s + 1] - snptr[s]
            assert rowsets[s].size == counts[snptr[s]] - w

    def test_rowsets_match_dense_factor(self, grid2d_small):
        pat, parent, counts = postordered_pipeline(grid2d_small)
        snptr = fundamental_supernodes(parent, counts)
        rowsets, _ = supernode_row_sets(pat, snptr, counts)
        L = np.linalg.cholesky(pat.to_dense())
        struct = np.abs(L) > 1e-14
        for s in range(snptr.size - 1):
            f, l = snptr[s], snptr[s + 1]
            ref = np.flatnonzero(struct[:, f])
            assert np.array_equal(rowsets[s], ref[ref >= l])

    def test_parent_snode_is_first_row_owner(self, grid2d_small):
        pat, parent, counts = postordered_pipeline(grid2d_small)
        snptr = fundamental_supernodes(parent, counts)
        rowsets, parent_sn = supernode_row_sets(pat, snptr, counts)
        col2sn = np.zeros(pat.n_cols, dtype=np.int64)
        for s in range(snptr.size - 1):
            col2sn[snptr[s]: snptr[s + 1]] = s
        for s in range(snptr.size - 1):
            if rowsets[s].size:
                assert parent_sn[s] == col2sn[rowsets[s][0]]
            else:
                assert parent_sn[s] == -1

    def test_detects_inconsistent_counts(self, grid2d_small):
        pat, parent, counts = postordered_pipeline(grid2d_small)
        snptr = fundamental_supernodes(parent, counts)
        bad = counts.copy()
        bad[snptr[0]] += 1
        with pytest.raises(AssertionError):
            supernode_row_sets(pat, snptr, bad)


def _amalgamate_by_set_union(snptr, rowsets, parent_snode, ratio):
    """Reference amalgamation: every candidate's fill from an explicit
    ``np.union1d`` of the two row sets (what ``amalgamate`` did before it
    used the nesting of the row structures)."""
    import heapq

    def nnz(width, nrows):
        return width * (width + 1) // 2 + width * nrows

    K = snptr.size - 1
    fcol, lcol = snptr[:-1].copy(), snptr[1:].copy()
    rows = list(rowsets)
    parent = parent_snode.copy()
    alive = np.ones(K, dtype=bool)
    version = np.zeros(K, dtype=np.int64)
    children = [[] for _ in range(K)]
    for s in range(K):
        if parent[s] >= 0:
            children[parent[s]].append(s)
    budget = ratio * sum(
        nnz(int(lcol[s] - fcol[s]), rows[s].size) for s in range(K))

    def merge_cost(c, p):
        wc, wp = int(lcol[c] - fcol[c]), int(lcol[p] - fcol[p])
        merged = np.union1d(rows[p], rows[c][rows[c] >= lcol[p]])
        old = nnz(wc, rows[c].size) + nnz(wp, rows[p].size)
        return nnz(wc + wp, merged.size) - old, merged

    heap = []

    def push(c, p):
        heapq.heappush(heap, (merge_cost(c, p)[0], c, p,
                              int(version[c]), int(version[p])))

    for s in range(K):
        if parent[s] >= 0 and lcol[s] == fcol[parent[s]]:
            push(s, parent[s])
    while heap:
        fill, c, p, vc, vp = heapq.heappop(heap)
        if not (alive[c] and alive[p]) or version[c] != vc or version[p] != vp:
            continue
        if fill > budget:
            break
        budget -= fill
        rows[p] = merge_cost(c, p)[1]
        fcol[p] = fcol[c]
        alive[c] = False
        version[p] += 1
        for g in children[c]:
            if alive[g]:
                parent[g] = p
                children[p].append(g)
        children[c] = []
        gp = parent[p]
        if gp >= 0 and alive[gp] and lcol[p] == fcol[gp]:
            push(p, gp)
        for g in children[p]:
            if alive[g] and lcol[g] == fcol[p]:
                push(g, p)
    keep = np.flatnonzero(alive)
    order = keep[np.argsort(fcol[keep])]
    return (np.concatenate([fcol[order], [lcol[order[-1]]]]),
            [rows[s] for s in order])


class TestAmalgamation:
    def _pipeline(self, mat):
        pat, parent, counts = postordered_pipeline(mat)
        snptr = fundamental_supernodes(parent, counts)
        rowsets, parent_sn = supernode_row_sets(pat, snptr, counts)
        return pat, snptr, rowsets, parent_sn

    def test_zero_ratio_no_fill(self, grid2d_medium):
        pat, snptr, rowsets, psn = self._pipeline(grid2d_medium)
        before = snode_nnz(snptr, rowsets)
        s2, r2 = amalgamate(snptr, rowsets, psn, ratio=0.0)
        assert snode_nnz(s2, r2) == before
        assert s2.size <= snptr.size

    def test_budget_respected(self, grid2d_medium):
        pat, snptr, rowsets, psn = self._pipeline(grid2d_medium)
        exact = snode_nnz(snptr, rowsets)
        for ratio in (0.05, 0.12, 0.3):
            s2, r2 = amalgamate(snptr, rowsets, psn, ratio=ratio)
            assert snode_nnz(s2, r2) <= (1 + ratio) * exact + 1

    def test_more_budget_fewer_supernodes(self, grid2d_medium):
        pat, snptr, rowsets, psn = self._pipeline(grid2d_medium)
        sizes = []
        for ratio in (0.0, 0.1, 0.4):
            s2, _ = amalgamate(snptr, rowsets, psn, ratio=ratio)
            sizes.append(s2.size)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_partition_stays_contiguous(self, grid2d_medium):
        pat, snptr, rowsets, psn = self._pipeline(grid2d_medium)
        s2, r2 = amalgamate(snptr, rowsets, psn, ratio=0.15)
        assert s2[0] == 0 and s2[-1] == pat.n_cols
        assert np.all(np.diff(s2) >= 1)

    def test_rowsets_stay_sorted_below(self, grid2d_medium):
        pat, snptr, rowsets, psn = self._pipeline(grid2d_medium)
        s2, r2 = amalgamate(snptr, rowsets, psn, ratio=0.15)
        for i in range(s2.size - 1):
            r = r2[i]
            assert np.all(np.diff(r) > 0)
            assert r.size == 0 or r[0] >= s2[i + 1]

    def test_rows_beyond_the_parent_nest_in_the_parent(self, grid3d_small):
        """What lets ``amalgamate`` cost a merge from widths and row
        counts alone: merged rows == the parent's rows."""
        _, snptr, rowsets, psn = self._pipeline(grid3d_small)
        for c, p in enumerate(psn):
            if p >= 0:
                beyond = rowsets[c][rowsets[c] >= snptr[p + 1]]
                assert np.isin(beyond, rowsets[p]).all()

    @pytest.mark.parametrize("ratio", [0.0, 0.12, 0.4, 3.0])
    def test_equals_the_set_union_reference(self, grid3d_small,
                                            random_spd_small, ratio):
        for mat in (grid3d_small, random_spd_small):
            _, snptr, rowsets, psn = self._pipeline(mat)
            got = amalgamate(snptr, rowsets, psn, ratio=ratio)
            ref = _amalgamate_by_set_union(snptr, rowsets, psn, ratio)
            assert np.array_equal(got[0], ref[0])
            assert len(got[1]) == len(ref[1])
            assert all(np.array_equal(a, b) for a, b in zip(got[1], ref[1]))
