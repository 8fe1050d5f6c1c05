"""Ordering tests: permutations, minimum degree, nested dissection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.adjacency import Graph
from repro.ordering import Permutation, minimum_degree, nested_dissection
from repro.sparse.generators import grid_laplacian_2d, random_pattern_spd
from tests.conftest import ND


def fill_in(mat, perm: Permutation) -> int:
    """nnz of the Cholesky factor of the permuted matrix (dense check)."""
    d = mat.permute(perm.perm).to_dense()
    L = np.linalg.cholesky(d)
    return int((np.abs(L) > 1e-12).sum())


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert np.array_equal(p.perm, [0, 1, 2, 3])
        assert p.inverse() == p

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            Permutation(np.array([0, 3]))

    def test_iperm_roundtrip(self):
        p = Permutation(np.array([2, 0, 1]))
        assert np.array_equal(Permutation.from_iperm(p.iperm).perm, p.perm)

    def test_compose_is_sequential_application(self):
        a = Permutation.random(6, seed=1)
        b = Permutation.random(6, seed=2)
        c = a @ b
        x = np.arange(6.0)
        assert np.allclose(
            c.apply_to_vector(x), b.apply_to_vector(a.apply_to_vector(x))
        )

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3) @ Permutation.identity(4)

    def test_apply_undo_roundtrip(self):
        p = Permutation.random(8, seed=3)
        x = np.random.default_rng(0).standard_normal(8)
        assert np.allclose(p.undo_on_vector(p.apply_to_vector(x)), x)

    def test_apply_matches_matrix_convention(self, grid2d_small):
        # x permuted like matrix rows: (PAP^T)(Px) = P(Ax)
        p = Permutation.random(grid2d_small.n_rows, seed=4)
        x = np.random.default_rng(1).standard_normal(grid2d_small.n_rows)
        lhs = grid2d_small.permute(p.perm).matvec(p.apply_to_vector(x))
        rhs = p.apply_to_vector(grid2d_small.matvec(x))
        assert np.allclose(lhs, rhs)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 999))
    def test_property_inverse_composes_to_identity(self, n, seed):
        p = Permutation.random(n, seed=seed)
        assert (p @ p.inverse()) == Permutation.identity(n)


def _minimum_degree_with_sets(graph: Graph) -> np.ndarray:
    """Reference quotient-graph minimum degree on Python ``set`` objects
    (exact external degree, lowest index on ties); returns ``iperm``."""
    import heapq

    n = graph.n
    nbr = [set(graph.neighbors(v).tolist()) for v in range(n)]
    elems = [set() for _ in range(n)]
    elem_vars = {}
    eliminated = [False] * n

    def reach(v):
        r = set(nbr[v])
        for e in elems[v]:
            r |= elem_vars[e]
        r.discard(v)
        return r

    degree = [len(nbr[v]) for v in range(n)]
    heap = [(degree[v], v) for v in range(n)]
    heapq.heapify(heap)
    iperm = []
    for _ in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if not eliminated[v] and d == degree[v]:
                break
        eliminated[v] = True
        iperm.append(v)
        r = reach(v)
        absorbed = elems[v]
        elem_vars[v] = r
        for e in absorbed:
            del elem_vars[e]
        for u in r:
            nbr[u].discard(v)
            nbr[u] -= r
            elems[u] -= absorbed
            elems[u].add(v)
            degree[u] = len(reach(u))
            heapq.heappush(heap, (degree[u], u))
        nbr[v].clear()
        elems[v] = set()
    return np.asarray(iperm, dtype=np.int64)


class TestMinimumDegree:
    def test_is_permutation(self):
        g = Graph.from_matrix(grid_laplacian_2d(5))
        assert minimum_degree(g).n == 25

    def test_reduces_fill_vs_natural(self, grid2d_small):
        g = Graph.from_matrix(grid2d_small)
        p = minimum_degree(g)
        assert fill_in(grid2d_small, p) <= fill_in(
            grid2d_small, Permutation.identity(grid2d_small.n_rows)
        )

    def test_star_graph_center_last(self):
        # Eliminating the hub first would create a clique: min degree
        # eliminates all the leaves (degree 1) before the hub.
        n = 8
        g = Graph.from_edges(n, np.zeros(n - 1, dtype=np.int64),
                             np.arange(1, n, dtype=np.int64))
        p = minimum_degree(g)
        # The hub keeps degree >= 2 until only two vertices remain, so it
        # must be one of the last two eliminated.
        assert p.perm[0] >= n - 2

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 70), avg_deg=st.floats(0.5, 9.0),
           seed=st.integers(0, 10_000))
    def test_equals_the_set_based_reference(self, n, avg_deg, seed):
        rng = np.random.default_rng(seed)
        m = int(n * avg_deg / 2)
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        g = Graph.from_edges(n, u[u != v], v[u != v])
        assert np.array_equal(minimum_degree(g).iperm,
                              _minimum_degree_with_sets(g))

    def test_reference_agrees_on_a_grid(self):
        g = Graph.from_matrix(grid_laplacian_2d(9))
        assert np.array_equal(minimum_degree(g).iperm,
                              _minimum_degree_with_sets(g))


class TestNestedDissection:
    def test_is_permutation(self, grid2d_medium):
        p = nested_dissection(grid2d_medium)
        assert p.n == grid2d_medium.n_rows

    def test_beats_natural_fill_on_grid(self):
        m = grid_laplacian_2d(12)
        p = nested_dissection(m)
        assert fill_in(m, p) < fill_in(m, Permutation.identity(m.n_rows))

    def test_leaf_orderings(self, grid2d_small, monkeypatch):
        monkeypatch.setattr(ND, "LEAF_SIZE", 16)
        p = nested_dissection(grid2d_small)
        assert np.array_equal(np.sort(p.perm), np.arange(grid2d_small.n_rows))

    def test_disconnected_graph(self):
        import scipy.sparse as sp
        from repro.sparse.csc import SparseMatrixCSC

        a = grid_laplacian_2d(5).to_scipy()
        blk = sp.block_diag([a, a]).tocsc()
        m = SparseMatrixCSC.from_scipy(blk)
        p = nested_dissection(m)
        assert p.n == 50

    def test_accepts_graph_input(self, grid2d_small):
        g = Graph.from_matrix(grid2d_small)
        assert nested_dissection(g).n == g.n

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), n=st.integers(20, 80))
    def test_property_always_valid_permutation(self, seed, n):
        m = random_pattern_spd(n, 5.0, seed=seed, locality=0.4)
        p = nested_dissection(m)
        assert np.array_equal(np.sort(p.perm), np.arange(n))
