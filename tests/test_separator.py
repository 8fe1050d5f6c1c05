"""Vertex separator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.adjacency import Graph
from repro.graph.separator import level_set_separator, thin_separator
from repro.sparse.generators import grid_laplacian_2d, random_pattern_spd


def assert_valid_separator(g: Graph, sep, pa, pb):
    """sep ∪ pa ∪ pb partitions V and no edge joins pa to pb."""
    all_v = np.sort(np.concatenate([sep, pa, pb]))
    assert np.array_equal(all_v, np.arange(g.n))
    side = np.zeros(g.n, dtype=int)
    side[pa] = 1
    side[pb] = 2
    src = np.repeat(np.arange(g.n), np.diff(g.xadj))
    bad = (side[src] == 1) & (side[g.adjncy] == 2)
    assert not np.any(bad), "edge crosses the separator"


class TestLevelSet:
    def test_grid_separator_valid(self):
        g = Graph.from_matrix(grid_laplacian_2d(8))
        sep, pa, pb = level_set_separator(g)
        assert_valid_separator(g, sep, pa, pb)
        assert sep.size > 0 and pa.size > 0 and pb.size > 0

    def test_grid_separator_small(self):
        # A k x k grid has a separator of ~k vertices; level sets should
        # stay within a small factor of that.
        g = Graph.from_matrix(grid_laplacian_2d(12))
        sep, pa, pb = level_set_separator(g)
        assert sep.size <= 3 * 12

    def test_balance(self):
        g = Graph.from_matrix(grid_laplacian_2d(10))
        sep, pa, pb = level_set_separator(g)
        assert max(pa.size, pb.size) <= 4 * min(pa.size, pb.size)

    def test_single_vertex(self):
        g = Graph.from_edges(1, [], [])
        sep, pa, pb = level_set_separator(g)
        assert sep.size == 0 and pa.size + pb.size == 1

    def test_complete_graph(self):
        n = 5
        u, v = np.triu_indices(n, 1)
        g = Graph.from_edges(n, u, v)
        sep, pa, pb = level_set_separator(g)
        assert_valid_separator(g, sep, pa, pb)


    def test_unreached_component_is_filed_where_it_was_weighed(self):
        # A path of 9 and, out of the sweep's reach, a path of 6.  The
        # unreached vertices count with the last level when the levels
        # are scored, so that is the side they must end up on: the chosen
        # level balances 7 against 1 + 6, not 7 + 6 against 1.
        path, other = np.arange(9), np.arange(9, 15)
        g = Graph.from_edges(15, np.concatenate([path[:-1], other[:-1]]),
                             np.concatenate([path[1:], other[1:]]))
        sep, pa, pb = level_set_separator(g)
        assert_valid_separator(g, sep, pa, pb)
        assert sep.size == 1 and pa.size == pb.size == 7
        assert set(other) <= set(pb.tolist())


class TestThinning:
    def test_thinning_never_invalidates(self):
        g = Graph.from_matrix(grid_laplacian_2d(7))
        sep, pa, pb = level_set_separator(g)
        sep2, pa2, pb2 = thin_separator(g, sep, pa, pb)
        assert_valid_separator(g, sep2, pa2, pb2)
        assert sep2.size <= sep.size

    def test_thinning_releases_one_sided(self):
        # Path 0-1-2: separator {0, 1}, parts {} and {2}; vertex 0 only
        # touches the separator side and must be released.
        g = Graph.from_edges(3, [0, 1], [1, 2])
        sep, pa, pb = thin_separator(
            g, np.array([0, 1]), np.array([], dtype=np.int64), np.array([2])
        )
        assert 0 not in sep


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), n=st.integers(10, 60))
def test_property_levelset_always_valid(seed, n):
    m = random_pattern_spd(n, 4.0, seed=seed, locality=0.3)
    g = Graph.from_matrix(m)
    sep, pa, pb = level_set_separator(g)
    assert_valid_separator(g, sep, pa, pb)
