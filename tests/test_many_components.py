"""Nested dissection on graphs with many connected components.

The analysis used to cost O(n × #components): one length-``n`` BFS level
array and one length-``N`` relabelling array per component (a 20 000 ×
20 000 diagonal matrix took 2.7 s to *analyze*).  Components are now
labelled in one pass and carved out at a cost proportional to their own
size, with the same permutation.
"""

import time

import networkx as nx
import numpy as np
import pytest

from repro.graph import Graph, connected_components
from repro.ordering import dissection, nested_dissection
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic import analyze
from tests.conftest import COMPONENT_SIZES, many_component_matrix


def _best_of(fn, attempts: int, good_enough: float) -> float:
    """Best wall time of up to ``attempts`` runs (a loaded host may slow
    one run down; it cannot make a quadratic algorithm look linear)."""
    best = float("inf")
    for _ in range(attempts):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        if best < good_enough:
            break
    return best


def test_diagonal_matrix_analyzes_in_linear_time():
    a = SparseMatrixCSC.identity(20_000)
    assert _best_of(lambda: analyze(a), 3, 0.5) < 0.5
    res = analyze(a)
    assert np.array_equal(res.perm.perm, np.arange(20_000))
    assert res.symbol.n_cblk == 20_000


def test_block_diagonal_matrix_analyzes_in_linear_time():
    a = many_component_matrix([3] * 5_000, seed=1)
    assert _best_of(lambda: analyze(a), 3, 1.0) < 1.0


@pytest.mark.parametrize("leaf_size", [2, 12, 96])
def test_components_are_dissected_independently(leaf_size, monkeypatch):
    """[component 0 | component 1 | …] in order of smallest vertex, each
    ordered as if it were the whole graph."""
    a = many_component_matrix(COMPONENT_SIZES, seed=21)
    g = Graph.from_matrix(a)
    monkeypatch.setattr(dissection, "LEAF_SIZE", leaf_size)
    expected = []
    comp = connected_components(g)
    assert comp.max() + 1 == len(COMPONENT_SIZES)
    for c in range(len(COMPONENT_SIZES)):
        sub, members = g.subgraph(np.flatnonzero(comp == c))
        expected.append(members[nested_dissection(sub).iperm])
    got = nested_dissection(g).iperm
    assert np.array_equal(got, np.concatenate(expected))


def test_component_labels_follow_discovery_order():
    a = many_component_matrix(COMPONENT_SIZES, seed=5)
    g = Graph.from_matrix(a)
    comp = connected_components(g)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    src = np.repeat(np.arange(g.n), np.diff(g.xadj))
    ref.add_edges_from(zip(src.tolist(), g.adjncy.tolist()))
    by_smallest = sorted(nx.connected_components(ref), key=min)
    assert len(by_smallest) == comp.max() + 1
    for cid, members in enumerate(by_smallest):
        assert set(np.flatnonzero(comp == cid).tolist()) == members


def test_subgraph_leaves_its_scratch_clean():
    g = Graph.from_matrix(many_component_matrix([5, 7, 9], seed=2))
    first, _ = g.subgraph(np.array([0, 3, 4, 9]))
    again, _ = g.subgraph(np.array([0, 3, 4, 9]))
    other, _ = g.subgraph(np.array([1, 2, 5]))
    assert np.array_equal(first.xadj, again.xadj)
    assert np.array_equal(first.adjncy, again.adjncy)
    other.check()
    assert (g._relabel == -1).all()
