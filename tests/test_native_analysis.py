"""The C analysis helper against its oracle, the Python bodies.

``repro.graph.native`` must return exactly what the Python ordering and
symbolic loops return — permutation, ``parent``, ``post``, ``counts``, row
sets, element for element — on the collection, on graphs with many
components and on generated graphs down to the empty one; it must refuse
malformed arrays before dereferencing them, keep no state between calls,
and leave a host without a compiler on the Python bodies.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cbuild
from repro.graph import Graph, native
from repro.ordering import dissection, minimum_degree, nested_dissection
from repro.sparse import load_matrix
from repro.sparse.collection import collection_names
from repro.sparse.csc import SparseMatrixCSC, coo_to_csc, entry_owners
from repro.symbolic import (
    amalgamate,
    analyze,
    column_counts,
    elimination_tree,
    fundamental_supernodes,
    postorder,
    supernode_row_sets,
)
from tests.conftest import COMPONENT_SIZES, many_component_matrix
from tests.test_analysis_golden import GOLDEN, _cases, _digest, fingerprint

pytestmark = pytest.mark.skipif(
    native.availability() is not None,
    reason=f"native analysis unavailable: {native.availability()}",
)

LEAF_SIZES = (0, 7, 32, 96, 10 ** 6)


def oracle(fn, *args, **kwargs):
    """``fn(*args)`` through the Python bodies."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        return fn(*args, **kwargs)


def assert_orderings_agree(graph: Graph, leaf_sizes=LEAF_SIZES) -> None:
    """The public entry points and the C wrappers themselves (which answer
    ``None`` only for an adjacency they found inconsistent) against the
    Python bodies."""
    lib = native.library()
    csr = (graph.n, graph.xadj, graph.adjncy)
    for leaf_size in leaf_sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dissection, "LEAF_SIZE", leaf_size)
            want = oracle(nested_dissection, graph)
            assert nested_dissection(graph) == want
        iperm = native.nested_dissection(lib, *csr, graph.vwgt, leaf_size)
        assert iperm is not None
        assert np.array_equal(iperm, want.iperm), leaf_size
    want = oracle(minimum_degree, graph)
    assert minimum_degree(graph) == want
    iperm = native.minimum_degree(lib, *csr)
    assert iperm is not None and np.array_equal(iperm, want.iperm)


def assert_symbolic_agrees(pattern: SparseMatrixCSC) -> None:
    """etree / postorder / counts / row sets of a symmetric pattern with a
    full diagonal, relabelled into a postorder on the way as ``analyze``
    does."""
    parent = elimination_tree(pattern)
    assert np.array_equal(parent, oracle(elimination_tree, pattern))
    post = postorder(parent)
    assert np.array_equal(post, oracle(postorder, parent))
    counts = column_counts(pattern, parent, post)
    assert np.array_equal(counts, oracle(column_counts, pattern, parent, post))

    rank = np.empty_like(post)
    rank[post] = np.arange(post.size)
    pattern = pattern.permute(rank)
    parent = elimination_tree(pattern)
    counts = column_counts(pattern, parent, np.arange(post.size))
    snptr = fundamental_supernodes(parent, counts)
    rowsets, parent_sn = supernode_row_sets(pattern, snptr, counts)
    ref_sets, ref_parent = oracle(supernode_row_sets, pattern, snptr, counts)
    assert np.array_equal(parent_sn, ref_parent)
    assert len(rowsets) == len(ref_sets)
    for got, want in zip(rowsets, ref_sets):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for ratio in (0.0, 0.12, 1.0):
        got = amalgamate(snptr, rowsets, parent_sn, ratio=ratio)
        want = oracle(amalgamate, snptr, rowsets, parent_sn, ratio=ratio)
        assert np.array_equal(got[0], want[0])
        assert [s.size for s in got[1]] == [s.size for s in want[1]]


def graph_pattern(graph: Graph) -> SparseMatrixCSC:
    """The adjacency of ``graph`` plus a full diagonal, as a matrix."""
    diag = np.arange(graph.n)
    return coo_to_csc(graph.n, graph.n,
                      np.concatenate([graph.adjncy, diag]),
                      np.concatenate([entry_owners(graph.xadj), diag]))


# ----------------------------------------------------------------------
# native == Python
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", collection_names())
def test_collection_matrices_agree(name):
    matrix = load_matrix(name, 0.3, 0)
    graph = Graph.from_matrix(matrix)
    assert_orderings_agree(graph)
    pattern = matrix.symmetrize_pattern().with_full_diagonal()
    assert_symbolic_agrees(pattern)
    assert_symbolic_agrees(pattern.permute(nested_dissection(graph).perm))


def test_many_components_agree():
    matrix = many_component_matrix(COMPONENT_SIZES, seed=21)
    graph = Graph.from_matrix(matrix)
    assert_orderings_agree(graph, leaf_sizes=(0, 3, 12, 96))
    assert_symbolic_agrees(matrix.symmetrize_pattern().with_full_diagonal())


@st.composite
def graphs(draw) -> Graph:
    """Empty, 1 x 1, isolated vertices, paths, stars, complete graphs
    (separation fails), random patterns, and unions of those."""
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(
        ["isolated", "path", "star", "complete", "random", "mixed"]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n)
    if kind == "isolated" or n < 2:
        u = v = np.empty(0, dtype=np.int64)
    elif kind == "path":
        u, v = ids[:-1], ids[1:]
    elif kind == "star":
        u, v = np.full(n - 1, ids[0]), ids[1:]
    elif kind == "complete":
        m = min(n, 40)
        u, v = np.triu_indices(m, 1)
        u, v = ids[u], ids[v]
    else:
        m = int(n * draw(st.floats(0.2, 6.0)) / 2)
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        if kind == "mixed":   # a clique and a path beside the random part
            k = min(n, 12)
            cu, cv = np.triu_indices(k, 1)
            u = np.concatenate([u, ids[cu], ids[k:-1]])
            v = np.concatenate([v, ids[cv], ids[k + 1:]])
        u, v = u[u != v], v[u != v]
    return Graph.from_edges(n, u, v)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), leaf_size=st.sampled_from([0, 1, 2, 5, 24, 96]))
def test_generated_graphs_agree(graph, leaf_size):
    assert_orderings_agree(graph, leaf_sizes=(leaf_size,))
    assert_symbolic_agrees(graph_pattern(graph))


def test_weighted_vertices_agree():
    graph = Graph.from_matrix(load_matrix("Serena", 0.3, 0))
    graph.vwgt = np.random.default_rng(3).integers(1, 9, graph.n)
    assert_orderings_agree(graph, leaf_sizes=(16,))


@pytest.mark.parametrize("backend", ["native", "python"])
def test_errors_are_the_same_on_both_backends(backend, request, grid2d_small):
    if backend == "python":
        request.getfixturevalue("python_analysis")
    with pytest.raises(ValueError, match="contains a cycle"):
        postorder(np.array([1, 2, 0, -1], dtype=np.int64))
    res = analyze(grid2d_small)
    snptr = fundamental_supernodes(res.parent, res.counts)
    bad = res.counts.copy()
    bad[snptr[2]] += 1
    with pytest.raises(AssertionError, match=r"supernode 2: row set size \d+ "
                                             r"!= count-derived \d+"):
        supernode_row_sets(res.pattern, snptr, bad)


# ----------------------------------------------------------------------
# Nothing malformed is dereferenced
# ----------------------------------------------------------------------
def _i64(*values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("xadj,adjncy", [
    (_i64(0, 1, 1), _i64(1, 0)),             # xadj[-1] != adjncy.size
    (_i64(1, 1, 2), _i64(1, 0)),             # xadj[0] != 0
    (_i64(0, 2, 1, 2), _i64(1, 2)),          # decreasing (n = 3)
    (_i64(0, 1, 2), _i64(1, 2)),             # neighbour >= n
    (_i64(0, 1, 2), _i64(-1, 0)),            # neighbour < 0
    (_i64(0, 1), _i64(0)),                   # xadj too short for n = 2
    (np.array([0.0, 1.0, 2.0]), _i64(1, 0)),  # not integers
    (_i64(0, 1, 2).reshape(3, 1), _i64(1, 0)),
], ids=["end", "start", "decreasing", "high", "negative", "short", "float",
        "2d"])
def test_malformed_adjacency_is_rejected(xadj, adjncy):
    lib = native.library()
    n = 3 if xadj.size == 4 else 2
    ones = np.ones(n, dtype=np.int64)
    with pytest.raises(ValueError):
        native.nested_dissection(lib, n, xadj, adjncy, ones, 0)
    with pytest.raises(ValueError):
        native.minimum_degree(lib, n, xadj, adjncy)
    with pytest.raises(ValueError):
        native.elimination_tree(lib, n, xadj, adjncy)
    with pytest.raises(ValueError):
        native.column_counts(lib, n, xadj, adjncy,
                             np.full(n, -1, dtype=np.int64), np.arange(n))
    with pytest.raises(ValueError):
        native.supernode_rows(lib, n, xadj, adjncy, _i64(0, n))


def test_malformed_trees_and_partitions_are_rejected():
    lib = native.library()
    colptr, rowind = _i64(0, 2, 4, 5), _i64(0, 1, 0, 1, 2)
    good = dict(parent=_i64(1, -1, -1), post=_i64(0, 1, 2))
    for bad in (dict(parent=_i64(1, 3, -1)), dict(parent=_i64(1, -2, -1)),
                dict(parent=_i64(1, -1)), dict(post=_i64(0, 1, 3)),
                dict(post=_i64(0, 1, 1)), dict(post=_i64(1, 0, 2)),
                dict(parent=_i64(1, 0, -1))):
        args = {**good, **bad}
        with pytest.raises(ValueError):
            native.column_counts(lib, 3, colptr, rowind, args["parent"],
                                 args["post"])
    with pytest.raises(ValueError):
        native.postorder(lib, _i64(1, 3, -1))
    with pytest.raises(ValueError):
        native.nested_dissection(lib, 3, colptr, rowind, _i64(1, 1), 0)
    for snptr in (_i64(0, 2), _i64(1, 3), _i64(0, 2, 1, 3), _i64()):
        with pytest.raises(ValueError):
            native.supernode_rows(lib, 3, colptr, rowind, snptr)
    snptr, ptr = _i64(0, 1, 3, 4), _i64(0, 2, 3, 3)
    for bad in (dict(parent=_i64(1, 2, 0)),    # a parent before its child
                dict(parent=_i64(0, 2, -1)),   # its own parent
                dict(parent=_i64(1, 3, -1)),   # out of range
                dict(parent=_i64(1, -1)),      # too short
                dict(snptr=_i64(0, 2, 1, 4)), dict(snptr=_i64()),
                dict(ptr=_i64(0, 2, 1, 3)), dict(ptr=_i64(1, 2, 3, 3))):
        args = {**dict(snptr=snptr, ptr=ptr, parent=_i64(1, 2, -1)), **bad}
        with pytest.raises(ValueError):
            native.amalgamate(lib, args["snptr"], args["ptr"],
                              args["parent"], 0.12)


@pytest.mark.parametrize("xadj,adjncy,dissection_notices", [
    (_i64(0, 1, 1, 1), _i64(1), False),       # 0 -> 1 only
    (_i64(0, 1, 2, 2), _i64(1, 2), True),     # 0 -> 1 -> 2 only
])
def test_one_way_edges_go_to_the_python_body(xadj, adjncy, dissection_notices,
                                             monkeypatch):
    """An adjacency missing its reverse edges passes the array checks; C
    notices the broken invariant and hands the graph back."""
    lib = native.library()
    ones = np.ones(3, dtype=np.int64)
    assert native.minimum_degree(lib, 3, xadj, adjncy) is None
    iperm = native.nested_dissection(lib, 3, xadj, adjncy, ones, 0)
    assert (iperm is None) == dissection_notices
    graph = Graph(3, xadj, adjncy)
    monkeypatch.setattr(dissection, "LEAF_SIZE", 0)
    assert nested_dissection(graph) == oracle(nested_dissection, graph)
    assert minimum_degree(graph) == oracle(minimum_degree, graph)


# ----------------------------------------------------------------------
# No state, no compiler
# ----------------------------------------------------------------------
def test_concurrent_analyses_agree_with_serial_runs():
    matrices = [load_matrix("audi", 0.3, 0), load_matrix("Serena", 0.3, 0)]
    serial = [fingerprint(analyze(m)) for m in matrices]

    def repeat(matrix):
        return [fingerprint(analyze(matrix)) for _ in range(6)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(repeat, m) for m in matrices]
        results = [f.result(timeout=300) for f in futures]
    assert results == [[digest] * 6 for digest in serial]


def test_without_a_compiler_the_python_bodies_give_the_same_digests(
        monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    keys = {"collection/afshell10@0.3", "components/300v40c",
            "variant/natural"}
    monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
    native._library.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native.library() is None
            assert "no C compiler" in native.availability()
            for key, inp, opts in _cases():
                if key in keys:
                    assert _digest(inp, opts) == golden[key]
            graph = Graph.from_matrix(load_matrix("MHD", 0.3, 0))
            assert minimum_degree(graph).n == graph.n
    finally:
        native._library.cache_clear()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "native analysis helper is unavailable" in str(runtime[0].message)


def test_analysis_object_needs_no_blas_capsule(monkeypatch):
    """The helper loads where the factorization kernel cannot."""
    from repro.kernels import native as kernels_native

    def no_capsule():
        raise kernels_native.NativeUnavailable("no BLAS/LAPACK capsule")

    monkeypatch.setattr(kernels_native, "_entry_point_table", no_capsule)
    kernels_native._library.cache_clear()
    native._library.cache_clear()
    try:
        assert kernels_native.availability() == "no BLAS/LAPACK capsule"
        assert native.availability() is None
    finally:
        kernels_native._library.cache_clear()
