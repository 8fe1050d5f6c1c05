"""The analysis as three C passes against the Python bodies.

``analyze()`` runs ``repro_symmetrize``, ``repro_order`` and
``repro_block_symbol`` when the analysis helper loads; every array it
returns — permutation, tree, counts, pattern, value map and every field
of the symbol — must equal what the step-by-step Python bodies return,
on ugly patterns: n = 0 and 1, empty columns, missing diagonals,
unsymmetric and disconnected patterns, one dense row.  Amalgamation,
which pass 3 shares with the public :func:`amalgamate`, is checked the
same way.
"""

from __future__ import annotations

import importlib
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SolverOptions, SparseSolver
from repro.core.factorization import factorize_sequential
from repro.graph import native
from repro.ordering import dissection
from repro.ordering.perm import Permutation
from repro.sparse.csc import SparseMatrixCSC, coo_to_csc, entry_owners
from repro.symbolic import SymbolicOptions, amalgamate, analyze

#: The analysis module (the package attribute ``repro.symbolic.analyze``
#: is the function).
ANALYZE = importlib.import_module("repro.symbolic.analyze")

pytestmark = pytest.mark.skipif(
    native.availability() is not None,
    reason=f"native analysis unavailable: {native.availability()}",
)

SYMBOL_ARRAYS = native.SYMBOL_FIELDS

OPTIONS = {
    "default": SymbolicOptions(),
    "no-amalgamation": SymbolicOptions(amalgamation_ratio=None),
    "no-split": SymbolicOptions(split_max_width=None),
    "narrow": SymbolicOptions(split_max_width=2, min_panels=3),
    "greedy": SymbolicOptions(amalgamation_ratio=1e6),
    "natural": SymbolicOptions(ordering="natural"),
}


def python_bodies(fn, *args, **kwargs):
    """``fn(*args)`` with the analysis helper hidden."""
    with native.python_bodies():
        return fn(*args, **kwargs)


@st.composite
def ugly_matrices(draw) -> SparseMatrixCSC:
    """Square matrices whose values are their entry indices: empty, 1 x 1,
    diagonal only, random unsymmetric (diagonal entries dropped at
    random), disconnected blocks, empty columns, one dense row."""
    kind = draw(st.sampled_from(
        ["tiny", "diagonal", "unsymmetric", "blocks", "empty-columns",
         "dense-row"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(0, 1)) if kind == "tiny" else draw(
        st.integers(2, 90))
    if kind == "tiny":
        rows = cols = np.arange(draw(st.integers(0, n)))
    elif kind == "diagonal":
        rows = cols = np.arange(n)
    else:
        m = int(n * draw(st.floats(0.0, 3.0)))
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        if kind == "blocks":      # entries only inside a few diagonal blocks
            cuts = np.sort(rng.integers(0, n, 3))
            block = np.searchsorted(cuts, rows, side="right")
            keep = block == np.searchsorted(cuts, cols, side="right")
            rows, cols = rows[keep], cols[keep]
        elif kind == "empty-columns":
            empty = rng.random(n) < 0.4
            keep = ~empty[cols] & ~empty[rows]
            rows, cols = rows[keep], cols[keep]
        elif kind == "dense-row":
            r = int(rng.integers(0, n))
            rows = np.concatenate([rows, np.full(n, r)])
            cols = np.concatenate([cols, np.arange(n)])
        diag = np.flatnonzero(rng.random(n) < 0.5)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
    key = np.unique(np.asarray(cols, np.int64) * max(n, 1) + rows)
    matrix = coo_to_csc(n, n, key % max(n, 1), key // max(n, 1))
    matrix.values = np.arange(matrix.nnz, dtype=np.float64)
    return matrix


def random_matrix(n: int, seed: int) -> SparseMatrixCSC:
    """An unsymmetric pattern with a full diagonal, values its entry
    indices."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    key = np.unique(cols * n + rows)
    matrix = coo_to_csc(n, n, key % n, key // n)
    matrix.values = np.arange(matrix.nnz, dtype=np.float64)
    return matrix


def assert_same_analysis(got, want) -> None:
    assert np.array_equal(got.perm.perm, want.perm.perm)
    for name in ("parent", "counts", "value_map"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name
    for name in ("colptr", "rowind"):
        assert np.array_equal(getattr(got.pattern, name),
                              getattr(want.pattern, name)), name
    assert got.symbol.n == want.symbol.n
    for name in SYMBOL_ARRAYS:
        a, b = getattr(got.symbol, name), getattr(want.symbol, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(matrix=ugly_matrices(), leaf_size=st.sampled_from([0, 2, 5, 96]),
       options=st.sampled_from(sorted(OPTIONS)))
def test_three_passes_equal_the_python_bodies(matrix, leaf_size, options):
    opts = OPTIONS[options]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dissection, "LEAF_SIZE", leaf_size)
        got = ANALYZE._analyze_native(native.library(), matrix, opts)
        want = ANALYZE._analyze_python(matrix, opts)
    assert got is not None
    assert_same_analysis(got, want)


@settings(max_examples=60, deadline=None)
@given(matrix=ugly_matrices())
def test_value_map_names_the_entry_at_the_same_coordinates(matrix):
    result = analyze(matrix)
    n, iperm = matrix.n_rows, result.perm.iperm
    pattern = result.pattern
    old_row = iperm[pattern.rowind]
    old_col = iperm[entry_owners(pattern.colptr)]
    dense = np.full((n, n), -1, dtype=np.int64)
    dense[matrix.rowind, entry_owners(matrix.colptr)] = np.arange(matrix.nnz)
    assert np.array_equal(result.value_map, dense[old_row, old_col])


def test_a_given_ordering_is_applied_as_given():
    matrix = random_matrix(40, seed=1)
    n = matrix.n_rows
    perm = Permutation.random(n, seed=3)
    opts = SymbolicOptions(ordering=perm)
    assert_same_analysis(analyze(matrix, opts),
                         python_bodies(analyze, matrix, opts))
    with pytest.raises(ValueError, match="length n"):
        analyze(matrix, SymbolicOptions(ordering=Permutation.identity(n + 1)))


def test_unsorted_columns_go_to_the_python_bodies():
    # Column 0 lists its rows descending: pass 1 hands the matrix back.
    matrix = SparseMatrixCSC(3, 3, np.array([0, 2, 3, 4]),
                             np.array([2, 0, 1, 2]), np.arange(4.0))
    assert native.symmetrize(native.library(), 3, matrix.colptr,
                             matrix.rowind) is None
    assert_same_analysis(analyze(matrix), python_bodies(analyze, matrix))


def test_duplicate_coordinates_are_rejected():
    matrix = SparseMatrixCSC(2, 2, np.array([0, 2, 3]), np.array([1, 1, 1]),
                             np.arange(3.0))
    for run in (analyze, lambda m: python_bodies(analyze, m)):
        with pytest.raises(ValueError, match="1 duplicate coordinates"):
            run(matrix)


def test_wrong_column_counts_fail_as_in_the_python_body():
    matrix = random_matrix(40, seed=2)
    res = analyze(matrix, SymbolicOptions(amalgamation_ratio=None,
                                          split_max_width=None))
    counts = res.counts.copy()
    counts[0] += 1
    lib, n = native.library(), res.n
    with pytest.raises(AssertionError) as c_error:
        native.block_symbol(lib, n, res.pattern.colptr, res.pattern.rowind,
                            res.parent, counts, None, None, 1)
    with pytest.raises(AssertionError) as py_error:
        python_bodies(ANALYZE.amalgamated_row_sets, res.pattern,
                      ANALYZE.fundamental_supernodes(res.parent, counts),
                      counts, None)
    assert str(c_error.value) == str(py_error.value)


def test_the_python_bodies_call_no_c(monkeypatch):
    """``_analyze_python`` is the oracle: no step reaches the helper, on
    the calling thread only."""
    def refuse(*args, **kwargs):
        raise AssertionError("a C call inside the Python bodies")

    for name in ("nested_dissection", "minimum_degree", "elimination_tree",
                 "postorder", "column_counts", "supernode_rows",
                 "amalgamate", "permute_pattern"):
        monkeypatch.setattr(native, name, refuse)
    ANALYZE._analyze_python(random_matrix(60, seed=4), SymbolicOptions())
    assert native.library() is not None
    with native.python_bodies():
        seen = []
        thread = threading.Thread(target=lambda: seen.append(native.library()))
        thread.start()
        thread.join()
        assert native.library() is None
    assert seen[0] is not None


def test_explicit_zeros_leave_the_factor_unchanged():
    """An unsymmetric LU pattern: the analysis pattern holds entries of
    ``Aᵀ`` only, assembled as zeros; the factor equals the one of the
    permuted matrix itself."""
    rng = np.random.default_rng(7)
    n = 60
    rows, cols = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    keep = rows > cols
    rows = np.concatenate([rows[keep], np.arange(n)])
    cols = np.concatenate([cols[keep], np.arange(n)])
    values = np.where(rows == cols, 10.0 * n, rng.standard_normal(rows.size))
    matrix = coo_to_csc(n, n, rows, cols, values)
    solver = SparseSolver(matrix, SolverOptions(factotype="lu"))
    solver.factorize()
    assert (solver.analysis.value_map < 0).any()
    permuted = matrix.permute(solver.analysis.perm.perm)
    reference = factorize_sequential(solver.analysis.symbol, permuted, "lu")
    for side in ("L_arena", "U_arena"):
        assert np.array_equal(getattr(solver.factor, side),
                              getattr(reference, side))


# ----------------------------------------------------------------------
# Amalgamation, shared with the public function
# ----------------------------------------------------------------------
@st.composite
def supernodes_with_empty_ones(draw):
    """``(snptr, rowsets, parent_snode)`` with zero-width supernodes among
    the others: several of them end at one column."""
    k = draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    snptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(rng.integers(0, 4, k), out=snptr[1:])
    parent = np.full(k, -1, dtype=np.int64)
    for s in range(k - 1):
        if rng.random() < 0.9:
            parent[s] = s + 1 if rng.random() < 0.6 else rng.integers(s + 1, k)
    rowsets = [np.arange(int(r)) for r in rng.integers(0, 30, k)]
    return snptr, rowsets, parent


@settings(max_examples=200, deadline=None)
@given(tree=supernodes_with_empty_ones(),
       ratio=st.sampled_from([0.0, 0.12, 3.0, 1e6]))
def test_amalgamation_with_empty_supernodes_equals_python(tree, ratio):
    snptr, rowsets, parent = tree
    try:
        want = python_bodies(amalgamate, snptr, rowsets, parent, ratio=ratio)
    except AssertionError as error:
        with pytest.raises(AssertionError, match=str(error)):
            amalgamate(snptr, rowsets, parent, ratio=ratio)
        return
    got = amalgamate(snptr, rowsets, parent, ratio=ratio)
    assert np.array_equal(got[0], want[0])
    assert all(a is b for a, b in zip(got[1], want[1]))
    assert len(got[1]) == len(want[1])

