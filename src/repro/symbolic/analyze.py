"""The analyze phase: ordering + symbolic factorization in one call.

Mirrors ``pastix_task_analyze``: everything that depends only on the
pattern happens here, once; factorizations with different values (or
different runtimes/machines) all reuse the resulting
:class:`AnalysisResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import cbuild
from repro.graph import native
from repro.graph.adjacency import Graph
from repro.ordering import dissection
from repro.ordering.perm import Permutation
from repro.sparse.csc import SparseMatrixCSC, entry_owners
from repro.symbolic.colcount import column_counts
from repro.symbolic.etree import EliminationTree, elimination_tree, postorder
from repro.symbolic.splitting import split_supernodes
from repro.symbolic.structures import SymbolMatrix, build_symbol
from repro.symbolic.supernodes import (
    amalgamated_row_sets,
    fundamental_supernodes,
)

__all__ = ["SymbolicOptions", "AnalysisResult", "analyze"]


@dataclass(frozen=True)
class SymbolicOptions:
    """Knobs of the analyze phase.

    Attributes
    ----------
    ordering:
        ``"nd"`` (nested dissection, default), ``"natural"`` (no
        reordering — tests/ablations), or a pre-computed
        :class:`Permutation` in scatter form.
    amalgamation_ratio:
        Allowed relative structural fill when merging supernodes.  The
        paper raises PaStiX's default to ~0.12 for GPU-friendly blocks.
        ``None`` disables amalgamation.
    split_max_width:
        Panels wider than this are split vertically into near-equal
        panels.  ``None`` disables splitting (PaStiX's original 1D tasks).
    """

    ordering: object = "nd"
    amalgamation_ratio: float | None = 0.12
    split_max_width: int | None = 128


@dataclass
class AnalysisResult:
    """Everything the numerical phases need from the analysis.

    ``perm`` maps original indices to factorization order (scatter form);
    ``pattern`` is the permuted symmetrised pattern with full diagonal;
    ``symbol`` the block structure; ``parent``/``counts`` the elimination
    tree and factor column counts of the permuted matrix.
    ``value_map[e]`` is the index into the analysed matrix's values of
    entry ``e`` of ``pattern``, ``-1`` where that matrix has no entry (a
    position of ``Aᵀ`` only, or an added diagonal): a factorization
    gathers its values through it, with no further permutation.
    """

    perm: Permutation
    pattern: SparseMatrixCSC
    symbol: SymbolMatrix
    parent: np.ndarray
    counts: np.ndarray
    value_map: np.ndarray

    @property
    def n(self) -> int:
        return int(self.pattern.n_rows)

    @property
    def nnz_factor(self) -> int:
        return self.symbol.nnz()


def analyze(
    matrix: SparseMatrixCSC,
    options: SymbolicOptions | None = None,
) -> AnalysisResult:
    """Run the full analyze phase on ``matrix``.

    Steps: symmetrise the pattern, apply the fill-reducing ordering,
    postorder the elimination tree (so supernodes are contiguous), compute
    column counts, detect/amalgamate/split supernodes, and build the block
    symbol structure.

    With the analysis helper of :mod:`repro.graph.native` these are three
    C calls — symmetrise, order, block symbol.  Without it the Python
    bodies run, step by step; the two are identical.
    """
    opts = options or SymbolicOptions()
    if not matrix.is_square:
        raise ValueError("analyze requires a square matrix")
    if not (isinstance(opts.ordering, Permutation)
            or opts.ordering in ("nd", "natural")):
        raise ValueError(f"unknown ordering {opts.ordering!r}")
    lib = native.library()
    if lib is not None:
        result = _analyze_native(lib, matrix, opts)
        if result is not None:
            return result
    return _analyze_python(matrix, opts)


def _analyze_native(lib, matrix: SparseMatrixCSC,
                    opts: SymbolicOptions) -> AnalysisResult | None:
    """The analysis as three C calls; ``None`` when the matrix is one the
    Python bodies must decide about (malformed or unsorted columns)."""
    n = matrix.n_rows
    sym = native.symmetrize(lib, n, matrix.colptr, matrix.rowind)
    if sym is None:
        return None
    colptr, rowind, tsrc = sym
    given = (None if opts.ordering == "nd"
             else np.arange(n, dtype=np.int64) if opts.ordering == "natural"
             else opts.ordering.perm)
    if given is not None and given.shape != (n,):
        raise ValueError("perm must have length n for a square matrix")
    ordered = native.order(lib, n, colptr, rowind, tsrc,
                           dissection.LEAF_SIZE, given)
    if ordered is None:
        return None
    perm, parent, counts, colptr, rowind, value_map = ordered
    symbol = SymbolMatrix(n=n, **native.block_symbol(
        lib, n, colptr, rowind, parent, counts, opts.amalgamation_ratio,
        opts.split_max_width))
    return AnalysisResult(
        perm=Permutation(perm),
        pattern=SparseMatrixCSC(n, n, colptr, rowind),
        symbol=symbol,
        parent=parent,
        counts=counts,
        value_map=value_map,
    )


def _analyze_python(matrix: SparseMatrixCSC,
                    opts: SymbolicOptions) -> AnalysisResult:
    """The analysis step by step: the path without a C compiler, and the
    oracle the three C passes equal array for array.  Every step runs its
    Python body, also where the helper loads."""
    with cbuild.python_bodies():
        return _analyze_steps(matrix, opts)


def _analyze_steps(matrix: SparseMatrixCSC,
                   opts: SymbolicOptions) -> AnalysisResult:
    n = matrix.n_rows
    pattern = matrix.symmetrize_pattern().with_full_diagonal()

    if isinstance(opts.ordering, Permutation):
        perm1 = opts.ordering
    elif opts.ordering == "nd":
        perm1 = dissection.nested_dissection(
            Graph.from_symmetric_pattern(pattern))
    else:
        perm1 = Permutation.identity(n)

    permuted = pattern.permute(perm1.perm)

    # Postorder the elimination tree so that supernodes are contiguous
    # column ranges and parent[j] > j everywhere.
    parent1 = elimination_tree(permuted)
    post = postorder(parent1)
    perm2 = Permutation.from_iperm(post)
    final_pattern = permuted.permute(perm2.perm)
    parent = np.full(n, -1, dtype=np.int64)
    nonroot = parent1 >= 0
    parent[perm2.perm[np.flatnonzero(nonroot)]] = perm2.perm[parent1[nonroot]]

    etree = EliminationTree(parent, np.arange(n, dtype=np.int64))
    if not etree.is_postordered():
        raise AssertionError("postorder relabelling failed")

    counts = column_counts(final_pattern, parent, etree.post)

    snptr, rowsets = amalgamated_row_sets(
        final_pattern, fundamental_supernodes(parent, counts), counts,
        opts.amalgamation_ratio,
    )
    if opts.split_max_width is not None:
        snptr, rowsets = split_supernodes(snptr, rowsets,
                                          max_width=opts.split_max_width)

    symbol = build_symbol(n, snptr, rowsets)
    perm = perm1 @ perm2
    return AnalysisResult(
        perm=perm,
        pattern=final_pattern,
        symbol=symbol,
        parent=parent,
        counts=counts,
        value_map=_value_map(matrix, final_pattern, perm.iperm),
    )


def _value_map(matrix: SparseMatrixCSC, pattern: SparseMatrixCSC,
               iperm: np.ndarray) -> np.ndarray:
    """For every entry of ``pattern`` (in the new order, ``iperm[new] =
    old``), the index of ``matrix``'s entry at the same original
    coordinates, or ``-1``: a search among its sorted coordinate keys.
    Raises ``ValueError`` on duplicate coordinates, as the permutation of
    the values does."""
    n = matrix.n_rows
    key = entry_owners(matrix.colptr) * n + matrix.rowind
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeats = np.count_nonzero(key[1:] == key[:-1])
    if repeats:
        raise ValueError(f"{repeats} duplicate coordinates")
    want = iperm[entry_owners(pattern.colptr)] * n + iperm[pattern.rowind]
    at = np.searchsorted(key, want)
    found = at < key.size
    found[found] = key[at[found]] == want[found]
    value_map = np.full(want.size, -1, dtype=np.int64)
    value_map[found] = order[at[found]]
    return value_map
