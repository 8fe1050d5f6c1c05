"""The analyze phase: ordering + symbolic factorization in one call.

Mirrors ``pastix_task_analyze``: everything that depends only on the
pattern happens here, once; factorizations with different values (or
different runtimes/machines) all reuse the resulting
:class:`AnalysisResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.adjacency import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.perm import Permutation
from repro.sparse.csc import SparseMatrixCSC
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
        Panels wider than this are split vertically.  ``None`` disables
        splitting (PaStiX's original 1D tasks).
    min_panels:
        Force at least this many panels per splittable supernode.
    """

    ordering: object = "nd"
    amalgamation_ratio: float | None = 0.12
    split_max_width: int | None = 128
    min_panels: int = 1


@dataclass
class AnalysisResult:
    """Everything the numerical phases need from the analysis.

    ``perm`` maps original indices to factorization order (scatter form);
    ``pattern`` is the permuted symmetrised pattern with full diagonal;
    ``symbol`` the block structure; ``parent``/``counts`` the elimination
    tree and factor column counts of the permuted matrix.
    """

    perm: Permutation
    pattern: SparseMatrixCSC
    symbol: SymbolMatrix
    parent: np.ndarray
    counts: np.ndarray

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
    """
    opts = options or SymbolicOptions()
    if not matrix.is_square:
        raise ValueError("analyze requires a square matrix")
    n = matrix.n_rows

    pattern = matrix.symmetrize_pattern().with_full_diagonal()

    if isinstance(opts.ordering, Permutation):
        perm1 = opts.ordering
    elif opts.ordering == "nd":
        perm1 = nested_dissection(Graph.from_symmetric_pattern(pattern))
    elif opts.ordering == "natural":
        perm1 = Permutation.identity(n)
    else:
        raise ValueError(f"unknown ordering {opts.ordering!r}")

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
        snptr, rowsets = split_supernodes(
            snptr,
            rowsets,
            max_width=opts.split_max_width,
            min_panels=opts.min_panels,
        )

    symbol = build_symbol(n, snptr, rowsets)
    return AnalysisResult(
        perm=perm1 @ perm2,
        pattern=final_pattern,
        symbol=symbol,
        parent=parent,
        counts=counts,
    )
