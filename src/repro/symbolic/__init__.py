"""Symbolic analysis: elimination tree, column counts, supernodes,
amalgamation, splitting, and the block symbolic structure (``SymbolMatrix``).

This is the PaStiX *analyze* phase.  Pipeline (see :func:`analyze`):

1. fill-reducing permutation (caller supplies it, usually nested dissection);
2. elimination tree of the permuted pattern + postorder refinement;
3. Gilbert–Ng–Peyton column counts (nnz of each column of L, no L built);
4. fundamental supernodes, amalgamated up to a fill ratio (paper §V: the
   default is raised to allow ~12 % extra fill so GPU blocks get larger);
5. wide supernodes split into vertical panels to create parallelism;
6. block symbolic factorization → :class:`SymbolMatrix` (cblk/blok arrays),
   the structure both runtimes unroll into a task DAG.
"""

from repro.symbolic.etree import elimination_tree, postorder, tree_depths, EliminationTree
from repro.symbolic.colcount import column_counts
from repro.symbolic.supernodes import (
    fundamental_supernodes,
    supernode_row_sets,
    amalgamate,
)
from repro.symbolic.structures import SymbolMatrix, CBlk, Blok, build_symbol
from repro.symbolic.splitting import split_supernodes
from repro.symbolic.analyze import analyze, SymbolicOptions, AnalysisResult

__all__ = [
    "elimination_tree",
    "postorder",
    "tree_depths",
    "EliminationTree",
    "column_counts",
    "fundamental_supernodes",
    "supernode_row_sets",
    "amalgamate",
    "SymbolMatrix",
    "CBlk",
    "Blok",
    "build_symbol",
    "split_supernodes",
    "analyze",
    "SymbolicOptions",
    "AnalysisResult",
]
