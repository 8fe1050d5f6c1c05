"""Undirected adjacency-list graph backed by CSR arrays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sparse.csc import SparseMatrixCSC, bucket_pointers, entry_owners

__all__ = ["Graph"]


@dataclass
class Graph:
    """Undirected graph in CSR form.

    ``xadj`` has length ``n + 1``; the neighbours of vertex ``v`` are
    ``adjncy[xadj[v]:xadj[v+1]]``.  Self-loops are disallowed; every edge
    appears in both endpoints' lists.  ``vwgt`` carries the vertex
    weights separator balance is computed on (defaults to 1).
    """

    n: int
    xadj: np.ndarray
    adjncy: np.ndarray
    vwgt: Optional[np.ndarray] = None
    #: :meth:`subgraph`'s relabelling scratch (all ``-1`` between calls).
    _relabel: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.vwgt is None:
            self.vwgt = np.ones(self.n, dtype=np.int64)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjncy.size) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    def gather(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated adjacency lists of ``vertices`` (duplicates and
        all) and the length of each list."""
        starts = self.xadj[vertices]
        lens = self.xadj[vertices + 1] - starts
        ends = lens.cumsum()
        total = int(ends[-1]) if ends.size else 0
        runs = (starts - ends + lens).repeat(lens) + np.arange(total)
        return self.adjncy[runs], lens

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, mat: SparseMatrixCSC) -> "Graph":
        """Adjacency graph of a square matrix pattern.

        The pattern is symmetrised (the graph of :math:`A + A^T`) and the
        diagonal is dropped, matching what PaStiX hands to Scotch.
        """
        return cls.from_symmetric_pattern(mat.symmetrize_pattern())

    @classmethod
    def from_symmetric_pattern(cls, sym: SparseMatrixCSC) -> "Graph":
        """Adjacency graph of a pattern that is already symmetric, with
        rows ascending and unique in each column (what
        :meth:`SparseMatrixCSC.symmetrize_pattern` returns): that CSC
        minus its diagonal *is* the sorted adjacency."""
        cols = entry_owners(sym.colptr)
        off = sym.rowind != cols
        return cls(sym.n_rows, bucket_pointers(cols[off], sym.n_rows),
                   sym.rowind[off])

    @classmethod
    def from_edges(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Build from an undirected edge list (each edge listed once)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        # Both directions, sorted by (source, target), duplicates dropped.
        key = np.unique(np.concatenate([u * n + v, v * n + u]))
        rows, cols = np.divmod(key, max(n, 1))
        return cls(n, bucket_pointers(rows, n), cols)

    # ------------------------------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, vertices)`` where ``vertices[i]`` is the original
        id of sub-vertex ``i``.  Costs O(|vertices| + their edges): edges
        leaving the set are masked out through a relabelling array kept
        on the graph and reset after use.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if self._relabel is None:
            self._relabel = np.full(self.n, -1, dtype=np.int64)
        local = self._relabel
        local[vertices] = np.arange(vertices.size, dtype=np.int64)
        nbrs, lens = self.gather(vertices)
        dst_local = local[nbrs]
        local[vertices] = -1
        # Runs are in vertex order, so sources are already sorted.
        src_local = np.repeat(np.arange(vertices.size, dtype=np.int64), lens)
        keep = dst_local >= 0
        sub = Graph(vertices.size,
                    bucket_pointers(src_local[keep], vertices.size),
                    dst_local[keep], vwgt=self.vwgt[vertices])
        return sub, vertices

    def check(self) -> None:
        """Validate symmetry and basic invariants (tests only)."""
        if self.xadj[0] != 0 or self.xadj[-1] != self.adjncy.size:
            raise ValueError("xadj endpoints inconsistent")
        if self.adjncy.size:
            if self.adjncy.min() < 0 or self.adjncy.max() >= self.n:
                raise ValueError("neighbour index out of range")
        src = entry_owners(self.xadj)
        if np.any(src == self.adjncy):
            raise ValueError("self-loop present")
        fwd, rev = src * self.n + self.adjncy, self.adjncy * self.n + src
        if not np.array_equal(np.sort(fwd), np.sort(rev)):
            raise ValueError("an edge is missing its reverse")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.n_edges})"
