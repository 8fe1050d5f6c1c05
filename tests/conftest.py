"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import cbuild
from repro.sparse.csc import SparseMatrixCSC, coo_to_csc
from repro.sparse.generators import (
    grid_laplacian_2d,
    grid_laplacian_3d,
    helmholtz_like_2d,
    random_pattern_spd,
)


def backend(kernels: str):
    """The block a ``"native"`` or ``"numpy"`` case runs in: as it is
    (the host's backend), or under :func:`repro.cbuild.python_bodies`."""
    return (cbuild.python_bodies() if kernels == "numpy"
            else contextlib.nullcontext())


def random_spd_dense(n: int, density: float, seed: int) -> np.ndarray:
    """Dense random SPD matrix with a sparse off-diagonal pattern."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    a = (a + a.T) / 2
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    return a


def random_spd_csc(n: int, density: float, seed: int) -> SparseMatrixCSC:
    return SparseMatrixCSC.from_dense(random_spd_dense(n, density, seed))


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Dense P with (P A Pᵀ)[perm[i], perm[j]] = A[i, j]."""
    n = perm.size
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    return p


@pytest.fixture(scope="session")
def grid2d_small() -> SparseMatrixCSC:
    return grid_laplacian_2d(8, jitter=0.05, seed=3)


@pytest.fixture(scope="session")
def grid2d_medium() -> SparseMatrixCSC:
    return grid_laplacian_2d(16, jitter=0.05, seed=5)


@pytest.fixture(scope="session")
def grid3d_small() -> SparseMatrixCSC:
    return grid_laplacian_3d(6, jitter=0.05, seed=7)


@pytest.fixture(scope="session")
def helmholtz_small() -> SparseMatrixCSC:
    return helmholtz_like_2d(8, seed=11)


@pytest.fixture(scope="session")
def random_spd_small() -> SparseMatrixCSC:
    return random_pattern_spd(60, 6.0, seed=13, locality=0.5)


@pytest.fixture
def no_unit_floor(monkeypatch):
    """Drop the unit DAG's and the solve DAG's flop floors
    (``MIN_UNIT_FLOPS``, ``MIN_SOLVE_FLOPS``).

    The test matrices are worth far less than either floor, so with them
    every unit DAG is one task and every solve DAG one forward and one
    backward task; without them they get a real unit tree (tens of
    tasks), which is what the concurrency, bit-identity and structure
    tests of the unit and solve paths need to exercise.  Both floors are
    in the keys the DAGs are memoised under on the symbol.
    """
    monkeypatch.setattr("repro.dag.builder.MIN_UNIT_FLOPS", 0.0)
    monkeypatch.setattr("repro.dag.builder.MIN_SOLVE_FLOPS", 0.0)


def split_every_panel(monkeypatch) -> None:
    """Drop the unit, solve and split floors and cut row blocks of 3
    rows, so that the test matrices get a unit tree whose panels split
    into a diagonal task and row-block tasks, and a many-task solve DAG
    (``row_blocks`` and the DAGs are memoised on the symbol under these
    constants)."""
    monkeypatch.setattr("repro.dag.builder.MIN_UNIT_FLOPS", 0.0)
    monkeypatch.setattr("repro.dag.builder.MIN_SOLVE_FLOPS", 0.0)
    monkeypatch.setattr("repro.dag.builder.MIN_SPLIT_FLOPS", 0.0)
    monkeypatch.setattr("repro.dag.builder.ROW_BLOCK", 3)


@pytest.fixture
def split_panels(monkeypatch):
    """:func:`split_every_panel` for one test."""
    split_every_panel(monkeypatch)


@pytest.fixture
def python_analysis():
    """Run the test inside :func:`repro.cbuild.python_bodies`: the
    ordering and symbolic passes take their Python bodies (the oracle),
    as on a host where ``repro.graph.native`` cannot load."""
    with cbuild.python_bodies():
        yield


#: 300 vertices in 40 components, from singletons to one of 116 (the
#: one-pass component split of nested dissection must lay them out as
#: the per-component recursion did).
COMPONENT_SIZES = [1, 1, 2, 2, 3, 3, 4, 5] * 4 + [7, 9, 11, 13, 16, 20, 24, 116]


def many_component_matrix(sizes, seed: int) -> SparseMatrixCSC:
    """SPD matrix whose graph has exactly ``len(sizes)`` connected
    components (of those sizes), their vertices interleaved by a seeded
    permutation: a random spanning path plus a few chords per component.
    """
    rng = np.random.default_rng(seed)
    u, v = [], []
    offset = 0
    for size in sizes:
        path = offset + rng.permutation(size)
        chords = offset + rng.integers(0, size, (2, size // 3))
        u += [path[:-1], chords[0]]
        v += [path[1:], chords[1]]
        offset += size
    n = offset
    u, v = np.concatenate(u), np.concatenate(v)
    scatter = rng.permutation(n)
    diag = np.arange(n)
    pattern = coo_to_csc(
        n, n,
        np.concatenate([scatter[u], scatter[v], diag]),
        np.concatenate([scatter[v], scatter[u], diag]),
    )
    cols = np.repeat(diag, np.diff(pattern.colptr))
    pattern.values = np.where(pattern.rowind == cols, 2.0 * n, -1.0)
    return pattern
