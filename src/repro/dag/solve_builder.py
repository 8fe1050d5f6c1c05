"""Task DAG of the solve phase (block triangular solves).

PaStiX schedules the forward and backward substitutions through the same
runtimes as the factorization.  A solve does O(nnz) flops, so a task per
couple (or even per panel) costs more to schedule than to run; the DAG
is therefore coarse — the paper's own future work, §VI: "merging leaves
or subtrees together yields bigger, more computationally intensive
tasks".

* A *unit* is a single panel or a *fused leaf subtree* of the supernode
  tree: every maximal subtree whose panel storage is at most
  ``total / (FUSE_UNITS_PER_WORKER · n_workers)``
  (:func:`repro.dag.builder.unit_partition`, shared with the
  unit-granular factorization DAG).  The units partition the panels.
* A solve of fewer flops than :data:`repro.dag.builder.MIN_SOLVE_FLOPS`
  (the DAG's total: both sweeps, all right-hand sides, the complex
  multiplier included) is **one unit**: the whole tree — every
  tree of a forest, back to back — in one forward and one backward task.
  The rule is all or nothing: above the floor the partition is the one
  above, whatever the worker count.  Per task and per worker the
  executor's costs are fixed, and on so little work a second worker
  only slows the solve down (``docs/performance.md``, the solve work
  floor); a chain of two tasks never starts one.
* There is **one task per unit per sweep**: ``F(u)`` runs the forward
  steps of the unit's panels in ascending order, ``B(u)`` their backward
  steps in descending order.
* Edges follow the supernode tree only — forward
  ``F(unit(child)) → F(unit(parent))``, backward reversed, and
  ``F(u) → B(u)`` at every root unit joins the sweeps.

That is enough to order every shared access of a *left-looking* solve
(:mod:`repro.runtime.threaded`): the forward step of panel ``k`` reads
its descendants' private contribution slabs, and every panel facing
``k`` is a tree descendant of it; its backward step reads the final
``x`` of the rows below ``k``, all of which belong to tree ancestors.
No task needs a mutex (``dag.mutex`` is ``-1`` throughout) and there is
no ``UPDATE`` task.

Besides the :class:`TaskDAG` arrays the DAG carries ``solve_backward``
(per task: which sweep), ``solve_unit`` (per task: its unit) and the
unit membership in CSR form, ``unit_panels[unit_ptr[u]:unit_ptr[u+1]]``
(ascending).  Consumers use these rather than the task-index layout.
``gemm_m`` is a task's total below-diagonal rows, ``gemm_n`` the number
of right-hand sides and ``gemm_k`` its flop-weighted mean panel width —
the size the simulator's bandwidth-bound efficiency model
(``dag.phase == "solve"``) is evaluated at.
"""

from __future__ import annotations

import numpy as np

from repro.dag import builder
from repro.dag.builder import (
    FUSE_UNITS_PER_WORKER,
    UnitPartition,
    _csr_from_edges,
    symbol_memo,
    unit_partition,
)
from repro.dag.tasks import TaskDAG, TaskKind
from repro.kernels.cost import complex_multiplier
from repro.symbolic.structures import SymbolMatrix

__all__ = ["build_solve_dag", "FUSE_UNITS_PER_WORKER"]


def build_solve_dag(
    symbol: SymbolMatrix,
    factotype: str = "llt",
    *,
    dtype=np.float64,
    nrhs: int = 1,
    n_workers: int = 4,
) -> TaskDAG:
    """The forward+backward solve of ``symbol`` as a coarse DAG.

    Memoised on the symbol (:func:`repro.dag.builder.symbol_memo`):
    repeated solves, refinement steps and refactorizations of one
    pattern share one DAG object, which callers must not modify.
    ``nrhs`` scales every task's flops (block right-hand sides);
    ``n_workers`` sets the fusion threshold, and a solve under
    :data:`~repro.dag.builder.MIN_SOLVE_FLOPS` is one unit (see the module
    docstring).
    The returned DAG has ``dag.phase == "solve"``; the simulator uses its
    bandwidth-bound efficiency model and keeps everything on CPUs (the
    paper does not offload the solve).
    """
    nrhs, n_workers = int(nrhs), max(1, int(n_workers))
    floor = builder.MIN_SOLVE_FLOPS
    key = ("solve", factotype, np.dtype(dtype).str, nrhs, n_workers, floor)
    return symbol_memo(
        symbol, key,
        lambda: _build(symbol, factotype, dtype, nrhs, n_workers, floor),
    )


def _one_unit(n_panels: int) -> UnitPartition:
    """Every panel in one unit, named by the last one (a root: a parent
    follows its children), with no unit edge."""
    return UnitPartition(
        np.array([n_panels - 1], dtype=np.int64),
        np.zeros(n_panels, dtype=np.int64),
        np.array([0, n_panels], dtype=np.int64),
        np.arange(n_panels, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )


def _build(symbol, factotype, dtype, nrhs, n_workers, floor) -> TaskDAG:
    widths = np.diff(symbol.cblk_ptr).astype(np.int64)
    heights = symbol.cblk_heights()
    below = heights - widths

    # Per sweep and panel: the diagonal tri-solve (w²) and the GEMV/GEMM
    # of the below rows (2·below·w); same count in both sweeps.
    mult = complex_multiplier(dtype) * float(nrhs)
    panel_flops = mult * (widths * (widths + 2 * below)).astype(np.float64)
    if symbol.n_cblk and 2.0 * panel_flops.sum() < floor:  # both sweeps
        part = _one_unit(symbol.n_cblk)
    else:
        storage = (widths * heights).astype(np.float64)
        part = unit_partition(symbol, storage, storage.sum()
                              / (FUSE_UNITS_PER_WORKER * n_workers))
    roots, unit_of = part.roots, part.unit_of
    U = roots.size
    flops = np.bincount(unit_of, weights=panel_flops, minlength=U)
    mean_width = np.maximum(1, np.rint(
        np.bincount(unit_of, weights=panel_flops * widths, minlength=U)
        / np.maximum(flops, 1.0)
    )).astype(np.int64)
    rows_below = np.bincount(unit_of, weights=below, minlength=U).astype(
        np.int64)

    # Layout [F(0..U-1) | B(0..U-1)]; edges along the unit tree.
    fwd = np.arange(U, dtype=np.int64)
    bwd = U + fwd
    child, above, tree_roots = part.child, part.above, part.tree_roots
    heads = np.concatenate([fwd[child], bwd[above], fwd[tree_roots]])
    tails = np.concatenate([fwd[above], bwd[child], bwd[tree_roots]])
    succ_ptr, succ_list = _csr_from_edges(2 * U, heads, tails)

    kind = np.where(
        part.size > 1, TaskKind.SUBTREE, TaskKind.PANEL
    ).astype(np.int8)
    dag = TaskDAG(
        kind=np.tile(kind, 2),
        cblk=np.tile(roots, 2),
        target=np.tile(roots, 2),
        flops=np.tile(flops, 2),
        gemm_m=np.tile(rows_below, 2),
        gemm_n=np.full(2 * U, nrhs, dtype=np.int64),
        gemm_k=np.tile(mean_width, 2),
        succ_ptr=succ_ptr,
        succ_list=succ_list,
        mutex=np.full(2 * U, -1, dtype=np.int64),
        granularity="2d",
        symbol=symbol,
        factotype=factotype,
        unit_ptr=part.unit_ptr,
        unit_panels=part.unit_panels,
    )
    dag.phase = "solve"
    dag.solve_backward = np.repeat([False, True], U)
    dag.solve_unit = np.tile(fwd, 2)
    return dag
