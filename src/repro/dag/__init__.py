"""Factorization task DAG.

The symbol structure is unrolled into a DAG of tasks at one of three
granularities — the paper's two (§V) and the one the real threaded
runtime executes:

* ``"1d"`` — PaStiX's original tasks: one task per panel bundling the
  diagonal factorization, the panel TRSM, *and every update the panel
  generates*.  Fewer, bigger tasks; what the native scheduler consumes.
* ``"2d"`` — the split used for PaRSEC and StarPU: one *panel task*
  (POTRF + TRSM) per cblk plus one *update task* per (panel, facing
  panel) couple, "the number of tasks is bound by the number of blocks in
  the symbolic structure".
* ``"unit"`` — one left-looking task per *unit* (a panel or a fused leaf
  subtree of the supernode tree), bundling the updates its panels
  *receive* with their factorization: §III's left-looking grouping plus
  §VI's coarsening.  Tree edges only, no mutex, a few tasks per worker;
  what :func:`repro.runtime.threaded.factorize_threaded` runs by
  default (:func:`dag_of_trace` rebuilds the DAG a trace ran).
"""

from repro.dag.tasks import Task, TaskKind, TaskDAG
from repro.dag.builder import (
    build_dag,
    dag_of_trace,
    get_dag,
    update_couples,
)
from repro.dag.solve_builder import build_solve_dag
from repro.dag.analysis import (
    critical_path,
    longest_path_levels,
    parallelism_profile,
    dag_summary,
    to_dot,
)

__all__ = [
    "Task",
    "TaskKind",
    "TaskDAG",
    "build_dag",
    "get_dag",
    "dag_of_trace",
    "update_couples",
    "build_solve_dag",
    "critical_path",
    "longest_path_levels",
    "parallelism_profile",
    "dag_summary",
    "to_dot",
]
