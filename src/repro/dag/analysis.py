"""DAG analysis: critical path, parallelism profile, DOT export.

These quantify what the paper argues qualitatively: the 1D DAG has a
longer critical path (bounded parallelism on many-core), the 2D split
shortens it at the price of more tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind

__all__ = [
    "critical_path",
    "longest_path_levels",
    "parallelism_profile",
    "dag_summary",
    "to_dot",
]


def longest_path_levels(
    dag: TaskDAG, *, weights: np.ndarray | None = None
) -> np.ndarray:
    """Longest-path-to-sink (bottom level) of every task.

    ``levels[t]`` is the heaviest-path weight from ``t`` to any sink,
    *including* ``t`` itself; ``weights`` defaults to task flops.  The
    maximum over all tasks equals :func:`critical_path`'s length.  This
    is the classic critical-path list-scheduling priority: running the
    highest level first keeps the longest dependency chain moving.  Both
    the simulated policies (:func:`repro.runtime.base.bottom_levels`)
    and the threaded runtime's ``"priority"`` pop order
    (:mod:`repro.runtime.threaded`) rank tasks by it.
    """
    w = dag.flops.astype(np.float64) if weights is None \
        else np.asarray(weights, dtype=np.float64)
    order = dag.topological_order()
    levels = w.copy()
    for t in order[::-1]:
        succ = dag.successors(int(t))
        if succ.size:
            levels[t] = w[t] + levels[succ].max()
    return levels


def critical_path(dag: TaskDAG, *, weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Longest path through the DAG.

    ``weights`` defaults to task flops.  Returns ``(length, path)`` where
    ``path`` lists the task indices of one critical path in order.
    """
    w = dag.flops if weights is None else np.asarray(weights, dtype=np.float64)
    order = dag.topological_order()
    dist = np.zeros(dag.n_tasks, dtype=np.float64)
    pred = np.full(dag.n_tasks, -1, dtype=np.int64)
    for t in order:
        dt = dist[t] + w[t]
        for s in dag.successors(int(t)):
            if dt > dist[s]:
                dist[s] = dt
                pred[s] = t
    end = int(np.argmax(dist + w))
    length = float(dist[end] + w[end])
    path = [end]
    while pred[path[-1]] != -1:
        path.append(int(pred[path[-1]]))
    return length, np.asarray(path[::-1], dtype=np.int64)


def parallelism_profile(dag: TaskDAG) -> np.ndarray:
    """Tasks per dependency level (a width profile of the DAG)."""
    order = dag.topological_order()
    level = np.zeros(dag.n_tasks, dtype=np.int64)
    for t in order:
        for s in dag.successors(int(t)):
            level[s] = max(level[s], level[t] + 1)
    return np.bincount(level)


@dataclass(frozen=True)
class DagSummary:
    """Aggregate DAG statistics."""

    n_tasks: int
    n_panel: int
    n_update: int
    n_edges: int
    total_flops: float
    critical_path_flops: float
    avg_parallelism: float
    max_level_width: int


def dag_summary(dag: TaskDAG) -> DagSummary:
    """Compute a :class:`DagSummary` for reporting and tests."""
    cp, _ = critical_path(dag)
    prof = parallelism_profile(dag)
    n_panel = int(np.count_nonzero(dag.kind != TaskKind.UPDATE))
    return DagSummary(
        n_tasks=dag.n_tasks,
        n_panel=n_panel,
        n_update=dag.n_tasks - n_panel,
        n_edges=dag.n_edges,
        total_flops=dag.total_flops(),
        critical_path_flops=cp,
        avg_parallelism=dag.total_flops() / cp if cp else 0.0,
        max_level_width=int(prof.max()) if prof.size else 0,
    )


def to_dot(dag: TaskDAG, *, max_tasks: int = 500) -> str:
    """GraphViz DOT text of the DAG (small graphs only)."""
    if dag.n_tasks > max_tasks:
        raise ValueError(
            f"DAG too large for DOT export ({dag.n_tasks} > {max_tasks})"
        )
    colors = {
        int(TaskKind.PANEL): "lightblue",
        int(TaskKind.UPDATE): "lightsalmon",
        int(TaskKind.PANEL1D): "lightgreen",
    }
    lines = ["digraph factorization {", "  rankdir=TB;"]
    for i in range(dag.n_tasks):
        kind = TaskKind(int(dag.kind[i]))
        if kind == TaskKind.UPDATE:
            label = f"U {dag.cblk[i]}:{dag.target[i]}"
        else:
            label = f"P {dag.cblk[i]}"
        lines.append(
            f'  t{i} [label="{label}", style=filled, '
            f'fillcolor={colors.get(int(dag.kind[i]), "white")}];'
        )
    for i in range(dag.n_tasks):
        for s in dag.successors(i):
            lines.append(f"  t{i} -> t{s};")
    lines.append("}")
    return "\n".join(lines)
