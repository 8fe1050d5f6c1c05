"""Task and DAG containers.

Tasks are stored struct-of-arrays (NumPy) so hundred-thousand-task DAGs
stay cheap to build and walk; :class:`Task` is a light per-task view used
at API boundaries and in tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable

import numpy as np

__all__ = ["TaskKind", "Task", "TaskDAG", "kahn_order"]


class TaskKind(IntEnum):
    """Task flavours.

    ``PANEL``  — diagonal-block factorization + panel TRSM of one cblk;
    ``UPDATE`` — sparse GEMM of one (panel → facing panel) couple;
    ``PANEL1D`` — PaStiX 1D task: PANEL plus all its UPDATEs fused (also
    a single-panel task of the ``"unit"`` DAG: the panel plus the
    updates it receives);
    ``SUBTREE`` — a whole leaf subtree of the supernode tree fused into
    one task (the paper's future-work granularity coarsening, §VI);
    ``DIAG`` — the diagonal task of a split panel of the ``"unit"`` DAG:
    the updates into its diagonal block, then that block's factorization;
    ``ROWS`` — a row-block task of a split panel: the updates into a range
    of its below-diagonal rows, then their TRSM.
    """

    PANEL = 0
    UPDATE = 1
    PANEL1D = 2
    SUBTREE = 3
    DIAG = 4
    ROWS = 5


@dataclass(frozen=True)
class Task:
    """View of one task."""

    index: int
    kind: TaskKind
    cblk: int           # source panel
    target: int         # facing panel (== cblk for panel tasks)
    flops: float
    m: int              # GEMM rows (update tasks; 0 otherwise)
    n: int              # GEMM cols
    k: int              # GEMM depth == panel width

    @property
    def is_update(self) -> bool:
        return self.kind == TaskKind.UPDATE


def kahn_order(succ_ptr: np.ndarray, succ_list: np.ndarray,
               n_deps: np.ndarray) -> np.ndarray:
    """Kahn's pass over CSR successors with a LIFO ready stack (sources
    pushed ascending): every task in a dependency order — or, when the
    graph has a cycle, only the tasks no cycle blocks."""
    indeg = np.array(n_deps, dtype=np.int64)
    order = np.empty(indeg.size, dtype=np.int64)
    stack = np.flatnonzero(indeg == 0).tolist()
    pos = 0
    while stack:
        t = stack.pop()
        order[pos] = t
        pos += 1
        for s in succ_list[succ_ptr[t]:succ_ptr[t + 1]].tolist():
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(s)
    return order[:pos]


class TaskDAG:
    """The factorization DAG (struct-of-arrays).

    Attributes
    ----------
    kind, cblk, target, flops, gemm_m, gemm_n, gemm_k:
        Per-task arrays (see :class:`Task`).
    succ_ptr / succ_list:
        CSR adjacency of *successor* edges.
    n_deps:
        In-degree of each task (number of predecessors).
    mutex:
        Per-task mutual-exclusion group (the target panel for updates,
        ``-1`` otherwise): two tasks in the same group must not run
        concurrently, modelling the in-out access to the facing panel.
    granularity:
        ``"2d"``, ``"1d"``, ``"1d-left"`` or ``"unit"`` (see
        :func:`repro.dag.builder.build_dag`).
    fused_components:
        For fused tasks: task id -> list of kernel components, each
        ``("panel", width, below)`` or ``("update", m, n, w)`` (see
        :func:`repro.kernels.cost.flops_component`) — read only by the
        machine simulator's duration models.
    """

    #: The fields only the simulators and audits read: a builder may pass
    #: a function instead of the value, which runs on first read.
    DEFERRED = ("flops", "gemm_m", "gemm_n", "gemm_k", "fused_components")

    def __init__(
        self,
        kind: np.ndarray,
        cblk: np.ndarray,
        target: np.ndarray,
        flops: np.ndarray | Callable[[], np.ndarray],
        gemm_m: np.ndarray | Callable[[], np.ndarray],
        gemm_n: np.ndarray | Callable[[], np.ndarray],
        gemm_k: np.ndarray | Callable[[], np.ndarray],
        succ_ptr: np.ndarray,
        succ_list: np.ndarray,
        mutex: np.ndarray,
        granularity: str,
        symbol=None,
        factotype: str = "llt",
        fused_components: dict | Callable[[], dict] | None = None,
        unit_ptr: np.ndarray | None = None,
        unit_panels: np.ndarray | None = None,
        row_range: np.ndarray | None = None,
    ) -> None:
        self.kind = kind
        self.cblk = cblk
        self.target = target
        self._deferred = {}
        for name, value in zip(self.DEFERRED, (flops, gemm_m, gemm_n, gemm_k,
                                               fused_components or {})):
            if callable(value):
                self._deferred[name] = value
            else:
                setattr(self, name, value)
        self.succ_ptr = succ_ptr
        self.succ_list = succ_list
        self.mutex = mutex
        self.granularity = granularity
        self.symbol = symbol
        self.factotype = factotype
        #: "facto" (default) or "solve" — selects the simulator's kernel
        #: efficiency model and GPU eligibility.
        self.phase = "facto"
        #: Unit-granular DAGs (``build_dag(granularity="unit")`` and the
        #: solve DAG): the panels a task runs back to back, in CSR form —
        #: unit ``u`` is ``unit_panels[unit_ptr[u]:unit_ptr[u + 1]]``,
        #: ascending.  The units partition the panels.
        self.unit_ptr = unit_ptr
        self.unit_panels = unit_panels
        #: Unit DAGs: ``(n_tasks, 2)`` local rows ``[r0, r1)`` of panel
        #: ``cblk[t]`` a ``DIAG`` (``[0, width)``; it is that panel's
        #: unit) or ``ROWS`` task (no unit member) covers; ``(0, 0)`` for
        #: the other tasks.
        self.row_range = row_range
        # In-degrees from the successor lists.
        n_deps = np.zeros(kind.size, dtype=np.int64)
        np.add.at(n_deps, succ_list, 1)
        self.n_deps = n_deps

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute not set: a deferred field.
        build = self.__dict__.get("_deferred", {}).pop(name, None)
        if build is None:
            raise AttributeError(name)
        value = build()
        setattr(self, name, value)
        return value

    def copy(self, **fields: Any) -> "TaskDAG":
        """Copy of the DAG — arrays copied, ``symbol`` shared, ``phase``
        kept — with only the constructor ``fields`` named replaced."""
        args = {name: getattr(self, name)
                for name in inspect.signature(TaskDAG).parameters
                if name not in fields}
        out = TaskDAG(**{n: v.copy() if isinstance(v, np.ndarray) else v
                         for n, v in args.items()}, **fields)
        out.phase = self.phase
        return out

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return int(self.kind.size)

    @property
    def n_edges(self) -> int:
        return int(self.succ_list.size)

    def task(self, i: int) -> Task:
        return Task(
            i,
            TaskKind(int(self.kind[i])),
            int(self.cblk[i]),
            int(self.target[i]),
            float(self.flops[i]),
            int(self.gemm_m[i]),
            int(self.gemm_n[i]),
            int(self.gemm_k[i]),
        )

    def successors(self, i: int) -> np.ndarray:
        return self.succ_list[self.succ_ptr[i]: self.succ_ptr[i + 1]]

    def _build_preds(self) -> None:
        heads = np.repeat(
            np.arange(self.n_tasks, dtype=np.int64), np.diff(self.succ_ptr)
        )
        order = np.argsort(self.succ_list, kind="stable")
        ptr = np.zeros(self.n_tasks + 1, dtype=np.int64)
        np.add.at(ptr, self.succ_list + 1, 1)
        np.cumsum(ptr, out=ptr)
        self._pred_ptr, self._pred_list = ptr, heads[order]

    def predecessors(self, i: int) -> np.ndarray:
        """Predecessor task ids of ``i`` (reverse CSR, built lazily)."""
        if not hasattr(self, "_pred_ptr"):
            self._build_preds()
        return self._pred_list[self._pred_ptr[i]: self._pred_ptr[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Is there a direct dependency edge ``u -> v``?"""
        return bool(np.any(self.successors(u) == v))

    def sources(self) -> np.ndarray:
        """Tasks with no predecessors."""
        return np.flatnonzero(self.n_deps == 0)

    def total_flops(self) -> float:
        return float(self.flops.sum())

    # ------------------------------------------------------------------
    def kahn_order(self) -> np.ndarray:
        """Kahn's pass: every task in a dependency order — or, when the
        graph has a cycle, only the tasks no cycle blocks."""
        return kahn_order(self.succ_ptr, self.succ_list, self.n_deps)

    def topological_order(self) -> np.ndarray:
        """Kahn topological order; raises on cycles."""
        order = self.kahn_order()
        if order.size != self.n_tasks:
            raise ValueError("task graph contains a cycle")
        return order

    def validate(self) -> None:
        """Structural checks (acyclicity, edge sanity, mutex sanity)."""
        self.topological_order()
        assert self.succ_ptr[0] == 0
        assert self.succ_ptr[-1] == self.succ_list.size
        if self.succ_list.size:
            assert self.succ_list.min() >= 0
            assert self.succ_list.max() < self.n_tasks
        upd = self.kind == TaskKind.UPDATE
        if self.phase == "facto":
            assert np.all(self.mutex[upd] == self.target[upd])
        assert np.all(self.mutex[~upd] == -1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskDAG({self.granularity}, tasks={self.n_tasks}, "
            f"edges={self.n_edges}, flops={self.total_flops():.3e})"
        )
