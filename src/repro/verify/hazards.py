"""DAG hazard analyzer: is every data hazard covered by an edge path?

The builder promises that the emitted dependency edges serialize every
conflicting pair of panel accesses — that promise is the entire safety
argument of running the factorization through a generic runtime (a
missing edge is a silent data race on a facing panel).  This pass checks
the promise *independently*: read/write sets come from the symbolic
structure (:mod:`repro.verify.access`), coverage queries run against the
DAG's actual ``succ_ptr``/``succ_list`` via
:class:`repro.verify.reach.ReachabilityOracle`.

Checked hazards (panels are the memory objects):

* **RAW**  — a task READing panel ``p`` must be preceded by a path from
  ``p``'s WRITEr (``H101`` when the path is missing);
* **ACCUM→WRITE** — every task ACCUMulating into ``p`` must have a path
  *to* ``p``'s WRITEr: the panel factorization consumes the accumulated
  sum (``H102``);
* **direction** — if the only path between a hazard pair runs opposite
  to the semantic order, that is reported separately (``H103``) because
  it usually means the builder swapped edge endpoints;
* **cycles** — a cyclic DAG deadlocks every engine (``H104``);
* **ownership** — every panel written by exactly one task (``H105`` /
  ``H106``, emitted by the access derivation);
* **ACCUM/ACCUM exclusivity** — two accumulations into one panel need
  mutual exclusion, not ordering; in 2D facto DAGs they must share a
  ``mutex`` group (``H107``).  1D DAGs rely on the engine that runs
  them to exclude same-panel tasks, reported as info (``H109``).
* **redundant edges** — optionally (``find_redundant``), transitive
  edges whose removal leaves the pair still path-connected (``H108``,
  info): harmless for correctness but extra runtime bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.verify.access import derive_accesses
from repro.verify.reach import ReachabilityOracle
from repro.verify.report import INFO, Report

__all__ = ["analyze_hazards", "find_cycle", "find_redundant_edges", "drop_edge"]


def find_cycle(dag: TaskDAG) -> list[int]:
    """Return one dependency cycle as a task list, or ``[]`` if acyclic."""
    blocked = np.ones(dag.n_tasks, dtype=bool)
    blocked[dag.kahn_order()] = False
    if not blocked.any():
        return []
    # Walk successors inside the blocked (cyclic) region until a repeat.
    seen: dict[int, int] = {}
    path: list[int] = []
    v = int(np.flatnonzero(blocked)[0])
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        nxt = next((int(s) for s in dag.successors(v) if blocked[s]), None)
        assert nxt is not None, "cyclic region must keep a cyclic successor"
        v = nxt
    return path[seen[v]:]


def drop_edge(dag: TaskDAG, edge_index: int) -> TaskDAG:
    """Copy of ``dag`` with one CSR edge removed (fault injection).

    ``edge_index`` addresses ``succ_list`` directly.  Used by the CLI's
    ``--inject drop-edge`` self-test and the mutation fuzz tests.
    """
    if not 0 <= edge_index < dag.n_edges:
        raise IndexError(f"edge index {edge_index} out of range")
    head = int(np.searchsorted(dag.succ_ptr, edge_index, side="right") - 1)
    succ_ptr = dag.succ_ptr.copy()
    succ_ptr[head + 1:] -= 1
    return dag.copy(succ_ptr=succ_ptr,
                    succ_list=np.delete(dag.succ_list, edge_index))


def find_redundant_edges(dag: TaskDAG, *, limit: int = 200) -> list[tuple[int, int]]:
    """Transitive edges: (u, v) such that u ⇝ v without the direct edge.

    An edge is redundant when some *other* successor of ``u`` already
    reaches ``v``.  Returns at most ``limit`` pairs.
    """
    order = dag.topological_order()
    oracle = ReachabilityOracle(dag, order)
    out: list[tuple[int, int]] = []
    for u in range(dag.n_tasks):
        succ = dag.successors(u)
        if succ.size < 2:
            continue
        for v in succ:
            v = int(v)
            others = succ[succ != v]
            if others.size and oracle.reachable_many(
                others, np.full(others.size, v, dtype=np.int64)
            ).any():
                out.append((u, v))
                if len(out) >= limit:
                    return out
    return out


def analyze_hazards(
    dag: TaskDAG,
    *,
    find_redundant: bool = False,
) -> Report:
    """Run the hazard-coverage analysis; returns a :class:`Report`.

    The pass is linear-ish in tasks + edges: hazard pairs are enumerated
    per symbolic couple (one RAW and at most one ACCUM pair each), the
    coverage test is batched through the reachability oracle, and the
    ACCUM/ACCUM exclusivity check compares mutex groups without ever
    enumerating the quadratic pair set.
    """
    report = Report(f"hazards[{dag.granularity}]")
    report.stats["tasks"] = dag.n_tasks
    report.stats["edges"] = dag.n_edges

    cycle = find_cycle(dag)
    if cycle:
        pretty = " -> ".join(str(t) for t in cycle[:12])
        report.add(
            "H104",
            f"dependency cycle of length {len(cycle)}: {pretty}"
            + (" -> ..." if len(cycle) > 12 else ""),
            tasks=tuple(cycle[:12]),
        )
        return report  # ranks are meaningless on a cyclic graph

    acc = derive_accesses(dag, report)
    order = dag.topological_order()
    oracle = ReachabilityOracle(dag, order)

    # ------------------------------------------------------------------
    # Pair enumeration (vectorized).  For each cross-task couple:
    #   RAW : read_writer         ⇝  couple_task
    #   ACC : couple_task         ⇝  writer(accum_panel)
    # ------------------------------------------------------------------
    writer = acc.writer
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    kinds: list[np.ndarray] = []

    raw_ok = (acc.read_panel >= 0) & (acc.read_writer >= 0)
    raw_u = acc.read_writer[raw_ok]
    raw_v = acc.couple_task[raw_ok]
    keep = raw_u != raw_v
    srcs.append(raw_u[keep])
    dsts.append(raw_v[keep])
    kinds.append(np.zeros(int(keep.sum()), dtype=np.int8))

    has_accum = acc.accum_panel >= 0
    acc_ok = has_accum & (writer[np.maximum(acc.accum_panel, 0)] >= 0)
    acc_u = acc.couple_task[acc_ok]
    acc_v = writer[acc.accum_panel[acc_ok]]
    keep = acc_u != acc_v
    srcs.append(acc_u[keep])
    dsts.append(acc_v[keep])
    kinds.append(np.ones(int(keep.sum()), dtype=np.int8))

    us = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    vs = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    pk = np.concatenate(kinds) if kinds else np.empty(0, np.int8)
    report.stats["hazard_pairs"] = int(us.size)

    covered = oracle.reachable_many(us, vs)
    missing = np.flatnonzero(~covered)
    if missing.size:
        # Distinguish "no path at all" from "path in the wrong direction".
        rev = oracle.reachable_many(vs[missing], us[missing])
        for j, idx in enumerate(missing):
            u, v = int(us[idx]), int(vs[idx])
            hz = "RAW (panel read before its factorization is ordered)" \
                if pk[idx] == 0 else \
                "ACCUM (scatter-add not ordered before the panel write)"
            if rev[j]:
                report.add(
                    "H103",
                    f"hazard path between tasks {u} and {v} exists only "
                    f"in the wrong direction ({v} -> {u}); {hz}",
                    tasks=(u, v),
                )
            else:
                report.add(
                    "H101" if pk[idx] == 0 else "H102",
                    f"missing dependency path {u} -> {v}: {hz}; "
                    f"task {u} and task {v} may race on a panel",
                    tasks=(u, v),
                )
    report.stats["uncovered_pairs"] = int(missing.size)

    # ------------------------------------------------------------------
    # ACCUM/ACCUM exclusivity per panel.
    # ------------------------------------------------------------------
    if has_accum.any():
        acc_tasks = acc.couple_task[has_accum]
        acc_panels = acc.accum_panel[has_accum]
        n_groups_checked = 0
        order_p = np.argsort(acc_panels, kind="stable")
        panels_sorted = acc_panels[order_p]
        tasks_sorted = acc_tasks[order_p]
        bounds = np.flatnonzero(np.diff(panels_sorted)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [panels_sorted.size]))
        is_2d_update = dag.kind[tasks_sorted] == TaskKind.UPDATE
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            n_groups_checked += 1
            group_tasks = tasks_sorted[s:e]
            panel = int(panels_sorted[s])
            if np.all(is_2d_update[s:e]):
                groups = dag.mutex[group_tasks]
                bad = np.flatnonzero(groups != groups[0]) if np.unique(groups).size > 1 else []
                if len(bad) or int(groups[0]) < 0:
                    a = int(group_tasks[0])
                    b = int(group_tasks[bad[0]]) if len(bad) else a
                    report.add(
                        "H107",
                        f"updates into panel {panel} are not mutually "
                        f"exclusive: tasks {a} and {b} carry mutex groups "
                        f"{int(dag.mutex[a])} and {int(dag.mutex[b])}",
                        tasks=(a, b),
                    )
            else:
                # Fused 1D tasks: exclusion is delegated to engine-level
                # per-panel locks; surface it so nobody assumes ordering.
                report.add(
                    "H109",
                    f"{e - s} fused tasks accumulate into panel {panel}; "
                    "exclusion relies on engine-level panel locking",
                    severity=INFO,
                    tasks=tuple(int(t) for t in group_tasks[:4]),
                )
        report.stats["accum_groups"] = n_groups_checked

    # ------------------------------------------------------------------
    if find_redundant:
        redundant = find_redundant_edges(dag)
        report.stats["redundant_edges"] = len(redundant)
        for u, v in redundant:
            report.add(
                "H108",
                f"edge {u} -> {v} is transitive (another path covers it)",
                severity=INFO,
                tasks=(u, v),
            )
    report.stats["dfs_fallbacks"] = oracle.stats["dfs_fallbacks"]
    return report
