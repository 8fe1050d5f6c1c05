"""Independent derivation of per-task read/write sets.

The hazard analyzer must not trust the edges the DAG builder emitted, so
this module re-derives what every task *touches* straight from the
symbolic structure (:func:`repro.dag.builder.update_couples` enumerates
the update couples from the block pattern alone, never from
``succ_list``).  The memory objects are whole panels (cblks) — exactly
the granularity at which the builder synchronizes.

Access modes
------------
``READ``   — the task consumes the final, factorized value of a panel
             (an update reading its source panel);
``WRITE``  — the task produces the final value of a panel (the panel
             factorization, or the fused task containing it);
``ACCUM``  — the task scatter-adds a contribution into a panel (an
             update landing in its facing panel).  Accumulations commute
             with one another but conflict with reads and writes.

Per :class:`~repro.dag.tasks.TaskKind`:

* ``PANEL``   — WRITE its cblk (it also reads the accumulated state,
  which the WRITE mode subsumes for conflict purposes);
* ``UPDATE``  — READ its source panel, ACCUM into its facing panel;
* ``PANEL1D`` — the fusion of a panel with its outgoing (``"1d"``) or
  incoming (``"1d-left"``) updates: WRITE its cblk plus the union of the
  fused updates' accesses;
* ``SUBTREE`` — WRITE every member cblk of the fused subtree; internal
  updates stay inside the task;
* a task of the ``"unit"`` DAG (what the threaded runtime executes) — WRITE
  every member panel of its unit, READ every source panel outside the
  unit.  It is left-looking like ``"1d-left"``: all its writes land in
  panels it owns, so there is no cross-task ACCUM.  Membership is the
  DAG's ``unit_ptr``/``unit_panels`` — not trusted builder metadata but
  the very arrays the runtime's task body iterates, i.e. what the task
  *does* touch; that they partition the panels is checked here (H105)
  and that the edges order every cross-unit read is the hazard pass's
  job, from the symbolically derived couples as always;
* a ``DIAG`` task of the ``"unit"`` DAG (the unit of one split panel) —
  WRITE rows ``[0, w)`` of its panel and its ``D``, READ the facing rows
  of every source panel; a ``ROWS`` task — WRITE its ``row_range`` of
  the panel's L (and U for LU), READ the panel's diagonal block (its
  ``DIAG``) and, per source couple with rows in its range, the facing
  rows and that slice of the source.  The memory objects of a split
  panel are its diagonal block and its row blocks: a read of a split
  source names the ``ROWS`` tasks holding the rows read (and, for
  LDLᵀ, the ``DIAG`` holding ``D``), and the ``ROWS`` ranges must tile
  the rows below the diagonal block (H105).

Subtree membership is *re-derived* here rather than read from builder
metadata: the couples absent from the DAG's ``UPDATE`` tasks must be the
ones fused away, and union-find over those internal couples reconstructs
the groups.  Inconsistencies (a panel owned by no task or two tasks, a
couple with no update task in a plain 2D DAG) are reported as findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dag.builder import update_couples
from repro.dag.tasks import TaskDAG, TaskKind
from repro.verify.report import Report

__all__ = ["READ", "WRITE", "ACCUM", "AccessSets", "derive_accesses"]

READ = "read"
WRITE = "write"
ACCUM = "accum"


@dataclass
class AccessSets:
    """Derived panel-level access sets of a factorization DAG.

    All arrays are indexed per *couple* (one symbolic update couple that
    crosses task boundaries); panel ownership is per cblk.
    """

    #: task that WRITEs panel p (produces its final value), length K.
    writer: np.ndarray
    #: per cross-task couple: the reading/accumulating task.
    couple_task: np.ndarray
    #: per cross-task couple: the panel it READs (source cblk).
    read_panel: np.ndarray
    #: per cross-task couple: the panel it ACCUMs into (facing cblk),
    #: or -1 when the update executes inside the target's own task
    #: (left-looking 1D fusion: the "accum" is a plain local write).
    accum_panel: np.ndarray
    #: problems found while deriving (ownership conflicts &c).
    problems: list = field(default_factory=list)
    #: per cross-task couple: the task that wrote what it reads
    #: (``writer[read_panel]``, ``-1`` when unowned, unless a split
    #: panel names the row block).
    read_writer: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.read_writer is None:
            owned = self.read_panel >= 0
            self.read_writer = np.full(self.read_panel.size, -1, np.int64)
            self.read_writer[owned] = self.writer[self.read_panel[owned]]

    @property
    def n_panels(self) -> int:
        return int(self.writer.size)


def _couple_keys(src: np.ndarray, tgt: np.ndarray, K: int) -> np.ndarray:
    return src.astype(np.int64) * np.int64(K) + tgt.astype(np.int64)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = int(self.parent[root])
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, int(self.parent[x])
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def derive_accesses(dag: TaskDAG, report: Report | None = None) -> AccessSets:
    """Derive :class:`AccessSets` for a factorization-phase ``dag``.

    ``report`` (optional) collects structural findings — ownership
    conflicts, couples with no matching update task — under ``H105`` /
    ``H106`` codes.  The returned access sets are still usable for the
    panels that *are* consistently owned.
    """
    if getattr(dag, "phase", "facto") != "facto":
        raise NotImplementedError(
            "hazard access derivation supports factorization DAGs only "
            "(solve-phase DAGs carry vector accesses, not panel accesses)"
        )
    if dag.symbol is None:
        raise ValueError("dag.symbol is required to derive access sets")

    sym = dag.symbol
    K = sym.n_cblk
    src, tgt, _, _ = update_couples(sym)
    kind = dag.kind
    problems: list = []

    def note(code: str, message: str, tasks: tuple[int, ...] = ()) -> None:
        problems.append((code, message, tasks))
        if report is not None:
            report.add(code, message, tasks=tasks)

    writer = np.full(K, -1, dtype=np.int64)

    def left_looking() -> AccessSets:
        # task(tgt) reads panel src; no cross-task accum.  (A target
        # nobody owns was reported as H105 and has no reading task.)
        owned = writer[tgt] >= 0
        return AccessSets(writer, writer[tgt][owned], src[owned],
                          np.full(int(owned.sum()), -1, dtype=np.int64),
                          problems)

    if dag.granularity == "unit":
        unit_ptr, members = dag.unit_ptr, dag.unit_panels
        if unit_ptr is None or members is None \
                or unit_ptr.size != dag.n_tasks + 1:
            note("H105", "unit DAG carries no unit_ptr/unit_panels "
                         "membership for its tasks")
            return AccessSets(writer, np.empty(0, np.int64),
                              np.empty(0, np.int64), np.empty(0, np.int64),
                              problems)
        owners = np.bincount(members, minlength=K)
        for k in np.flatnonzero(owners != 1)[:50]:
            note("H105", f"panel {int(k)} is owned by {int(owners[k])} "
                         "unit tasks (units must partition the panels)")
        writer[members] = np.repeat(
            np.arange(dag.n_tasks, dtype=np.int64), np.diff(unit_ptr)
        )
        writer[owners != 1] = -1
        blocks = _row_blocks(dag, writer, note)
        if not blocks:
            return left_looking()
        return _split_reads(dag, writer, blocks, problems)

    if dag.granularity in ("1d", "1d-left"):
        # One PANEL1D task per cblk, task index == cblk by construction;
        # verify rather than assume.
        if dag.n_tasks != K or not np.all(kind == TaskKind.PANEL1D):
            note("H105", "1D DAG does not have exactly one PANEL1D task per cblk")
        order = np.argsort(dag.cblk, kind="stable")
        if not np.array_equal(dag.cblk[order], np.arange(K)):
            note("H105", "1D DAG panels are not a permutation of the cblks")
            return AccessSets(writer, np.empty(0, np.int64),
                              np.empty(0, np.int64), np.empty(0, np.int64),
                              problems)
        writer[dag.cblk] = np.arange(dag.n_tasks, dtype=np.int64)
        if dag.granularity == "1d-left":
            return left_looking()
        # Right-looking: task(src) scatter-adds into panel tgt.
        return AccessSets(writer, writer[src], src, tgt.copy(), problems)

    # ------------------------------------------------------------------
    # 2D (possibly with fused SUBTREE tasks).
    # ------------------------------------------------------------------
    is_update = kind == TaskKind.UPDATE
    upd_ids = np.flatnonzero(is_update)
    unit_ids = np.flatnonzero(~is_update)

    # Match DAG update tasks against the symbolically derived couples.
    keys_all = _couple_keys(src, tgt, K)
    order = np.argsort(keys_all, kind="stable")
    keys_sorted = keys_all[order]
    upd_keys = _couple_keys(dag.cblk[upd_ids], dag.target[upd_ids], K)
    pos = np.searchsorted(keys_sorted, upd_keys)
    if keys_sorted.size:
        pos_ok = (pos < keys_sorted.size) & (
            keys_sorted[np.minimum(pos, keys_sorted.size - 1)] == upd_keys
        )
    else:
        pos_ok = np.zeros(upd_keys.size, dtype=bool)
    for t in upd_ids[~pos_ok]:
        note(
            "H106",
            f"update task {int(t)} ({int(dag.cblk[t])}->{int(dag.target[t])}) "
            "matches no couple of the symbolic structure",
            (int(t),),
        )
    covered = np.zeros(src.size, dtype=bool)
    covered[order[pos[pos_ok]]] = True

    # Direct panel ownership from unit tasks.
    subtree_units = unit_ids[kind[unit_ids] == TaskKind.SUBTREE]
    for t in unit_ids:
        k = int(dag.cblk[t])
        if writer[k] != -1:
            note(
                "H105",
                f"panel {k} owned by two tasks ({int(writer[k])} and {int(t)})",
                (int(writer[k]), int(t)),
            )
        writer[k] = t

    internal = np.flatnonzero(~covered)
    if internal.size and subtree_units.size == 0:
        for i in internal[:50]:
            note(
                "H106",
                f"couple {int(src[i])}->{int(tgt[i])} has no UPDATE task "
                "(and the DAG has no SUBTREE tasks to absorb it)",
                (),
            )
    elif internal.size:
        # Reconstruct fused groups from the internal couples.
        uf = _UnionFind(K)
        for i in internal:
            uf.union(int(src[i]), int(tgt[i]))
        root_owner: dict[int, int] = {}
        for t in subtree_units:
            root_owner[uf.find(int(dag.cblk[t]))] = int(t)
        for k in range(K):
            if writer[k] != -1:
                continue
            owner = root_owner.get(uf.find(k))
            if owner is None:
                note("H105", f"panel {k} is owned by no task", ())
            else:
                writer[k] = owner
        # An internal couple must really be internal to one fused task.
        for i in internal:
            s, t = int(src[i]), int(tgt[i])
            if writer[s] != writer[t] or writer[s] < 0:
                note(
                    "H106",
                    f"couple {s}->{t} has no UPDATE task yet spans two "
                    f"tasks ({int(writer[s])} and {int(writer[t])})",
                    (int(writer[s]), int(writer[t])),
                )

    unowned = np.flatnonzero(writer < 0)
    for k in unowned[:50]:
        if not any(p[0] == "H105" and f"panel {int(k)} " in p[1] for p in problems):
            note("H105", f"panel {int(k)} is owned by no task", ())

    # Cross-task couples: the surviving update tasks.
    couple_task = upd_ids[pos_ok]
    read_panel = dag.cblk[couple_task].astype(np.int64)
    accum_panel = dag.target[couple_task].astype(np.int64)
    return AccessSets(writer, couple_task, read_panel, accum_panel, problems)


def _row_blocks(dag: TaskDAG, writer: np.ndarray, note) -> dict:
    """The split panels of a unit DAG: ``{panel: (tasks, r0, r1)}``, its
    ``ROWS`` tasks by ascending rows, after checking that they tile the
    rows below the diagonal block and that the panel's owner is a
    ``DIAG`` task over its diagonal block (H105)."""
    rows_ids = np.flatnonzero(dag.kind == TaskKind.ROWS)
    diag_ids = np.flatnonzero(dag.kind == TaskKind.DIAG)
    if rows_ids.size + diag_ids.size == 0:
        return {}
    if dag.row_range is None or dag.row_range.shape != (dag.n_tasks, 2):
        note("H105", "unit DAG has DIAG/ROWS tasks but no row_range")
        return {}
    sym = dag.symbol
    width = np.diff(sym.cblk_ptr).astype(np.int64)
    height = sym.cblk_heights()
    blocks: dict = {}
    for k in np.unique(dag.cblk[np.concatenate([rows_ids, diag_ids])]):
        k = int(k)
        owner = int(writer[k])
        if owner < 0 or dag.kind[owner] != TaskKind.DIAG \
                or tuple(dag.row_range[owner]) != (0, int(width[k])):
            note("H105", f"split panel {k}'s diagonal block is not owned by "
                         "one DIAG task over rows [0, width)",
                 () if owner < 0 else (owner,))
            continue
        mine = rows_ids[dag.cblk[rows_ids] == k]
        r0, r1 = dag.row_range[mine].T
        order = np.argsort(r0, kind="stable")
        mine, r0, r1 = mine[order], r0[order], r1[order]
        bounds = np.concatenate([r0, r1[-1:]]) if mine.size else r0
        if not (mine.size and bounds[0] == width[k] and bounds[-1] == height[k]
                and np.array_equal(r1[:-1], r0[1:]) and np.all(r0 < r1)):
            note("H105", f"the ROWS tasks of panel {k} do not tile its rows "
                         f"[{int(width[k])}, {int(height[k])}) once each",
                 tuple(int(t) for t in mine[:4]))
            continue
        blocks[k] = (mine, r0, r1)
    return blocks


def _split_reads(dag: TaskDAG, writer: np.ndarray, blocks: dict,
                 problems: list) -> AccessSets:
    """Left-looking reads of a unit DAG with split panels, per row block.

    A couple ``k → t`` reads rows of ``k``'s tail: all of them from
    ``t``'s own task, or, when ``t`` is split, the facing rows from its
    ``DIAG`` and the facing rows plus the slice landing in its range
    from each ``ROWS`` task the slice is not empty for.  A read of split
    ``k`` is written by the ``ROWS`` tasks over the rows read (and the
    ``DIAG``, which holds ``D``, for LDLᵀ); every ``ROWS`` task also
    reads its own panel's diagonal block.
    """
    # Lazy: the couple plan sits in the kernels layer.
    from repro.kernels.indexcache import get_couple_cache

    plan = get_couple_cache(dag.symbol)
    width = plan.layout.width
    ldlt = dag.factotype == "ldlt"
    tasks: list[int] = []
    panels: list[int] = []
    writers: list[int] = []

    def read(task: int, k: int, lo: int, hi: int) -> None:
        """``task`` reads tail rows ``[lo, hi)`` of panel ``k``."""
        found = blocks.get(k)
        if found is None:
            hit = [int(writer[k])]
        else:
            mine, r0, r1 = found
            lo, hi = lo + int(width[k]), hi + int(width[k])
            hit = mine[(r0 < hi) & (r1 > lo)].tolist()
            if ldlt:
                hit.append(int(writer[k]))
        for u in hit:
            tasks.append(task)
            panels.append(k)
            writers.append(u)

    src, tgt = plan.src.tolist(), plan.tgt.tolist()
    i0s, i1s = plan.i0.tolist(), plan.i1.tolist()
    below = plan.layout.below.tolist()
    rl_ptr = plan.rl_ptr.tolist()
    for c, (k, t) in enumerate(zip(src, tgt)):
        i0, i1 = i0s[c], i1s[c]
        if writer[t] < 0:
            continue
        if t not in blocks:
            read(int(writer[t]), k, i0, below[k])
            continue
        read(int(writer[t]), k, i0, i1)
        rl = plan.rows_local[rl_ptr[c]: rl_ptr[c + 1]]
        mine, r0, r1 = blocks[t]
        a = np.searchsorted(rl, r0)
        b = np.searchsorted(rl, r1)
        for task, ai, bi in zip(mine.tolist(), a.tolist(), b.tolist()):
            if ai < bi:
                read(task, k, i0, i1)
                read(task, k, i0 + ai, i0 + bi)
    for k, (mine, _, _) in blocks.items():
        for task in mine.tolist():
            tasks.append(task)
            panels.append(k)
            writers.append(int(writer[k]))
    n = len(tasks)
    return AccessSets(
        writer, np.asarray(tasks, dtype=np.int64),
        np.asarray(panels, dtype=np.int64), np.full(n, -1, dtype=np.int64),
        problems, np.asarray(writers, dtype=np.int64),
    )
