"""Build the factorization task DAG from a :class:`SymbolMatrix`."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.kernels.cost import complex_multiplier, flops_panel, flops_update
from repro.symbolic.structures import SymbolMatrix

__all__ = [
    "update_couples",
    "build_dag",
    "get_dag",
    "dag_of_trace",
    "symbol_memo",
    "FUSE_UNITS_PER_WORKER",
    "MIN_UNIT_FLOPS",
]

#: Leaf subtrees are fused up to ``1 / (FUSE_UNITS_PER_WORKER ·
#: n_workers)`` of the whole tree's weight (panel storage for the solve
#: DAG, flops for the unit factorization DAG): a worker then has about
#: this many bottom-of-tree tasks to balance with, while the task count
#: stays in the tens to low hundreds whatever the number of panels.
FUSE_UNITS_PER_WORKER = 8

#: Flop floor of a factorization unit.  Below it a task is interpreter-
#: bound: two threads sharing the GIL run such work *slower* than one
#: (the two-thread floor of ``docs/performance.md``), and 1e8 flops is
#: only ~2 ms of GEMM-rate arithmetic — so a tree worth less than this
#: is one task, whatever the worker count.
MIN_UNIT_FLOPS = 1e8


def symbol_memo(symbol: SymbolMatrix, key: tuple, build) -> TaskDAG:
    """The DAG ``build()`` returns, memoised on ``symbol`` under ``key``.

    A DAG depends on the symbol only and runtimes only read it, so —
    like the couple cache (:func:`repro.kernels.indexcache.\
get_couple_cache`) — it lives on the symbol object: repeated solves,
    refinement steps and refactorizations of one pattern build it once.
    A lost race between concurrent first callers at worst builds twice;
    both results are identical, so either may win.
    """
    memo = symbol.__dict__.setdefault("_dag_memo", {})
    dag = memo.get(key)
    if dag is None or dag.symbol is not symbol:
        dag = memo[key] = build()
    return dag


def update_couples(
    symbol: SymbolMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Enumerate the (source panel, facing panel) update couples.

    Returns ``(src, tgt, m, n)`` arrays: for each couple, ``n`` is the
    number of source rows inside the target panel and ``m`` the number of
    source rows at-and-after the first of them (the GEMM is ``m×n×w``).
    """
    owner = symbol.blok_owner
    off = np.flatnonzero(symbol.blok_face != owner)  # drop diagonal bloks
    own, face = owner[off], symbol.blok_face[off]
    sizes = (symbol.blok_lrow[off] - symbol.blok_frow[off]).astype(np.int64)
    # A couple is a maximal run of equal (owner, face): bloks are sorted
    # by owner, then by row, hence by face.
    first = np.ones(off.size, dtype=bool)
    first[1:] = (own[1:] != own[:-1]) | (face[1:] != face[:-1])
    starts = np.flatnonzero(first)
    src = own[starts].astype(np.int64)
    # Rows of the owner at-and-after each run: the running row count at
    # the end of the owner's bloks minus the count before the run.
    before = np.cumsum(sizes) - sizes
    owner_end = np.cumsum(
        np.bincount(own, weights=sizes, minlength=symbol.n_cblk)
    ).astype(np.int64)
    ms = owner_end[src] - before[starts]
    ns = np.add.reduceat(sizes, starts) if starts.size else sizes
    return src, face[starts].astype(np.int64), ms, ns


def supernode_parent(symbol: SymbolMatrix) -> np.ndarray:
    """Supernode-tree parent of every cblk (``-1`` for roots).

    The parent is the first (lowest) facing cblk; by the facing-subset
    property every other cblk a panel faces is an ancestor of it.
    """
    first = symbol.blok_ptr[:-1] + 1
    has = first < symbol.blok_ptr[1:]
    parent = np.full(symbol.n_cblk, -1, dtype=np.int64)
    parent[has] = symbol.blok_face[first[has]]
    return parent


def fused_subtree_groups(
    parent: np.ndarray, weight: np.ndarray, threshold: float
) -> np.ndarray:
    """Assign every cblk to its fused leaf subtree (``-1``: unfused).

    A cblk belongs to a fused group iff its whole subtree weighs at most
    ``threshold``; the group's id is the subtree's topmost such cblk, so
    the groups are exactly the maximal subtrees under the threshold.
    Shared by the factorization DAG (weight: flops) and the solve DAG
    (weight: panel storage).
    """
    K = parent.size
    subtree = np.asarray(weight, dtype=np.float64).copy()
    for k in range(K):  # ascending is bottom-up (parent > child)
        if parent[k] >= 0:
            subtree[parent[k]] += subtree[k]
    group = np.full(K, -1, dtype=np.int64)
    for k in range(K - 1, -1, -1):
        if subtree[k] > threshold:
            continue
        p = parent[k]
        group[k] = group[p] if p >= 0 and group[p] >= 0 else k
    return group


class UnitPartition(NamedTuple):
    """Panels grouped into *units* (see :func:`unit_partition`).

    Units are numbered by their topmost panel ``roots[u]``; the members
    of unit ``u`` are ``unit_panels[unit_ptr[u]:unit_ptr[u + 1]]``
    (ascending) and ``unit_of[k]`` is panel ``k``'s unit.  The unit tree
    is ``child[i] → above[i]`` (the unit holding the parent panel of
    ``roots[child[i]]``); ``tree_roots`` are the units with no parent.
    """

    roots: np.ndarray
    unit_of: np.ndarray
    unit_ptr: np.ndarray
    unit_panels: np.ndarray
    child: np.ndarray
    above: np.ndarray
    tree_roots: np.ndarray

    @property
    def size(self) -> np.ndarray:
        return np.diff(self.unit_ptr)


def unit_partition(
    symbol: SymbolMatrix, weight: np.ndarray, threshold: float
) -> UnitPartition:
    """Partition the panels into fused leaf subtrees and single panels.

    Every maximal subtree of the supernode tree weighing at most
    ``threshold`` (:func:`fused_subtree_groups`) is one unit, every other
    panel a unit on its own.  A fused unit is a *complete* subtree, so
    every descendant of a panel is in its own unit or in a unit below it
    along the unit tree: a task per unit with edges ``child → above``
    orders every descendant-to-ancestor access.  Shared by the solve DAG
    and the unit-granular factorization DAG.
    """
    K = symbol.n_cblk
    parent = supernode_parent(symbol)
    group = fused_subtree_groups(parent, weight, threshold)
    top = np.where(group >= 0, group, np.arange(K, dtype=np.int64))
    roots, unit_of = np.unique(top, return_inverse=True)
    unit_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(unit_of, minlength=roots.size)))
    ).astype(np.int64)
    unit_panels = np.argsort(unit_of, kind="stable").astype(np.int64)
    up = parent[roots]                 # panel above each unit (-1: root)
    child = np.flatnonzero(up >= 0)
    return UnitPartition(
        roots, unit_of, unit_ptr, unit_panels,
        child, unit_of[up[child]], np.flatnonzero(up < 0),
    )


def _csr_from_edges(n: int, heads: np.ndarray, tails: np.ndarray):
    """CSR successor lists from edge arrays (head → tail)."""
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, heads + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, tails.astype(np.int64)


def build_dag(
    symbol: SymbolMatrix,
    factotype: str = "llt",
    *,
    granularity: str = "2d",
    dtype=np.float64,
    recompute_ld: bool = True,
    fuse_subtree_flops: float | None = None,
    n_workers: int = 4,
) -> TaskDAG:
    """Unroll ``symbol`` into a :class:`TaskDAG`.

    ``granularity="2d"`` (simulated runtimes): one panel task per cblk +
    one update task per couple.  ``granularity="1d"`` (native PaStiX):
    panel and its updates fused into a single task, dependencies
    panel→panel.  ``granularity="unit"`` (what the real thread pool
    executes): one left-looking task per *unit*, see :func:`_build_unit`;
    ``n_workers`` sets its fusion threshold and is ignored otherwise.

    ``recompute_ld`` matches the runtime-style LDLᵀ update kernel (see
    :func:`repro.kernels.cost.flops_update`).

    ``fuse_subtree_flops`` implements the paper's future-work granularity
    coarsening (§VI: "merging leaves or subtrees together yields bigger,
    more computationally intensive tasks"): every maximal subtree of the
    supernode tree whose total work is at most the threshold becomes one
    CPU task, removing its internal scheduling overhead; updates leaving
    the subtree stay individual tasks (2D granularity only).
    """
    K = symbol.n_cblk
    widths = np.diff(symbol.cblk_ptr).astype(np.int64)
    below = symbol.cblk_heights() - widths
    mult = complex_multiplier(dtype)
    src, tgt, ms, ns = update_couples(symbol)
    n_upd = src.size

    # Array calls: one count per task, bit-identical to the scalar ones.
    panel_flops = mult * flops_panel(widths, below, factotype)
    upd_flops = mult * flops_update(
        ms, ns, widths[src], factotype, recompute_ld=recompute_ld
    )

    if granularity == "unit":
        return _build_unit(
            symbol, factotype, widths, below, src, tgt, ms, ns,
            panel_flops, upd_flops, max(1, int(n_workers)),
        )
    if granularity == "2d" and fuse_subtree_flops:
        return _build_fused(
            symbol, factotype, dtype, widths, below, src, tgt, ms, ns,
            panel_flops, upd_flops, fuse_subtree_flops,
        )
    if granularity == "2d":
        n_tasks = K + n_upd
        kind = np.empty(n_tasks, dtype=np.int8)
        kind[:K] = TaskKind.PANEL
        kind[K:] = TaskKind.UPDATE
        cblk = np.concatenate([np.arange(K, dtype=np.int64), src])
        target = np.concatenate([np.arange(K, dtype=np.int64), tgt])
        flops = np.concatenate([panel_flops, upd_flops])
        gm = np.concatenate([np.zeros(K, np.int64), ms])
        gn = np.concatenate([np.zeros(K, np.int64), ns])
        gk = np.concatenate([np.zeros(K, np.int64), widths[src]])
        upd_ids = K + np.arange(n_upd, dtype=np.int64)
        # Edges: panel(src) -> update, update -> panel(tgt).
        heads = np.concatenate([src, upd_ids])
        tails = np.concatenate([upd_ids, tgt])
        mutex = np.full(n_tasks, -1, dtype=np.int64)
        mutex[K:] = tgt
    elif granularity in ("1d", "1d-left"):
        # One task per panel.  "1d" (right-looking, PaStiX) charges each
        # panel's own updates to it; "1d-left" charges the *incoming*
        # updates (§III's left-looking grouping: many inputs, one in-out).
        # The dependency edges are identical — only when the update work
        # executes differs, which is what the scheduling ablation probes.
        n_tasks = K
        kind = np.full(K, TaskKind.PANEL1D, dtype=np.int8)
        cblk = np.arange(K, dtype=np.int64)
        target = cblk.copy()
        flops = panel_flops.copy()
        charge = src if granularity == "1d" else tgt
        np.add.at(flops, charge, upd_flops)
        fused_components = {
            k: [("panel", int(widths[k]), int(below[k]))] for k in range(K)
        }
        for i in range(n_upd):
            fused_components[int(charge[i])].append(
                ("update", int(ms[i]), int(ns[i]), int(widths[src[i]]))
            )
        gm = np.zeros(K, np.int64)
        gn = np.zeros(K, np.int64)
        gk = widths.copy()
        heads, tails = src, tgt  # already deduplicated per couple
        mutex = np.full(K, -1, dtype=np.int64)
        succ_ptr, succ_list = _csr_from_edges(n_tasks, heads, tails)
        return TaskDAG(
            kind=kind, cblk=cblk, target=target, flops=flops,
            gemm_m=gm, gemm_n=gn, gemm_k=gk,
            succ_ptr=succ_ptr, succ_list=succ_list, mutex=mutex,
            granularity=granularity, symbol=symbol, factotype=factotype,
            fused_components=fused_components,
        )
    else:
        raise ValueError(f"unknown granularity {granularity!r}")

    succ_ptr, succ_list = _csr_from_edges(n_tasks, heads, tails)
    return TaskDAG(
        kind=kind,
        cblk=cblk,
        target=target,
        flops=flops,
        gemm_m=gm,
        gemm_n=gn,
        gemm_k=gk,
        succ_ptr=succ_ptr,
        succ_list=succ_list,
        mutex=mutex,
        granularity=granularity,
        symbol=symbol,
        factotype=factotype,
    )


def get_dag(
    symbol: SymbolMatrix,
    factotype: str = "llt",
    *,
    granularity: str = "2d",
    dtype=np.float64,
    n_workers: int = 4,
) -> TaskDAG:
    """:func:`build_dag` memoised on the symbol (see :func:`symbol_memo`).

    What the runtimes execute; callers that edit a DAG (the verify
    injectors, tests) keep building their own with :func:`build_dag`.
    """
    n_workers = max(1, int(n_workers))
    key = ("facto", factotype, np.dtype(dtype).str, granularity,
           n_workers if granularity == "unit" else None)  # only units use it
    return symbol_memo(symbol, key, lambda: build_dag(
        symbol, factotype, granularity=granularity, dtype=dtype,
        n_workers=n_workers,
    ))


def dag_of_trace(
    symbol: SymbolMatrix, factotype: str, trace, *, dtype=np.float64
) -> TaskDAG:
    """The (memoised) factorization DAG a threaded run executed.

    :func:`repro.runtime.threaded.factorize_threaded` stamps what it ran
    into ``trace.meta`` (``granularity``, ``n_workers``);
    auditing or replaying a trace against any other DAG pairs task ids
    that do not mean the same thing.  A trace that predates the
    ``granularity`` stamp ran the 2D couple DAG.
    """
    meta = trace.meta
    return get_dag(
        symbol, factotype, dtype=dtype,
        granularity=meta.get("granularity", "2d"),
        n_workers=meta.get("n_workers", 4),
    )


def _build_unit(
    symbol, factotype, widths, below, src, tgt, ms, ns,
    panel_flops, upd_flops, n_workers,
):
    """One left-looking task per unit, edges along the unit tree only.

    The paper's own levers, combined: §III's left-looking grouping ("all
    tasks contributing to a single panel are associated in a single
    task") and §VI's coarsening ("merging leaves or subtrees together
    yields bigger, more computationally intensive tasks").  A unit
    (:func:`unit_partition`) is a panel or a fused leaf subtree; a panel
    weighs its own flops plus the updates it *receives* — exactly what
    its unit's task executes — and subtrees are fused up to
    ``max(total / (FUSE_UNITS_PER_WORKER · n_workers), MIN_UNIT_FLOPS)``.

    Task ``u`` is unit ``u``: for each member panel ascending it applies
    the updates of every source panel, then factorizes.  Every source is
    a tree descendant, hence in the same unit (already done) or in a unit
    below — ordered by the ``unit(child) → unit(parent)`` edges.  Every
    write lands in a panel the task owns, so there is no mutex and no
    ``UPDATE`` task.  ``fused_components`` lists each task's kernels for
    the simulators' duration models; single-panel units are ``PANEL1D``
    tasks (the ``"1d-left"`` grouping), fused ones ``SUBTREE``.
    """
    K = symbol.n_cblk
    weight = panel_flops + np.bincount(tgt, weights=upd_flops, minlength=K)
    part = unit_partition(symbol, weight, max(
        weight.sum() / (FUSE_UNITS_PER_WORKER * n_workers), MIN_UNIT_FLOPS
    ))
    U = part.roots.size
    unit_of = part.unit_of

    fused_components: dict[int, list] = {u: [] for u in range(U)}
    for u, w, b in zip(unit_of.tolist(), widths.tolist(), below.tolist()):
        fused_components[u].append(("panel", w, b))
    for u, m, n, w in zip(unit_of[tgt].tolist(), ms.tolist(), ns.tolist(),
                          widths[src].tolist()):
        fused_components[u].append(("update", m, n, w))

    succ_ptr, succ_list = _csr_from_edges(U, part.child, part.above)
    return TaskDAG(
        kind=np.where(
            part.size > 1, TaskKind.SUBTREE, TaskKind.PANEL1D
        ).astype(np.int8),
        cblk=part.roots,
        target=part.roots.copy(),
        flops=np.bincount(unit_of, weights=weight, minlength=U),
        gemm_m=np.zeros(U, np.int64),
        gemm_n=np.zeros(U, np.int64),
        gemm_k=widths[part.roots],
        succ_ptr=succ_ptr,
        succ_list=succ_list,
        mutex=np.full(U, -1, dtype=np.int64),
        granularity="unit",
        symbol=symbol,
        factotype=factotype,
        fused_components=fused_components,
        unit_ptr=part.unit_ptr,
        unit_panels=part.unit_panels,
    )


def _build_fused(
    symbol, factotype, dtype, widths, below, src, tgt, ms, ns,
    panel_flops, upd_flops, threshold,
):
    """2D DAG with leaf subtrees under ``threshold`` flops fused.

    Group assignment: :func:`fused_subtree_groups` over per-cblk flops
    (panel + the updates it sources).  Because work only flows upward,
    a fused subtree is complete (no external dependency enters it) and
    every surviving update leaves a group toward an unfused ancestor
    panel.
    """
    K = symbol.n_cblk
    n_upd = src.size

    own = panel_flops.copy()
    np.add.at(own, src, upd_flops)
    group = fused_subtree_groups(supernode_parent(symbol), own, threshold)

    # Task layout: one task per "unit" (unfused panel or group root), then
    # the surviving update tasks.
    owner_task = np.full(K, -1, dtype=np.int64)
    kinds: list[int] = []
    cblks: list[int] = []
    flops_list: list[float] = []
    fused_components: dict[int, list] = {}
    for k in range(K):
        if group[k] == -1:
            owner_task[k] = len(kinds)
            kinds.append(int(TaskKind.PANEL))
            cblks.append(k)
            flops_list.append(float(panel_flops[k]))
        elif group[k] == k:
            owner_task[k] = len(kinds)
            kinds.append(int(TaskKind.SUBTREE))
            cblks.append(k)
            flops_list.append(0.0)  # accumulated below
            fused_components[owner_task[k]] = []
    # Members point at their group root's task.
    for k in range(K):
        if group[k] != -1 and group[k] != k:
            owner_task[k] = owner_task[group[k]]
    for k in range(K):
        if group[k] != -1:
            t = int(owner_task[k])
            flops_list[t] += float(panel_flops[k])
            fused_components[t].append(
                ("panel", int(widths[k]), int(below[k]))
            )

    n_units = len(kinds)
    keep_upd: list[int] = []
    for i in range(n_upd):
        s, t = int(src[i]), int(tgt[i])
        if group[s] != -1 and group[s] == group[t]:
            # Internal update: absorbed into the subtree task.
            ut = int(owner_task[s])
            flops_list[ut] += float(upd_flops[i])
            fused_components[ut].append(
                ("update", int(ms[i]), int(ns[i]), int(widths[s]))
            )
        else:
            keep_upd.append(i)

    keep = np.asarray(keep_upd, dtype=np.int64)
    n_tasks = n_units + keep.size
    kind = np.asarray(kinds + [int(TaskKind.UPDATE)] * keep.size, dtype=np.int8)
    cblk = np.concatenate([np.asarray(cblks, dtype=np.int64), src[keep]])
    target = np.concatenate([np.asarray(cblks, dtype=np.int64), tgt[keep]])
    flops = np.concatenate([np.asarray(flops_list), upd_flops[keep]])
    gm = np.concatenate([np.zeros(n_units, np.int64), ms[keep]])
    gn = np.concatenate([np.zeros(n_units, np.int64), ns[keep]])
    gk = np.concatenate([np.zeros(n_units, np.int64), widths[src[keep]]])
    mutex = np.full(n_tasks, -1, dtype=np.int64)
    mutex[n_units:] = tgt[keep]

    upd_ids = n_units + np.arange(keep.size, dtype=np.int64)
    heads = np.concatenate([owner_task[src[keep]], upd_ids])
    tails = np.concatenate([upd_ids, owner_task[tgt[keep]]])
    succ_ptr, succ_list = _csr_from_edges(n_tasks, heads, tails)
    return TaskDAG(
        kind=kind,
        cblk=cblk,
        target=target,
        flops=flops,
        gemm_m=gm,
        gemm_n=gn,
        gemm_k=gk,
        succ_ptr=succ_ptr,
        succ_list=succ_list,
        mutex=mutex,
        granularity="2d",
        symbol=symbol,
        factotype=factotype,
        fused_components=fused_components,
    )

