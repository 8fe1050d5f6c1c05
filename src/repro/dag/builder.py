"""Build the factorization task DAG from a :class:`SymbolMatrix`."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.kernels.cost import (
    complex_multiplier,
    flops_panel,
    flops_rows,
    flops_update,
    flops_update_rows,
)
from repro.symbolic.structures import SymbolMatrix

__all__ = [
    "update_couples",
    "build_dag",
    "get_dag",
    "dag_of_trace",
    "symbol_memo",
    "FUSE_UNITS_PER_WORKER",
    "MIN_SOLVE_FLOPS",
    "MIN_SPLIT_FLOPS",
    "MIN_UNIT_FLOPS",
    "ROW_BLOCK",
    "RowBlocks",
    "row_blocks",
]

#: Leaf subtrees are fused up to ``1 / (FUSE_UNITS_PER_WORKER ·
#: n_workers)`` of the whole tree's weight (panel storage for the solve
#: DAG, flops for the unit factorization DAG): a worker then has about
#: this many bottom-of-tree tasks to balance with, while the task count
#: stays in the tens to low hundreds whatever the number of panels.
FUSE_UNITS_PER_WORKER = 8

#: Flop floor of a factorization unit: a tree worth less than this is
#: one task, whatever the worker count, and no fused subtree is smaller.
#: Below it a second worker of the C executor costs more than it takes
#: over: on a 2-core x86-64 host the w=2 / w=1 time ratio of the unit
#: DAG's factorization crosses 1 at about 3.5e6 flops (the small
#: factorizations of ``docs/performance.md``).
MIN_UNIT_FLOPS = 4e6

#: Flop floor of a partitioned solve DAG (its total: both sweeps, all
#: right-hand sides).  Below it the whole tree is one unit — one forward
#: and one backward task, a chain no second worker joins — as a second
#: worker costs more than it takes over: on a 2-core x86-64 host the
#: threaded solve's w=2 / w=1 time ratio crosses 1 at about 3.7e6 flops
#: (the solve work floor of ``docs/performance.md``).
MIN_SOLVE_FLOPS = 4e6

#: Rows of a row-block task, on average: a split panel's below-diagonal
#: rows are cut into ``ceil(below / ROW_BLOCK)`` blocks of about equal
#: flops (:func:`row_blocks`).
ROW_BLOCK = 128

#: Flop floor of a split panel: its own flops plus the updates it
#: receives, as the unit DAG weighs a panel.  Below it the diagonal task
#: and one task per row block cost more than the overlap they buy.
MIN_SPLIT_FLOPS = 1e8


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


def _plan_couples(symbol: SymbolMatrix):
    """:func:`update_couples` read off the symbol's couple plan, which a
    factorization builds anyway (the same arrays, in the same by-source
    order).  Memoised next to the plan on the symbol: :func:`row_blocks`
    and the unit DAG of one factorization both read them."""
    from repro.kernels.indexcache import get_couple_cache

    plan = get_couple_cache(symbol)
    memo = symbol.__dict__.get("_plan_couples_memo")
    if memo is not None and memo[0] is plan:
        return memo[1]
    by_src = plan.by_src
    src = plan.src[by_src].astype(np.int64)
    i0 = plan.i0[by_src].astype(np.int64)
    ms = plan.layout.below[src] - i0
    couples = (src, plan.tgt[by_src].astype(np.int64), ms,
               plan.i1[by_src].astype(np.int64) - i0)
    symbol.__dict__["_plan_couples_memo"] = (plan, couples)
    return couples


def _weights(symbol: SymbolMatrix, factotype: str, dtype,
             recompute_ld: bool = True, from_plan: bool = False):
    """Per-panel geometry, the update couples and their flops:
    ``(widths, below, (src, tgt, ms, ns), panel_flops, upd_flops)``.
    ``from_plan``: the couples of the symbol's couple plan (the unit DAG
    and the row blocks, which a factorization builds), else of the symbol
    itself (the simulators' DAGs, which need no plan)."""
    widths = np.diff(symbol.cblk_ptr).astype(np.int64)
    below = symbol.cblk_heights() - widths
    mult = complex_multiplier(dtype)
    src, tgt, ms, ns = couples = (
        _plan_couples if from_plan else update_couples)(symbol)
    # Array calls: one count per task, bit-identical to the scalar ones.
    panel_flops = mult * flops_panel(widths, below, factotype)
    upd_flops = mult * flops_update(
        ms, ns, widths[src], factotype, recompute_ld=recompute_ld
    )
    return widths, below, couples, panel_flops, upd_flops


class RowBlocks(NamedTuple):
    """The row-block partition of a symbol's large panels
    (:func:`row_blocks`).

    Panel ``k`` is split iff ``ptr[k] < ptr[k + 1]``; its row blocks are
    then ``[rows[j], rows[j + 1])`` for ``j`` in ``[ptr[k], ptr[k + 1] -
    1)``, ascending from its width to its height.
    """

    ptr: np.ndarray
    rows: np.ndarray
    symbol: SymbolMatrix

    def bounds(self, k: int) -> np.ndarray:
        """Panel ``k``'s block boundaries (empty: not split)."""
        return self.rows[self.ptr[k]: self.ptr[k + 1]]


def row_blocks(symbol: SymbolMatrix, factotype: str = "llt",
               dtype=np.float64) -> RowBlocks:
    """Which panels split into a diagonal task plus row-block tasks.

    A panel splits when its unit-DAG weight (own flops plus the updates
    it receives) is at least ``MIN_SPLIT_FLOPS`` and its below-diagonal
    part spans at least two ``ROW_BLOCK`` blocks; the blocks are cut at
    equal shares of their rows' flops (:func:`_balanced_bounds`).  It
    depends on the symbol only — not on values or workers — and is
    memoised on it, so
    the sequential driver (one C call over every panel) and the threaded
    driver (one task per block) cut every panel the same way, and their
    factors stay bit-identical.
    """
    key = ("rows", factotype, np.dtype(dtype).str, ROW_BLOCK,
           MIN_SPLIT_FLOPS)

    def build() -> RowBlocks:
        widths, below, couples, panel_flops, upd_flops = _weights(
            symbol, factotype, dtype, from_plan=True)
        weight = panel_flops + np.bincount(couples[1], weights=upd_flops,
                                           minlength=symbol.n_cblk)
        nb = -(-below // max(1, int(ROW_BLOCK)))
        nb[(nb < 2) | ~(weight >= MIN_SPLIT_FLOPS)] = 0
        ptr = np.zeros(symbol.n_cblk + 1, dtype=np.int64)
        np.cumsum(np.where(nb > 0, nb + 1, 0), out=ptr[1:])
        split = np.flatnonzero(nb)
        if split.size:
            from repro.kernels.indexcache import get_couple_cache

            plan = get_couple_cache(symbol)
        rows = [_balanced_bounds(plan, factotype, k, int(nb[k]))
                for k in split.tolist()]
        return RowBlocks(ptr, np.concatenate(rows).astype(np.int64)
                         if rows else np.empty(0, np.int64), symbol)

    return symbol_memo(symbol, key, build)


def _couples_into(plan, k: int):
    """The couples landing in panel ``k``: per couple its facing rows
    ``n`` and source width ``ws``, and per source tail row it maps, its
    couple (``0..``) and its row of ``k`` (``rows_local``, ascending per
    couple)."""
    c0, c1 = int(plan.tgt_ptr[k]), int(plan.tgt_ptr[k + 1])
    n = (plan.i1[c0:c1] - plan.i0[c0:c1]).astype(np.int64)
    ws = plan.layout.width[plan.src[c0:c1]]
    couple = np.repeat(np.arange(c1 - c0), np.diff(plan.rl_ptr[c0:c1 + 1]))
    rows = plan.rows_local[plan.rl_ptr[c0]: plan.rl_ptr[c1]]
    return n, ws, couple, rows


def _balanced_bounds(plan, factotype: str, k: int, nb: int) -> np.ndarray:
    """``nb + 1`` boundaries of panel ``k``'s row blocks, from its width
    to its height: cut where the running flops of its rows (the update
    GEMMs each row receives, then its TRSM) cross ``j / nb`` of the
    total, at least one row per block."""
    w, h = int(plan.layout.width[k]), int(plan.layout.height[k])
    n, ws, couple, rows = _couples_into(plan, k)
    below = rows >= w
    per_row = flops_rows(w, 1, factotype) + np.bincount(
        rows[below] - w, minlength=h - w,
        weights=flops_update_rows(1, n, ws, factotype)[couple[below]])
    cum = np.cumsum(per_row)
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, nb) / nb) + 1
    bounds = [0]
    for j, cut in enumerate(cuts.tolist(), 1):
        bounds.append(min(max(cut, bounds[-1] + 1), h - w - (nb - j)))
    return w + np.asarray(bounds + [h - w], dtype=np.int64)


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
    up = parent.tolist()
    subtree = np.asarray(weight, dtype=np.float64).tolist()
    for k in range(K):  # ascending is bottom-up (parent > child)
        if up[k] >= 0:
            subtree[up[k]] += subtree[k]
    group = [-1] * K
    for k in range(K - 1, -1, -1):
        if subtree[k] > threshold:
            continue
        p = up[k]
        group[k] = group[p] if p >= 0 and group[p] >= 0 else k
    return np.array(group, dtype=np.int64)


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
    panel→panel.  ``granularity="unit"`` (what the real threaded
    runtime executes): one left-looking task per *unit*, see :func:`_build_unit`;
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
    widths, below, (src, tgt, ms, ns), panel_flops, upd_flops = _weights(
        symbol, factotype, dtype, recompute_ld, granularity == "unit")
    n_upd = src.size

    if granularity == "unit":
        return _build_unit(
            symbol, factotype, widths, below, src, tgt, ms, ns,
            panel_flops, upd_flops, max(1, int(n_workers)),
            row_blocks(symbol, factotype, dtype), complex_multiplier(dtype),
            recompute_ld,
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
    # Only unit DAGs depend on the worker count and the floors.
    key = ("facto", factotype, np.dtype(dtype).str, granularity) + (
        (n_workers, ROW_BLOCK, MIN_SPLIT_FLOPS, MIN_UNIT_FLOPS,
         FUSE_UNITS_PER_WORKER) if granularity == "unit" else ())
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
    panel_flops, upd_flops, n_workers, blocks, mult, recompute_ld,
):
    """One left-looking task per unit, and per block of a split panel.

    The paper's own levers, combined: §III's left-looking grouping ("all
    tasks contributing to a single panel are associated in a single
    task") and §VI's coarsening ("merging leaves or subtrees together
    yields bigger, more computationally intensive tasks").  A unit
    (:func:`unit_partition`) is a panel or a fused leaf subtree; a panel
    weighs its own flops plus the updates it *receives* — exactly what
    its unit's task executes — and subtrees are fused up to
    ``max(total / (FUSE_UNITS_PER_WORKER · n_workers), MIN_UNIT_FLOPS)``.

    Task ``u`` of a unit: for each member panel ascending it applies the
    updates of every source panel, then factorizes.  Every source is a
    tree descendant, hence in the same unit (already done) or in a unit
    below — ordered by the ``unit(child) → unit(parent)`` edges.  Every
    write lands in a panel the task owns, so there is no mutex and no
    ``UPDATE`` task.

    A panel :func:`row_blocks` splits is never fused (its subtree weighs
    too much by fiat), and its unit becomes a ``DIAG`` task (the updates
    into the diagonal block, then its factorization) and one ``ROWS``
    task per row block (the updates into its rows, then their TRSM),
    with edges child units → ``DIAG`` → every ``ROWS`` → the parent
    unit's first task (between two split panels, :func:`_block_edges`).
    The row blocks of a panel write disjoint rows and only read the
    diagonal block and final source rows, so they run concurrently with
    no lock; the top separators, which the unit tree leaves as one
    chain, get their parallelism back.

    ``fused_components`` lists each task's kernels for the simulators'
    duration models (:func:`repro.kernels.cost.flops_component`), and
    the ``DIAG`` / ``ROWS`` flops are their sums: the tasks of a panel
    sum to its unit weight.  Single-panel units are ``PANEL1D`` tasks
    (the ``"1d-left"`` grouping), fused ones ``SUBTREE``.
    """
    K = symbol.n_cblk
    weight = panel_flops + np.bincount(tgt, weights=upd_flops, minlength=K)
    fusable = np.where(np.diff(blocks.ptr) > 0, np.inf, weight)
    part = unit_partition(symbol, fusable, max(
        weight.sum() / (FUSE_UNITS_PER_WORKER * n_workers), MIN_UNIT_FLOPS
    ))
    U = part.roots.size
    unit_of = part.unit_of
    n_bounds = np.diff(blocks.ptr)[part.roots]
    split = n_bounds > 0
    # Tasks in unit order: a unit's one task, or its DIAG then its ROWS.
    n_sub = np.where(split, n_bounds, 1)
    first = np.zeros(U + 1, dtype=np.int64)
    np.cumsum(n_sub, out=first[1:])
    n_tasks = int(first[-1])
    task_unit = np.repeat(np.arange(U, dtype=np.int64), n_sub)
    is_rows = np.arange(n_tasks) != first[task_unit]
    kind = np.where(part.size > 1, TaskKind.SUBTREE, TaskKind.PANEL1D)
    kind = np.where(split, TaskKind.DIAG, kind)[task_unit].astype(np.int8)
    kind[is_rows] = TaskKind.ROWS
    members = np.where(is_rows, 0, part.size[task_unit])
    unit_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
    np.cumsum(members, out=unit_ptr[1:])
    cblk = part.roots[task_unit]

    flops = np.zeros(n_tasks)
    flops[~is_rows] = np.bincount(unit_of, weights=weight, minlength=U)
    row_range = np.zeros((n_tasks, 2), dtype=np.int64)
    split_comps: dict[int, list] = {}

    def components() -> dict[int, list]:
        # Built on first read: only the machine simulator reads them.
        head, unsplit = first[:-1].tolist(), (~split).tolist()
        comps: dict[int, list] = {t: [] for t in head}
        for u, w, b in zip(unit_of.tolist(), widths.tolist(),
                           below.tolist()):
            if unsplit[u]:
                comps[head[u]].append(("panel", w, b))
        for u, m, n, w in zip(unit_of[tgt].tolist(), ms.tolist(),
                              ns.tolist(), widths[src].tolist()):
            if unsplit[u]:
                comps[head[u]].append(("update", m, n, w))
        comps.update(split_comps)
        return comps

    if split.any():
        from repro.kernels.indexcache import get_couple_cache

        plan = get_couple_cache(symbol)
        for u in np.flatnonzero(split).tolist():
            k, t0 = int(part.roots[u]), int(first[u])
            bounds = blocks.bounds(k)
            w, nb = int(widths[k]), bounds.size - 1
            n, ws, couple, rows = _couples_into(plan, k)
            block = np.searchsorted(bounds, rows, side="right") - 1
            mine = block >= 0                    # -1: the diagonal block
            counts = np.bincount(couple[mine] * nb + block[mine],
                                 minlength=n.size * nb).reshape(n.size, nb)
            row_range[t0] = (0, w)
            row_range[t0 + 1: t0 + 1 + nb] = np.column_stack(
                [bounds[:-1], bounds[1:]])
            split_comps[t0] = [("panel", w, 0)] + [
                ("update", a, a, b) for a, b in zip(n.tolist(), ws.tolist())]
            for j, r in enumerate(np.diff(bounds).tolist()):
                got = np.flatnonzero(counts[:, j])
                split_comps[t0 + 1 + j] = [("rows", w, r)] + [
                    ("slice", a, b, c) for a, b, c in zip(
                        counts[got, j].tolist(), n[got].tolist(),
                        ws[got].tolist())]
            flops[t0] = mult * (flops_panel(w, 0, factotype) + flops_update(
                n, n, ws, factotype, recompute_ld=recompute_ld).sum())
            flops[t0 + 1: t0 + 1 + nb] = mult * (
                flops_rows(w, np.diff(bounds), factotype)
                + flops_update_rows(counts, n[:, None], ws[:, None],
                                    factotype).sum(axis=0))

    # Edges: every last task of a child unit -> the parent unit's first
    # task, unless both are split (below); a DIAG -> each of its ROWS.
    last_lo = np.where(split, first[:-1] + 1, first[:-1])
    n_last = first[1:] - last_lo
    both = split[part.child] & split[part.above]
    child, above = part.child[~both], part.above[~both]
    heads = [np.repeat(last_lo[child], n_last[child])
             + _ranges_within(n_last[child])]
    tails = [np.repeat(first[above], n_last[child])]
    rows_ids = np.flatnonzero(is_rows)
    heads.append(first[task_unit[rows_ids]])
    tails.append(rows_ids)
    for cu, pu in zip(part.child[both].tolist(), part.above[both].tolist()):
        h, t = _block_edges(symbol, blocks, int(part.roots[cu]),
                            int(part.roots[pu]))
        heads.append(first[cu] + h)
        tails.append(first[pu] + t)
    succ_ptr, succ_list = _csr_from_edges(
        n_tasks, np.concatenate(heads), np.concatenate(tails))
    return TaskDAG(
        kind=kind,
        cblk=cblk,
        target=cblk.copy(),
        flops=flops,
        gemm_m=np.zeros(n_tasks, np.int64),
        gemm_n=np.zeros(n_tasks, np.int64),
        gemm_k=widths[cblk],
        succ_ptr=succ_ptr,
        succ_list=succ_list,
        mutex=np.full(n_tasks, -1, dtype=np.int64),
        granularity="unit",
        symbol=symbol,
        factotype=factotype,
        fused_components=components,
        unit_ptr=unit_ptr,
        unit_panels=part.unit_panels,
        row_range=row_range,
    )


def _block_edges(symbol, blocks: RowBlocks, c: int,
                 p: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges from split panel ``c``'s row blocks to its split tree parent
    ``p``'s tasks, as offsets from each panel's ``DIAG`` (0 the ``DIAG``,
    ``1 + j`` row block ``j``).

    ``c``'s tail rows all land in ``p`` (its couple into ``p`` starts at
    ``i0 = 0``).  Block ``i`` of ``c`` precedes ``p``'s ``DIAG`` when it
    holds a row facing ``p``, else each of ``p``'s blocks its rows land
    in — whichever is first to read them; every later reader follows
    that one (the ``DIAG`` precedes ``p``'s blocks, and a row below
    ``p``'s columns is a row of ``p``'s block, which an ancestor reads
    after it).  So ``p``'s ``DIAG`` waits only for the blocks of ``c``
    facing it, not for the whole of ``c``.
    """
    from repro.kernels.indexcache import get_couple_cache

    plan = get_couple_cache(symbol)
    lo, hi = int(plan.tgt_ptr[p]), int(plan.tgt_ptr[p + 1])
    cp = lo + int(np.searchsorted(plan.src[lo:hi], c))
    rl = plan.rows_local[plan.rl_ptr[cp]: plan.rl_ptr[cp + 1]]
    wc = int(plan.layout.width[c])
    c_rows, p_rows = blocks.bounds(c), blocks.bounds(p)
    block_of = np.searchsorted(p_rows, rl, side="right")   # 0: diagonal
    owner = np.searchsorted(c_rows, wc + np.arange(rl.size), side="right")
    pairs = np.unique(owner * p_rows.size + block_of)
    owner, block_of = pairs // p_rows.size, pairs % p_rows.size
    faces = np.zeros(c_rows.size, dtype=bool)
    faces[owner[block_of == 0]] = True
    keep = (block_of == 0) | ~faces[owner]
    return owner[keep], block_of[keep]


def _ranges_within(lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lengths[i])``."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.size else 0) - np.repeat(
        ends - lengths, lengths)


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

