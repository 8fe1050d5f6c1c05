"""Symbolic-structure auditor (N5xx): re-derive, then cross-check.

Every GFlop/s number this repo reports divides a *symbolically derived*
flop count by a simulated time — if the block structure
(:class:`~repro.symbolic.structures.SymbolMatrix`) or the per-task flop
annotations drift from the true factor structure, every Figure 2/4 point
is silently wrong while all schedules still "look" valid.  This pass
re-derives the ground truth from first principles — the elimination tree
(:mod:`repro.symbolic.etree`) and the Gilbert–Ng–Peyton column counts
(:mod:`repro.symbolic.colcount`) on the permuted pattern — and checks
the aggregated structures against it, without trusting any field of the
:class:`~repro.symbolic.analyze.AnalysisResult` beyond the permutation
and pattern it starts from.

Checks (``verify_symbolic``):

* **N500 pattern** — the analysis' stored pattern equals the permuted
  symmetrised input pattern (recomputed from the original matrix);
* **N501 nnz(L)** — ``symbol.nnz()`` equals the column-count sum exactly
  (amalgamation disabled), or is ≥ it (amalgamation adds structural
  fill, never removes entries);
* **N502 per-column counts** — inside panel ``k`` the structure stores
  ``height(k) − i`` entries for its ``i``-th column; this must equal
  (or, amalgamated, dominate) the re-derived count of that column.

Checks (``verify_dag_costs``):

* **N504 per-task flops** — every 2D task's flop annotation equals the
  cost model applied to *re-derived* GEMM dimensions;
* **N505 couple coverage** — the DAG's update tasks are exactly the
  (source, facing) couples enumerated *per target* through
  ``face_ptr``/``face_list`` — a different traversal than the builder's
  per-source ``update_couples``;
* **N506 total flops** — the DAG's flop total matches the independent
  total (any granularity, both LDLᵀ update conventions accepted).

Checks (``verify_couple_cache``):

* **N507 map contents** — every cached couple's ``(i0, i1, rows_local,
  cols_local)`` equals a re-derivation from the symbol through
  *different primitives* (``count_nonzero``/``isin`` instead of the
  builder's ``searchsorted``), so a shared bug cannot hide;
* **N508 couple coverage** — the cache holds exactly the couples the
  facing index enumerates (per target), and each panel's cached facing
  list and (ascending) source list match.  A cache that silently went
  stale against its symbol — the one failure mode that would corrupt
  factors without any schedule looking wrong — fails here (``make
  selftest`` injects one).
"""

from __future__ import annotations

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.kernels.cost import complex_multiplier, flops_panel, flops_update
from repro.symbolic.analyze import AnalysisResult
from repro.symbolic.colcount import column_counts
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.structures import SymbolMatrix
from repro.verify.report import Report

__all__ = [
    "verify_symbolic",
    "verify_dag_costs",
    "verify_couple_cache",
    "derive_couples_by_target",
    "skew_flops",
    "stale_couple_map",
]

_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1.0)


# ----------------------------------------------------------------------
# Structure-level audit
# ----------------------------------------------------------------------
def verify_symbolic(
    matrix,
    result: AnalysisResult,
    *,
    exact: bool = True,
) -> Report:
    """Audit ``result`` against a from-scratch re-derivation.

    ``exact=True`` asserts equality everywhere and is correct when the
    analysis ran without amalgamation; with amalgamation the structure
    legitimately contains extra fill, so pass ``exact=False`` to check
    domination (structure ≥ re-derived counts) instead.
    """
    report = Report("symbolic")
    sym = result.symbol
    n = sym.n

    # N500: the stored pattern is the permuted symmetrised input.
    fresh = (
        matrix.symmetrize_pattern().with_full_diagonal()
        .permute(result.perm.perm)
    )
    if not (
        np.array_equal(fresh.colptr, result.pattern.colptr)
        and np.array_equal(np.sort(fresh.rowind), np.sort(result.pattern.rowind))
    ):
        report.add(
            "N500",
            "analysis pattern differs from the permuted symmetrised "
            "input pattern recomputed from the original matrix",
        )
        return report  # everything below would chase a wrong pattern

    # Re-derive the elimination tree + column counts from the pattern.
    parent = elimination_tree(result.pattern)
    post = postorder(parent)
    counts = column_counts(result.pattern, parent, post)
    nnz_cc = int(counts.sum())

    # N501: nnz(L).
    nnz_sym = sym.nnz()
    if exact and nnz_sym != nnz_cc:
        report.add(
            "N501",
            f"symbol.nnz() = {nnz_sym} but the column-count sum is "
            f"{nnz_cc} (no amalgamation: they must agree exactly)",
        )
    elif not exact and nnz_sym < nnz_cc:
        report.add(
            "N501",
            f"symbol.nnz() = {nnz_sym} is below the column-count sum "
            f"{nnz_cc}: amalgamation may only add structural fill",
        )

    # N502: per-column counts panel by panel.
    n_bad = 0
    widths = np.diff(sym.cblk_ptr).astype(np.int64)
    heights = np.array(
        [sym.cblk_height(k) for k in range(sym.n_cblk)], dtype=np.int64
    )
    for k in range(sym.n_cblk):
        f = int(sym.cblk_ptr[k])
        stored = heights[k] - np.arange(widths[k], dtype=np.int64)
        derived = counts[f: f + int(widths[k])]
        bad = (
            np.flatnonzero(stored != derived)
            if exact
            else np.flatnonzero(stored < derived)
        )
        if bad.size:
            n_bad += int(bad.size)
            j = int(bad[0])
            report.add(
                "N502",
                f"panel {k}, column {f + j}: structure stores "
                f"{int(stored[j])} entries {'!=' if exact else '<'} "
                f"re-derived count {int(derived[j])}",
            )
    report.stats["column_mismatches"] = n_bad
    report.stats["n"] = n
    report.stats["n_cblk"] = sym.n_cblk
    report.stats["nnz_colcount"] = nnz_cc
    report.stats["nnz_symbol"] = nnz_sym
    return report


# ----------------------------------------------------------------------
# DAG-cost audit
# ----------------------------------------------------------------------
def derive_couples_by_target(
    symbol: SymbolMatrix,
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Update couples enumerated per *target* via the facing index.

    Returns ``{(src, tgt): [(m, n), ...]}``.  The builder enumerates
    couples per source panel by walking each panel's blok list; here we
    walk ``face_ptr``/``face_list`` (the in-edges of each target) and
    rebuild the same couples from the opposite direction, so a bug in
    either traversal shows up as a disagreement.
    """
    sizes = (symbol.blok_lrow - symbol.blok_frow).astype(np.int64)
    # Rows of owner k at-and-after blok b (the GEMM m dimension).
    suffix = np.empty(symbol.n_blok, dtype=np.int64)
    for k in range(symbol.n_cblk):
        b0, b1 = int(symbol.blok_ptr[k]), int(symbol.blok_ptr[k + 1])
        suffix[b0:b1] = np.cumsum(sizes[b0:b1][::-1])[::-1]

    couples: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t in range(symbol.n_cblk):
        prev_b, prev_owner = -2, -1
        for b in symbol.facing_bloks(t):
            b = int(b)
            k = int(symbol.blok_owner[b])
            if b == prev_b + 1 and prev_owner == k:
                # Consecutive blok of the same run: extend the couple.
                m, nn = couples[(k, t)][-1]
                couples[(k, t)][-1] = (m, nn + int(sizes[b]))
            else:
                couples.setdefault((k, t), []).append(
                    (int(suffix[b]), int(sizes[b]))
                )
            prev_b, prev_owner = b, k
    return couples


def verify_dag_costs(
    dag: TaskDAG,
    *,
    dtype=np.float64,
) -> Report:
    """Audit ``dag``'s per-task flop/GEMM annotations against the symbol."""
    report = Report("dag-costs")
    sym = dag.symbol
    if sym is None:
        report.add("N505", "DAG carries no symbol; cannot re-derive costs")
        return report
    mult = complex_multiplier(dtype)
    widths = np.diff(sym.cblk_ptr).astype(np.int64)
    below = np.array(
        [sym.cblk_below(k) for k in range(sym.n_cblk)], dtype=np.int64
    )
    couples = derive_couples_by_target(sym)
    n_couples = sum(len(v) for v in couples.values())

    # Totals, accepted under either LDLᵀ update convention.
    panel_total = mult * sum(
        flops_panel(int(widths[k]), int(below[k]), dag.factotype)
        for k in range(sym.n_cblk)
    )
    upd_totals = []
    for recompute_ld in (False, True):
        upd_totals.append(
            mult
            * sum(
                flops_update(m, nn, int(widths[s]), dag.factotype,
                             recompute_ld=recompute_ld)
                for (s, t), mns in couples.items()
                for (m, nn) in mns
            )
        )
    dag_total = float(dag.flops.sum())
    if not any(_close(dag_total, panel_total + u) for u in upd_totals):
        report.add(
            "N506",
            f"DAG total flops {dag_total:.6g} matches neither "
            f"re-derived total ({panel_total + upd_totals[0]:.6g} or "
            f"{panel_total + upd_totals[1]:.6g} with recompute_ld)",
        )
    report.stats["tasks"] = dag.n_tasks
    report.stats["couples"] = n_couples
    report.stats["dag_flops"] = dag_total

    # Per-task checks only make sense for plain 2D DAGs (1d and fused
    # variants aggregate many kernels per task; the total check above
    # still covers them).
    is_update = dag.kind == TaskKind.UPDATE
    n_upd_tasks = int(is_update.sum())
    if dag.granularity != "2d" or TaskKind.SUBTREE in dag.kind:
        return report

    if n_upd_tasks != n_couples:
        report.add(
            "N505",
            f"DAG has {n_upd_tasks} update tasks but the facing index "
            f"enumerates {n_couples} couples",
        )

    remaining = {key: list(v) for key, v in couples.items()}
    n_before = report.count()
    for t in range(dag.n_tasks):
        kind = TaskKind(int(dag.kind[t]))
        if kind == TaskKind.PANEL:
            k = int(dag.cblk[t])
            expect = mult * flops_panel(int(widths[k]), int(below[k]),
                                        dag.factotype)
            if not _close(float(dag.flops[t]), expect):
                report.add(
                    "N504",
                    f"panel task {t} (panel {k}) annotates "
                    f"{float(dag.flops[t]):.6g} flops; structure says "
                    f"{expect:.6g}",
                    tasks=(t,),
                )
        elif kind == TaskKind.UPDATE:
            s, tg = int(dag.cblk[t]), int(dag.target[t])
            m, nn, kk = int(dag.gemm_m[t]), int(dag.gemm_n[t]), int(dag.gemm_k[t])
            mns = remaining.get((s, tg), [])
            if (m, nn) not in mns:
                report.add(
                    "N505",
                    f"update task {t} ({s} -> {tg}, GEMM {m}x{nn}x{kk}) "
                    "matches no couple in the facing index",
                    tasks=(t,),
                )
                continue
            mns.remove((m, nn))
            if kk != int(widths[s]):
                report.add(
                    "N504",
                    f"update task {t} ({s} -> {tg}) has gemm_k={kk} but "
                    f"panel {s} is {int(widths[s])} wide",
                    tasks=(t,),
                )
                continue
            expected = [
                mult * flops_update(m, nn, kk, dag.factotype,
                                    recompute_ld=r)
                for r in (False, True)
            ]
            if not any(_close(float(dag.flops[t]), e) for e in expected):
                report.add(
                    "N504",
                    f"update task {t} ({s} -> {tg}) annotates "
                    f"{float(dag.flops[t]):.6g} flops; the cost model on "
                    f"the re-derived GEMM {m}x{nn}x{kk} says "
                    f"{expected[0]:.6g}",
                    tasks=(t,),
                )
    # At most one per-task finding per task.
    report.stats["flop_mismatches"] = report.count() - n_before
    leftovers = sum(len(v) for v in remaining.values())
    if leftovers:
        pair = next(key for key, v in remaining.items() if v)
        report.add(
            "N505",
            f"{leftovers} couple(s) in the facing index have no DAG "
            f"update task (first: {pair[0]} -> {pair[1]})",
        )
    return report


# ----------------------------------------------------------------------
# Couple-index-cache audit
# ----------------------------------------------------------------------
def verify_couple_cache(symbol: SymbolMatrix, cache) -> Report:
    """Audit a :class:`repro.kernels.indexcache.CoupleMapCache`.

    The cache's scatter maps steer every numeric scatter-add, so a
    stale or corrupted entry writes contributions to the wrong factor
    entries while every schedule still looks feasible.  This re-derives
    each map from ``symbol`` through primitives disjoint from the
    builder's (``count_nonzero`` for the slice bounds, ``isin`` +
    ``flatnonzero`` for the row maps — the builder uses
    ``searchsorted``), and re-enumerates the couple set per *target*
    through the facing index (the builder walks per source).
    """
    report = Report("couple-cache")
    ptr = symbol.cblk_ptr
    rows_of = [symbol.cblk_rows(k) for k in range(symbol.n_cblk)]

    # N508: coverage — cached couples vs the facing-index enumeration.
    derived = derive_couples_by_target(symbol)
    want = set(derived.keys())
    pairs = list(zip(cache.src.tolist(), cache.tgt.tolist()))
    have = set(pairs)
    if len(have) != len(pairs):
        report.add("N508", "cache lists a couple more than once")
    for k, t in sorted(have - want):
        report.add(
            "N508",
            f"cache holds couple {k} -> {t} but the facing index "
            "enumerates no such couple",
        )
    for k, t in sorted(want - have):
        report.add(
            "N508",
            f"facing index enumerates couple {k} -> {t} but the cache "
            "has no map for it",
        )
    for k in range(symbol.n_cblk):
        expect = np.sort(np.array(
            [t for (s, t) in sorted(want) if s == k], dtype=np.int64
        ))
        got = np.sort(np.asarray(cache.facing[k], dtype=np.int64))
        if not np.array_equal(expect, got):
            report.add(
                "N508",
                f"panel {k}'s cached facing list {got.tolist()} differs "
                f"from the facing-index targets {expect.tolist()}",
            )

    # The fan-in lists: per target, its sources in ascending order (the
    # order fixes the floating-point reduction of the left-looking
    # factorization and solve) — as the native kernel walks them
    # (``tgt_ptr`` ranges of ``src``) and as the solve reads them
    # (``sources``).
    by_target: dict[int, list[int]] = {}
    for k, t in sorted(want):
        by_target.setdefault(t, []).append(k)
    for t in range(symbol.n_cblk):
        for what, got_src in (
            ("source range", cache.source_ids(t)),
            ("source list", [entry[0] for entry in cache.sources[t]]),
        ):
            if got_src != by_target.get(t, []):
                report.add(
                    "N508",
                    f"panel {t}'s cached {what} {got_src} differs from "
                    f"the facing-index sources {by_target.get(t, [])}",
                )

    # N507: per-couple map contents, re-derived by different means.
    n_bad = 0
    for c, (k, t) in enumerate(pairs):
        if (k, t) not in want:
            continue
        i0c, i1c = int(cache.i0[c]), int(cache.i1[c])
        rows_c = cache.rows_local[cache.rl_ptr[c]: cache.rl_ptr[c + 1]]
        w = symbol.cblk_width(k)
        rk = rows_of[k][w:]
        i0 = int(np.count_nonzero(rk < ptr[t]))
        i1 = int(np.count_nonzero(rk < ptr[t + 1]))
        rows_t = rows_of[t]
        exp_rows = np.flatnonzero(np.isin(rows_t, rk[i0:]))
        exp_cols = rk[i0:i1] - ptr[t]
        bad = (
            i0c != i0
            or i1c != i1
            or not np.array_equal(rows_c, exp_rows)
            or not np.array_equal(rows_c[: i1 - i0], exp_cols)
        )
        if bad:
            n_bad += 1
            report.add(
                "N507",
                f"couple {k} -> {t}: cached maps (i0={i0c}, "
                f"i1={i1c}, {rows_c.size} tail rows) disagree with "
                f"the re-derivation (i0={i0}, i1={i1}, "
                f"{rk.size - i0} tail rows) or the row/column maps "
                "differ",
            )
    report.stats["couples_cached"] = len(have)
    report.stats["couples_derived"] = len(want)
    report.stats["map_mismatches"] = n_bad
    return report


# ----------------------------------------------------------------------
# Fault injection (for --inject self-tests)
# ----------------------------------------------------------------------
def stale_couple_map(cache) -> tuple[object, tuple[int, int]]:
    """Return a corrupted clone of ``cache`` (stale-map injection).

    Shifts one entry of the largest couple's ``rows_local`` by one —
    exactly the drift a symbol rebuilt after a cache was attached would
    produce, and the corruption N507 exists to catch.  Returns the
    corrupted cache and the affected couple.
    """
    if not cache.n_couples:
        raise ValueError("cache holds no couples to corrupt")
    c = int(np.argmax(np.diff(cache.rl_ptr)))
    out = cache.clone()
    out.rows_local[(out.rl_ptr[c] + out.rl_ptr[c + 1]) // 2] += 1
    return out, (int(out.src[c]), int(out.tgt[c]))


def skew_flops(dag: TaskDAG) -> tuple[TaskDAG, int]:
    """Return a copy of ``dag`` with one update task's flops skewed.

    Picks the largest update task and multiplies its flop annotation by
    1.5 — exactly the drift N504 exists to catch.  Returns the corrupted
    DAG and the task id.
    """
    is_update = dag.kind == TaskKind.UPDATE
    if not is_update.any():
        raise ValueError("DAG has no update tasks to skew")
    t = int(np.flatnonzero(is_update)[np.argmax(dag.flops[is_update])])
    flops = dag.flops.copy()
    flops[t] *= 1.5
    return dag.copy(flops=flops), t
