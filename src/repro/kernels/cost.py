"""Flop-count models.

These feed three consumers: the performance figures (GFlop/s = paper
flops / measured-or-simulated time), the native scheduler's static cost
model, and the machine simulator's kernel durations.  Counts follow the
standard LAPACK working notes conventions; complex arithmetic costs 4×
the real flops (a complex multiply-add is 4 real multiplies + 4 adds,
conventionally counted as a factor 4 on fused counts, as the paper's
Table I TFlop column does).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "complex_multiplier",
    "flops_potrf",
    "flops_ldlt",
    "flops_getrf",
    "flops_trsm",
    "flops_gemm",
    "flops_panel",
    "flops_update",
    "flops_rows",
    "flops_update_rows",
    "flops_component",
    "flops_total",
    "index_overhead_flops",
    "panel_bytes",
]

#: Flop-equivalents charged per scalar index operation (a searchsorted
#: comparison step or an index copy/rebase).  Integer bookkeeping is
#: branchy and cache-unfriendly next to a BLAS GEMM, so one "op" is
#: modelled as several flop-equivalents; 8 matches the measured ratio of
#: the uncached index work to GEMM throughput on the bench hosts.
INDEX_OP_FLOPS = 8.0


def complex_multiplier(dtype) -> int:
    """4 for complex dtypes, 1 for real."""
    return 4 if np.issubdtype(np.dtype(dtype), np.complexfloating) else 1


def panel_bytes(symbol, dtype=np.float64, factotype: str = "llt") -> np.ndarray:
    """Per-panel storage in bytes (length ``n_cblk``, float64 array).

    LU panels carry both the L and U sides, so they cost twice the
    entries of a Cholesky/LDLᵀ panel.  This is the unit of host↔device
    traffic: a panel always crosses the PCIe link whole (the simulator
    and the M4xx memory auditor must agree on it).
    """
    widths = np.diff(symbol.cblk_ptr).astype(np.int64)
    heights = np.array(
        [symbol.cblk_height(k) for k in range(symbol.n_cblk)], dtype=np.int64
    )
    per_entry = np.dtype(dtype).itemsize * (2 if factotype == "lu" else 1)
    return (heights * widths * per_entry).astype(np.float64)


def flops_potrf(w: int) -> float:
    """Cholesky of a ``w×w`` block: w³/3 + w²/2 + w/6."""
    return w**3 / 3.0 + w**2 / 2.0 + w / 6.0


def flops_ldlt(w: int) -> float:
    """LDLᵀ of a ``w×w`` block (same cubic term as Cholesky)."""
    return w**3 / 3.0 + w**2


def flops_getrf(w: int) -> float:
    """LU of a ``w×w`` block: 2w³/3 − w²/2 − w/6."""
    return 2.0 * w**3 / 3.0 - w**2 / 2.0 - w / 6.0


def flops_trsm(w: int, h: int) -> float:
    """Triangular solve of an ``h×w`` panel against a ``w×w`` triangle."""
    return 1.0 * h * w * w


def flops_gemm(m: int, n: int, k: int) -> float:
    """``m×n`` += ``m×k`` · ``k×n``: 2mnk."""
    return 2.0 * m * n * k


def flops_panel(w: int, below: int, factotype: str) -> float:
    """One panel task: diagonal factorization + panel TRSM(s).

    ``below`` is the number of rows under the diagonal block.  LU panels
    do the TRSM twice (L and U sides); LDLᵀ adds the D scaling.  Like
    :func:`flops_update` this also takes integer arrays (one entry per
    task) and then returns the per-task counts — bit-identical to the
    scalar calls, which is how the DAG builder costs a whole symbol.
    """
    if factotype == "llt":
        return flops_potrf(w) + flops_trsm(w, below)
    if factotype == "ldlt":
        return flops_ldlt(w) + flops_trsm(w, below) + 1.0 * w * below
    if factotype == "lu":
        return flops_getrf(w) + 2.0 * flops_trsm(w, below)
    raise ValueError(f"unknown factotype {factotype!r}")


def flops_update(
    m: int, n: int, w: int, factotype: str, *, recompute_ld: bool = True
) -> float:
    """One update task from a panel of width ``w``.

    ``n`` is the number of source rows facing the target panel, ``m`` the
    number of source rows at-and-after the first facing row (so the GEMM
    is ``m×n×w``).  For LU, the U-side GEMM covers the strictly-below part
    (``(m-n)×n×w``).  For LDLᵀ, ``recompute_ld`` adds the ``n·w``
    multiplies of rebuilding ``(L·D)`` inside each update — the overhead
    the paper attributes to the generic runtimes, which cannot afford
    PaStiX's per-panel temporary ``DLᵀ`` buffer (§V-A).
    """
    if factotype == "llt":
        return flops_gemm(m, n, w)
    if factotype == "ldlt":
        extra = 1.0 * n * w if recompute_ld else 0.0
        return flops_gemm(m, n, w) + extra
    if factotype == "lu":
        return flops_gemm(m, n, w) + flops_gemm(np.maximum(m - n, 0), n, w)
    raise ValueError(f"unknown factotype {factotype!r}")


def flops_rows(w: int, rows: int, factotype: str) -> float:
    """The below-diagonal part of :func:`flops_panel` for ``rows`` of its
    rows: the TRSM(s), and for LDLᵀ the ``D⁻¹`` scaling — what a
    row-block task solves.  Linear in ``rows``, so the row blocks of a
    panel sum to ``flops_panel(w, below) - flops_panel(w, 0)``."""
    if factotype == "llt":
        return flops_trsm(w, rows)
    if factotype == "ldlt":
        return flops_trsm(w, rows) + 1.0 * w * rows
    if factotype == "lu":
        return 2.0 * flops_trsm(w, rows)
    raise ValueError(f"unknown factotype {factotype!r}")


def flops_update_rows(rows: int, n: int, w: int, factotype: str) -> float:
    """The share of an update's GEMMs that lands in ``rows`` target rows
    strictly below the target's diagonal block (LU: both sides).  The
    diagonal block's share is ``flops_update(n, n, w)``, which also
    carries the LDLᵀ ``L·D`` rebuild, so the shares sum to
    :func:`flops_update`."""
    if factotype not in ("llt", "ldlt", "lu"):
        raise ValueError(f"unknown factotype {factotype!r}")
    return (2.0 if factotype == "lu" else 1.0) * flops_gemm(rows, n, w)


def flops_component(comp: tuple, factotype: str, *,
                    recompute_ld: bool = True) -> float:
    """Real flops of one kernel component of a fused task
    (:attr:`repro.dag.tasks.TaskDAG.fused_components`): ``("panel", w,
    below)``, ``("update", m, n, w)``, ``("rows", w, rows)`` or
    ``("slice", rows, n, w)``."""
    tag = comp[0]
    if tag == "panel":
        return flops_panel(comp[1], comp[2], factotype)
    if tag == "update":
        return flops_update(comp[1], comp[2], comp[3], factotype,
                            recompute_ld=recompute_ld)
    if tag == "rows":
        return flops_rows(comp[1], comp[2], factotype)
    if tag == "slice":
        return flops_update_rows(comp[1], comp[2], comp[3], factotype)
    raise ValueError(f"unknown kernel component {tag!r}")


def index_overhead_flops(dag) -> np.ndarray:
    """Modelled per-task cost (flop-equivalents) of *uncached* index work.

    Each update task re-derives its scatter maps when no couple index
    cache is attached: two binary searches locate the facing slice, one
    ``searchsorted`` over the ``m`` tail rows maps them into the target
    (each ``log2(h_t)`` comparisons against the target's ``h_t`` factor
    rows), and the column rebase plus the int64 conversions copy
    ``m + n`` indices twice.  With a cache all of it disappears, so the
    replay/simulator duration of an uncached update is its GEMM flops
    *plus* this overhead — the reduced-traffic count the benchmarks'
    ``base`` vs ``opt`` variants compare.  Non-update tasks cost 0.

    Returns a float array of length ``dag.n_tasks``.
    """
    out = np.zeros(dag.n_tasks, dtype=np.float64)
    sym = dag.symbol
    if sym is None or not dag.n_tasks:
        return out
    from repro.dag.tasks import TaskKind

    heights = np.array(
        [sym.cblk_height(k) for k in range(sym.n_cblk)], dtype=np.float64
    )
    is_upd = dag.kind == TaskKind.UPDATE
    if not is_upd.any():
        return out
    m = dag.gemm_m[is_upd].astype(np.float64)
    n = dag.gemm_n[is_upd].astype(np.float64)
    h_t = heights[dag.target[is_upd]]
    searches = (m + 2.0) * np.ceil(np.log2(np.maximum(h_t, 2.0)))
    copies = 2.0 * (m + n)
    out[is_upd] = INDEX_OP_FLOPS * (searches + copies)
    return out


def flops_total(symbol, factotype: str, dtype=np.float64) -> float:
    """Total factorization flops for a :class:`SymbolMatrix`.

    Sums the panel and update tasks exactly as the DAG will execute them
    (with ``recompute_ld=False`` — the canonical count, matching how the
    paper computes GFlop/s from a fixed per-matrix flop count), read off
    the symbol's flat couple plan: one array expression per task kind.
    """
    from repro.kernels.indexcache import get_couple_cache

    plan = get_couple_cache(symbol)
    width, below = plan.layout.width, plan.layout.below
    m = below[plan.src] - plan.i0
    n = (plan.i1 - plan.i0).astype(np.int64)
    total = np.sum(flops_panel(width, below, factotype)) + np.sum(
        flops_update(m, n, width[plan.src], factotype, recompute_ld=False)
    )
    return float(total) * complex_multiplier(dtype)
