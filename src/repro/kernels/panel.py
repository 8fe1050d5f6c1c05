"""Supernodal panel kernels.

The two task bodies of the factorization DAG (paper §V):

* :func:`panel_factorize` — factorize a panel's diagonal block and apply
  the TRSM to its off-diagonal rows (one task per cblk);
* :func:`panel_update` — apply a factorized panel's contribution to one
  facing panel: the sparse GEMM with scatter into the gappy destination
  (one task per (panel, facing panel) couple).

Both operate in place on a :class:`repro.core.factor.NumericFactor`-like
object (duck-typed: ``L``, ``U``, ``D``, ``rows``, ``symbol``,
``factotype`` attributes), so they are equally callable from the
sequential driver, the threaded runtime, and the tests.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dense import (
    getrf_nopiv,
    ldlt_nopiv,
    potrf,
    triangular_solve,
    trsm_lower_right,
    trsm_unit_lower_left,
)

__all__ = [
    "panel_factorize",
    "panel_update",
    "panel_update_compute",
    "panel_update_scatter",
    "update_slice",
]


def panel_factorize(factor, k: int) -> None:
    """Factorize panel ``k`` in place (diagonal block + panel TRSM)."""
    sym = factor.symbol
    w = sym.cblk_width(k)
    Lk = factor.L[k]
    diag = Lk[:w, :w]
    monitor = getattr(factor, "pivot_monitor", None)

    if factor.factotype == "llt":
        ld = potrf(diag)
        Lk[:w, :w] = np.tril(ld)
        if Lk.shape[0] > w:
            Lk[w:, :] = trsm_lower_right(ld, Lk[w:, :])
    elif factor.factotype == "ldlt":
        ld, d = ldlt_nopiv(diag, monitor)
        Lk[:w, :w] = ld
        factor.D[k][:] = d   # in place: D[k] is a view of the arena
        if Lk.shape[0] > w:
            # L21 = A21 · L11^{-T} · D^{-1}
            Lk[w:, :] = trsm_lower_right(ld, Lk[w:, :], unit=True) / d
        if getattr(factor, "dl_buffer", False):
            # Persistent DLᵀ buffer (PaStiX's native LDLᵀ update path):
            # (L·D) for the whole tail is formed once here, so no update
            # task ever recomputes it.  The generic-runtime variant the
            # paper penalizes in Figure 2 is dl_buffer=False.
            factor.DL[k] = Lk[w:, :] * d
    elif factor.factotype == "lu":
        lu = getrf_nopiv(diag, monitor)
        Lk[:w, :w] = lu  # packed L\U diagonal block
        Uk = factor.U[k]
        if Lk.shape[0] > w:
            # L21 = A21 · U11^{-1}  ⇔  U11ᵀ · L21ᵀ = A21ᵀ
            # (only lu's upper triangle, U11, is read)
            Lk[w:, :] = triangular_solve(
                lu, Lk[w:, :].T, lower=False, trans=True
            ).T
            # U12ᵀ = A12ᵀ · L11^{-T}  (unit lower diagonal)
            Uk[w:, :] = trsm_lower_right(lu, Uk[w:, :], unit=True)
    else:
        raise ValueError(f"unknown factotype {factor.factotype!r}")


def update_slice(factor, k: int, t: int) -> tuple[int, int, np.ndarray]:
    """Locate panel ``k``'s rows facing panel ``t``.

    Returns ``(i0, i1, rk)`` where ``rk`` is ``k``'s below-diagonal global
    row array and ``rk[i0:i1]`` the (contiguous) slice of rows inside
    ``t``'s column range.
    """
    sym = factor.symbol
    w = sym.cblk_width(k)
    rk = factor.rows[k][w:]
    f_t, l_t = int(sym.cblk_ptr[t]), int(sym.cblk_ptr[t + 1])
    i0 = int(np.searchsorted(rk, f_t))
    i1 = int(np.searchsorted(rk, l_t))
    return i0, i1, rk


def _update_maps(factor, k: int, t: int):
    """Scatter maps of couple ``(k, t)``: cached lookup or fallback.

    Returns ``None`` when ``k`` does not face ``t``, else
    ``(i0, i1, rows_local, cols_local, rk_size)`` — what
    :meth:`repro.kernels.indexcache.CoupleMapCache.lookup` returns.

    The uncached fallback exploits the target's layout instead of binary
    searching the whole tail: the facing rows ``rk[i0:i1]`` land in the
    target's diagonal block, whose factor-row positions are contiguous
    (``rows[t][:w_t] == arange(f_t, l_t)``), so their local rows *are*
    the column map ``rk[i0:i1] - f_t`` — no search.  Only the
    strictly-below tail ``rk[i1:]`` needs a ``searchsorted``, and only
    against the target's below-diagonal rows.  The resulting arrays are
    bit-identical to a full ``searchsorted(rows[t], rk[i0:])``.
    """
    cache = getattr(factor, "index_cache", None)
    if cache is not None:
        return cache.lookup(k, t)
    i0, i1, rk = update_slice(factor, k, t)
    if i0 == i1:
        return None  # k does not actually face t
    sym = factor.symbol
    w_t = sym.cblk_width(t)
    cols_local = (rk[i0:i1] - sym.cblk_ptr[t]).astype(np.int64, copy=False)
    tail = np.searchsorted(factor.rows[t][w_t:], rk[i1:]).astype(
        np.int64, copy=False
    )
    rows_local = np.concatenate([cols_local, tail + w_t])
    return i0, i1, rows_local, cols_local, int(rk.size)


def panel_update_compute(factor, k: int, t: int, part=None):
    """Compute half of the workspace update: the GEMM, no writes.

    Forms panel ``k``'s contribution to facing panel ``t`` in contiguous
    temporaries ("the outer product is computed in a contiguous
    temporary buffer").  Reads only panel ``k``'s numerics and ``t``'s
    *static* row structure — never ``t``'s values — so concurrent
    callers may run it without holding ``t``'s mutex.  The threaded
    runtime's lock narrowing hinges on that: the expensive GEMM happens
    outside the panel lock, and only the cheap scatter-add
    (:func:`panel_update_scatter`) serializes.

    Returns ``None`` when ``k`` does not actually face ``t``, else an
    opaque parts tuple for :func:`panel_update_scatter`.

    ``part=(lo, hi)`` restricts the contribution to tail rows
    ``rk[i0+lo : i0+hi]`` — one row-block of a 2D-split update (see
    :func:`repro.symbolic.splitting.plan_update_rowblocks`).  The parts
    of a tiling of ``[0, m)`` sum to exactly the unsplit contribution.

    When the factor carries a couple index cache
    (:class:`repro.kernels.indexcache.CoupleMapCache`, attached as
    ``factor.index_cache``) the symbolic bookkeeping — both
    ``searchsorted`` maps and the column rebase — is looked up instead
    of recomputed, leaving only the GEMM; the maps are identical arrays,
    so cached and uncached runs produce bit-identical factors.
    """
    sym = factor.symbol
    w = sym.cblk_width(k)
    maps = _update_maps(factor, k, t)
    if maps is None:
        return None  # k does not actually face t
    i0, i1, rows_local, cols_local, rk_size = maps
    Lk = factor.L[k]

    lo, hi = (0, rk_size - i0) if part is None else (int(part[0]), int(part[1]))
    a_tail = Lk[w + i0 + lo: w + i0 + hi, :]
    rows_part = rows_local[lo:hi]
    b_mid = Lk[w + i0: w + i1, :]
    if factor.factotype == "ldlt":
        DL = getattr(factor, "DL", None)
        if DL is not None and DL[k] is not None:
            # Persistent DLᵀ buffer filled at panel_factorize time.
            b_mid = DL[k][i0:i1, :]
        else:
            # Recompute (L·D) for the facing rows — the generic-runtime
            # variant the paper discusses (no persistent DLᵀ buffer).
            b_mid = b_mid * factor.D[k]
    elif factor.factotype == "lu":
        b_mid = factor.U[k][w + i0: w + i1, :]

    contrib = a_tail @ b_mid.T

    rows_local_u = None
    contrib_u = None
    nn = i1 - i0
    if factor.factotype == "lu" and hi > nn:
        # U-side update: strictly-below rows of the target's U panel —
        # tail rows past the facing slice, clipped to this part.  Its
        # row map is the tail of the L-side map — no second searchsorted.
        u0 = max(lo, nn)
        u_tail = factor.U[k][w + i0 + u0: w + i0 + hi, :]
        l_mid = Lk[w + i0: w + i1, :]
        rows_local_u = rows_local[u0:hi]
        contrib_u = u_tail @ l_mid.T
    return rows_part, cols_local, contrib, rows_local_u, contrib_u


def panel_update_scatter(factor, t: int, parts) -> None:
    """Scatter half: dispatch a precomputed contribution into ``t``.

    ``parts`` comes from :func:`panel_update_compute`.  This is the only
    half that writes panel ``t``, so concurrent callers must hold ``t``'s
    mutex around *this call only*.
    """
    rows_local, cols_local, contrib, rows_local_u, contrib_u = parts
    factor.L[t][np.ix_(rows_local, cols_local)] -= contrib
    if contrib_u is not None:
        factor.U[t][np.ix_(rows_local_u, cols_local)] -= contrib_u


def panel_update(
    factor, k: int, t: int, *, workspace: bool = True, part=None
) -> None:
    """Apply the update of factorized panel ``k`` onto facing panel ``t``.

    ``workspace=True`` computes the outer product into a contiguous
    temporary and scatters it afterwards (the paper's CPU strategy,
    split into :func:`panel_update_compute` + :func:`panel_update_scatter`
    so the threaded runtime can lock only the scatter);
    ``workspace=False`` routes through the blok-wise direct-scatter kernel
    (the GPU-style kernel twin, see :mod:`repro.kernels.sparse_gemm`).

    When the factor requests the compiled backend
    (``factor.kernels == "compiled"`` and numba is importable), the
    workspace path runs the fused compute+scatter kernel instead —
    callers must then hold ``t``'s mutex around the whole call, as with
    ``workspace=False``.

    ``part=(lo, hi)`` applies one row-block of a 2D-split update (see
    :func:`panel_update_compute`).
    """
    if workspace:
        from repro.kernels import compiled

        if (
            getattr(factor, "kernels", "numpy") == "compiled"
            and compiled.HAVE_NUMBA
        ):
            compiled.panel_update_fused(factor, k, t, part=part)
            return
        parts = panel_update_compute(factor, k, t, part=part)
        if parts is not None:
            panel_update_scatter(factor, t, parts)
        return

    sym = factor.symbol
    w = sym.cblk_width(k)
    maps = _update_maps(factor, k, t)
    if maps is None:
        return  # k does not actually face t
    i0, i1, rows_local, cols_local, rk_size = maps
    Lk = factor.L[k]

    lo, hi = (0, rk_size - i0) if part is None else (int(part[0]), int(part[1]))
    a_tail = Lk[w + i0 + lo: w + i0 + hi, :]
    b_mid = Lk[w + i0: w + i1, :]
    if factor.factotype == "ldlt":
        DL = getattr(factor, "DL", None)
        if DL is not None and DL[k] is not None:
            b_mid = DL[k][i0:i1, :]
        else:
            b_mid = b_mid * factor.D[k]
    elif factor.factotype == "lu":
        b_mid = factor.U[k][w + i0: w + i1, :]

    from repro.kernels.sparse_gemm import sparse_gemm_scatter

    sparse_gemm_scatter(
        a_tail, b_mid, factor.L[t], rows_local[lo:hi], cols_local
    )

    nn = i1 - i0
    if factor.factotype == "lu" and hi > nn:
        u0 = max(lo, nn)
        u_tail = factor.U[k][w + i0 + u0: w + i0 + hi, :]
        l_mid = Lk[w + i0: w + i1, :]
        sparse_gemm_scatter(
            u_tail, l_mid, factor.U[t], rows_local[u0:hi], cols_local
        )
