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


def panel_factorize(factor, k: int, *, diagonal_only: bool = False) -> None:
    """Factorize panel ``k`` in place (diagonal block + panel TRSM).

    ``diagonal_only`` factors the diagonal block (and sets ``D``) but
    leaves the rows below it alone: a split panel's diagonal task, whose
    row-block tasks solve their own rows
    (:func:`repro.kernels.native.factorize_block`).
    """
    sym = factor.symbol
    w = sym.cblk_width(k)
    Lk = factor.L[k]
    diag = Lk[:w, :w]
    monitor = getattr(factor, "pivot_monitor", None)
    below = Lk.shape[0] > w and not diagonal_only

    if factor.factotype == "llt":
        ld = potrf(diag)
        Lk[:w, :w] = np.tril(ld)
        if below:
            Lk[w:, :] = trsm_lower_right(ld, Lk[w:, :])
    elif factor.factotype == "ldlt":
        ld, d = ldlt_nopiv(diag, monitor)
        Lk[:w, :w] = ld
        factor.D[k][:] = d   # in place: D[k] is a view of the arena
        if below:
            # L21 = A21 · L11^{-T} · D^{-1}
            Lk[w:, :] = trsm_lower_right(ld, Lk[w:, :], unit=True) / d
    elif factor.factotype == "lu":
        lu = getrf_nopiv(diag, monitor)
        Lk[:w, :w] = lu  # packed L\U diagonal block
        Uk = factor.U[k]
        if below:
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


def panel_update_compute(factor, k: int, t: int):
    """Compute half of the workspace update: the GEMM, no writes.

    Forms panel ``k``'s contribution to facing panel ``t`` in contiguous
    temporaries ("the outer product is computed in a contiguous
    temporary buffer").  Reads only panel ``k``'s numerics and ``t``'s
    *static* row structure — never ``t``'s values.

    Returns ``None`` when ``k`` does not actually face ``t``, else an
    opaque parts tuple for :func:`panel_update_scatter`.

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
    i0, i1, rows_local, cols_local, _rk_size = maps
    Lk = factor.L[k]

    a_tail = Lk[w + i0:, :]
    b_mid = _facing_operand(factor, k, w, i0, i1)
    contrib = a_tail @ b_mid.T

    rows_local_u = None
    contrib_u = None
    nn = i1 - i0
    if factor.factotype == "lu" and rows_local.size > nn:
        # U-side update: strictly-below rows of the target's U panel —
        # tail rows past the facing slice.  Its row map is the tail of
        # the L-side map — no second searchsorted.
        u_tail = factor.U[k][w + i1:, :]
        l_mid = Lk[w + i0: w + i1, :]
        rows_local_u = rows_local[nn:]
        contrib_u = u_tail @ l_mid.T
    return rows_local, cols_local, contrib, rows_local_u, contrib_u


def panel_update_scatter(factor, t: int, parts) -> None:
    """Scatter half: dispatch a precomputed contribution into ``t``.

    ``parts`` comes from :func:`panel_update_compute`.  This is the only
    half that writes panel ``t``.
    """
    rows_local, cols_local, contrib, rows_local_u, contrib_u = parts
    factor.L[t][np.ix_(rows_local, cols_local)] -= contrib
    if contrib_u is not None:
        factor.U[t][np.ix_(rows_local_u, cols_local)] -= contrib_u


def _facing_operand(factor, k: int, w: int, i0: int, i1: int):
    """The right operand of couple ``(k, ·)``'s GEMM: ``k``'s facing
    rows ``[i0, i1)`` of its tail — times ``D`` for LDLᵀ, from ``U`` for
    LU."""
    if factor.factotype == "lu":
        return factor.U[k][w + i0: w + i1, :]
    b_mid = factor.L[k][w + i0: w + i1, :]
    if factor.factotype == "ldlt":
        b_mid = b_mid * factor.D[k]
    return b_mid


def panel_update(factor, k: int, t: int) -> None:
    """Apply the update of factorized panel ``k`` onto facing panel ``t``.

    The outer product is computed into a contiguous temporary and
    scattered afterwards (the paper's CPU strategy,
    :func:`panel_update_compute` + :func:`panel_update_scatter`).
    """
    parts = panel_update_compute(factor, k, t)
    if parts is not None:
        panel_update_scatter(factor, t, parts)
