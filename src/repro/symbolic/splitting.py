"""Panel splitting.

Wide supernodes — the separators at the top of the elimination tree, of
order :math:`N^{2/3}` columns for 3D problems — would serialise the whole
factorization if kept as single tasks.  The paper splits them vertically
during analysis ("supernodes of the higher levels are split vertically
prior to the factorization to limit the task granularity and create more
parallelism", §III), which also provides the classic look-ahead pipeline
on heterogeneous runs (§V-B).

Splitting supernode ``[f, l)`` with below-rows ``R`` into panels
``P_1 … P_m`` gives panel ``P_i`` the rowset ``cols(P_{i+1..m}) ∪ R`` —
after which panels are ordinary cblks and the downstream machinery needs
no special casing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["split_supernodes"]


def split_supernodes(
    snptr: np.ndarray,
    rowsets: list[np.ndarray],
    *,
    max_width: int = 128,
    min_panels: int = 1,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split every supernode wider than ``max_width`` into near-equal panels.

    ``min_panels`` forces at least that many panels for any splittable
    supernode (used by ablations to over-decompose).  Returns the new
    ``(snptr, rowsets)``.
    """
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    K = snptr.size - 1
    new_bounds: list[int] = [0]
    new_rowsets: list[np.ndarray] = []
    for k in range(K):
        f, l = int(snptr[k]), int(snptr[k + 1])
        w = l - f
        m = max(min_panels if w > max_width or min_panels > 1 else 1,
                -(-w // max_width))
        m = min(m, w)  # at most one column per panel
        if m == 1:
            new_bounds.append(l)
            new_rowsets.append(rowsets[k])
            continue
        # Near-equal widths: the first (w % m) panels get one extra column.
        base, extra = divmod(w, m)
        start = f
        for i in range(m):
            width = base + (1 if i < extra else 0)
            end = start + width
            if end < l:
                tail = np.arange(end, l, dtype=np.int64)
                rows = np.concatenate([tail, rowsets[k]])
            else:
                rows = rowsets[k]
            new_bounds.append(end)
            new_rowsets.append(rows)
            start = end
        assert start == l
    return np.asarray(new_bounds, dtype=np.int64), new_rowsets

