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
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split every supernode wider than ``max_width`` into near-equal
    panels.  Returns the new ``(snptr, rowsets)``."""
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    snptr = np.asarray(snptr)
    widths = np.diff(snptr).astype(np.int64)
    # Panels per supernode: enough for max_width, at most one column each.
    m = np.minimum(-(-widths // max_width), widths)
    # Only the supernodes that split take the loop; the runs between
    # them keep their bounds and rowsets as they are.
    bounds: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    new_rowsets: list[np.ndarray] = []
    prev = 0
    for k in np.flatnonzero(m > 1).tolist():
        bounds.append(snptr[prev + 1:k + 1])
        new_rowsets.extend(rowsets[prev:k])
        f, l, mk = int(snptr[k]), int(snptr[k + 1]), int(m[k])
        # Near-equal widths: the first (w % m) panels get one extra column.
        base, extra = divmod(l - f, mk)
        ends = f + np.cumsum(base + (np.arange(mk) < extra))
        bounds.append(ends)
        for end in ends[:-1].tolist():
            new_rowsets.append(np.concatenate(
                [np.arange(end, l, dtype=np.int64), rowsets[k]]))
        new_rowsets.append(rowsets[k])
        prev = k + 1
    bounds.append(snptr[prev + 1:])
    new_rowsets.extend(rowsets[prev:])
    return np.concatenate(bounds).astype(np.int64), new_rowsets
