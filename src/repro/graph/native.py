"""Native analysis helper: the ordering and symbolic loops as C calls.

``analysis.c`` (next to this file) holds the default nested dissection,
the minimum-degree ordering and the elimination-tree / postorder /
column-count / supernode-row / amalgamation passes, and the plans a
fresh factorization builds from the symbol: the symmetric permutation of
a pattern (:meth:`repro.sparse.csc.SparseMatrixCSC.permute`), the couple
plan (:class:`repro.kernels.indexcache.CoupleMapCache`) and the assembly
map (:class:`repro.core.factor.AssemblyMap`).  :mod:`repro.cbuild`
compiles and caches it on first use; no BLAS or LAPACK is involved.  The
public functions of :mod:`repro.ordering` and :mod:`repro.symbolic`, and
those three classes, ask :func:`library` and call the wrappers below when
it answers, their own Python bodies otherwise — the bodies are the
fallback and the oracle, and the results are identical element for
element.  (The couple plan's bounds check is not here: it is
``native.c``'s, so that the builder and the check stay independent.)

Every array is checked before its pointer crosses (C-contiguous int64,
pointer arrays non-decreasing from 0 to the index count, indices in
range): O(n + nnz) and vectorised.  The C side keeps no state between
calls and ctypes releases the GIL for each.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import cbuild
from repro.cbuild import NativeUnavailable

__all__ = [
    "amalgamate",
    "assembly_map",
    "availability",
    "column_counts",
    "couple_plan",
    "elimination_tree",
    "library",
    "minimum_degree",
    "nested_dissection",
    "permute_pattern",
    "postorder",
    "supernode_rows",
]

SOURCE = Path(__file__).with_name("analysis.c")

#: ``analysis.c``'s status codes.
_NO_MEMORY, _INCONSISTENT, _MISSING = -1, -2, -3

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_SIGNATURES = {
    "repro_nested_dissection": [_I64, _PTR, _PTR, _PTR, _I64, _PTR],
    "repro_minimum_degree": [_I64, _PTR, _PTR, _PTR],
    "repro_etree": [_I64, _PTR, _PTR, _PTR],
    "repro_postorder": [_I64, _PTR, _PTR],
    "repro_column_counts": [_I64, _PTR, _PTR, _PTR, _PTR, _PTR],
    "repro_supernode_rows": [_I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR],
    "repro_amalgamate": [_I64, _PTR, _PTR, _PTR, ctypes.c_double, _PTR],
    "repro_couple_plan": [_I64, _I64] + [_PTR] * 17,
    "repro_assembly_map": [_I64] + [_PTR] * 8 + [ctypes.c_int] + [_PTR] * 5,
    "repro_permute_pattern": [_I64] + [_PTR] * 6,
}


@functools.lru_cache(maxsize=None)
def _library() -> Union[ctypes.CDLL, NativeUnavailable]:
    """Build + load once per process; a failure is remembered (and
    reported, once) too."""
    try:
        lib = cbuild.load_library(SOURCE)
    except NativeUnavailable as exc:
        warnings.warn(
            f"the native analysis helper is unavailable ({exc}); the "
            "Python ordering and symbolic loops will run",
            RuntimeWarning, stacklevel=3,
        )
        return exc
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = _I64
    return lib


def library() -> Optional[ctypes.CDLL]:
    """The loaded helper, or ``None`` when the Python bodies must run."""
    lib = _library()
    return None if isinstance(lib, NativeUnavailable) else lib


def availability() -> Optional[str]:
    """``None`` when the helper is usable, else the reason."""
    lib = _library()
    return str(lib) if isinstance(lib, NativeUnavailable) else None


# ----------------------------------------------------------------------
# Argument checks
# ----------------------------------------------------------------------
def _int64(name: str, arr: np.ndarray, size: int) -> np.ndarray:
    """``arr`` as a C-contiguous int64 vector of ``size`` entries."""
    arr = np.asarray(arr)
    if arr.ndim != 1 or arr.size != size or (
            size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be {size} integers, got "
                         f"{arr.dtype}{list(arr.shape)}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _within(name: str, arr: np.ndarray, lo: int, hi: int) -> None:
    if arr.size and not (lo <= arr.min() and arr.max() < hi):
        raise ValueError(f"{name} has an entry outside [{lo}, {hi})")


def _pointers(name: str, ptr: np.ndarray, count: int, last: int) -> np.ndarray:
    """``count + 1`` checked offsets running from 0 to ``last`` without
    decreasing."""
    if count < 0:
        raise ValueError(f"{name} is empty")
    ptr = _int64(name, ptr, count + 1)
    if ptr[0] != 0 or ptr[-1] != last or (count and np.diff(ptr).min() < 0):
        raise ValueError(f"{name} must run from 0 to {last} without "
                         "decreasing")
    return ptr


def _compressed(
    n: int, ptr: np.ndarray, idx: np.ndarray, names: tuple[str, str]
) -> tuple[np.ndarray, np.ndarray]:
    """A checked CSR/CSC pair: ``ptr`` runs from 0 to ``idx.size`` without
    decreasing and ``idx`` stays in ``[0, n)``."""
    idx = _int64(names[1], idx, np.size(idx))
    ptr = _pointers(names[0], ptr, n, idx.size)
    _within(names[1], idx, 0, n)
    return ptr, idx


def _checked(status: int) -> bool:
    """``True`` for success, ``False`` when C gave the input back."""
    if status == _NO_MEMORY:
        raise MemoryError("native analysis work arrays")
    return status != _INCONSISTENT


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
def nested_dissection(
    lib: ctypes.CDLL, n: int, xadj: np.ndarray, adjncy: np.ndarray,
    vwgt: np.ndarray, leaf_size: int,
) -> Optional[np.ndarray]:
    """``iperm`` of the default nested dissection, or ``None`` when the
    adjacency turned out not to be symmetric (the Python driver decides
    what that means)."""
    xadj, adjncy = _compressed(n, xadj, adjncy, ("xadj", "adjncy"))
    vwgt = _int64("vwgt", vwgt, n)
    iperm = np.empty(n, dtype=np.int64)
    # Every leaf_size >= n means "one leaf"; keep the value inside int64.
    status = lib.repro_nested_dissection(
        n, xadj.ctypes.data, adjncy.ctypes.data, vwgt.ctypes.data,
        max(-1, min(int(leaf_size), n)), iperm.ctypes.data,
    )
    return iperm if _checked(status) else None


def minimum_degree(
    lib: ctypes.CDLL, n: int, xadj: np.ndarray, adjncy: np.ndarray
) -> Optional[np.ndarray]:
    """``iperm`` of the minimum-degree ordering (``None`` as above)."""
    xadj, adjncy = _compressed(n, xadj, adjncy, ("xadj", "adjncy"))
    iperm = np.empty(n, dtype=np.int64)
    status = lib.repro_minimum_degree(
        n, xadj.ctypes.data, adjncy.ctypes.data, iperm.ctypes.data
    )
    return iperm if _checked(status) else None


# ----------------------------------------------------------------------
# Symbolic
# ----------------------------------------------------------------------
def elimination_tree(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray
) -> np.ndarray:
    colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    parent = np.empty(n, dtype=np.int64)
    _checked(lib.repro_etree(
        n, colptr.ctypes.data, rowind.ctypes.data, parent.ctypes.data
    ))
    return parent


def postorder(lib: ctypes.CDLL, parent: np.ndarray) -> Optional[np.ndarray]:
    """A postorder of ``parent``, or ``None`` when it is not a forest."""
    n = np.size(parent)
    parent = _int64("parent", parent, n)
    if n and parent.max() >= n:
        raise ValueError("parent has an entry outside the tree")
    post = np.empty(n, dtype=np.int64)
    placed = lib.repro_postorder(n, parent.ctypes.data, post.ctypes.data)
    _checked(placed)
    return post if placed == n else None


def column_counts(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray,
    parent: np.ndarray, post: np.ndarray,
) -> np.ndarray:
    colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    parent = _int64("parent", parent, n)
    post = _int64("post", post, n)
    _within("parent", parent, -1, n)
    _within("post", post, 0, n)
    # A permutation in which every node precedes its parent: the tree is
    # acyclic, which is what bounds the C loops.
    rank = np.full(n, -1, dtype=np.int64)
    rank[post] = np.arange(n, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    if (rank < 0).any() or (rank[parent[child]] <= rank[child]).any():
        raise ValueError("post is not a postorder of parent")
    counts = np.empty(n, dtype=np.int64)
    _checked(lib.repro_column_counts(
        n, colptr.ctypes.data, rowind.ctypes.data, parent.ctypes.data,
        post.ctypes.data, counts.ctypes.data,
    ))
    return counts


def supernode_rows(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray,
    snptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(ptr, rows, parent_snode)`` of the below-supernode row sets:
    supernode ``s`` owns ``rows[ptr[s]:ptr[s + 1]]``, ascending."""
    colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    n_sn = np.size(snptr) - 1
    snptr = _pointers("snptr", snptr, n_sn, n)
    ptr = np.zeros(n_sn + 1, dtype=np.int64)
    parent_sn = np.empty(n_sn, dtype=np.int64)

    def run(rows: Optional[np.ndarray]) -> None:
        _checked(lib.repro_supernode_rows(
            n, colptr.ctypes.data, rowind.ctypes.data, n_sn,
            snptr.ctypes.data, ptr.ctypes.data,
            None if rows is None else rows.ctypes.data,
            parent_sn.ctypes.data,
        ))

    run(None)                      # sizes into ptr[1:]
    np.cumsum(ptr, out=ptr)
    rows = np.empty(int(ptr[-1]), dtype=np.int64)
    run(rows)
    return ptr, rows, parent_sn


def amalgamate(
    lib: ctypes.CDLL, snptr: np.ndarray, ptr: np.ndarray,
    parent_sn: np.ndarray, ratio: float,
) -> np.ndarray:
    """The supernodes that survive the cheapest-fill-first merging, in
    ascending first column; supernode ``s`` spans columns
    ``snptr[s]:snptr[s + 1]`` above ``ptr[s + 1] - ptr[s]`` rows, and
    ``parent_sn[s]`` is ``-1`` or a later supernode."""
    snptr = _int64("snptr", snptr, np.size(snptr))
    n_sn = snptr.size - 1
    if n_sn < 0:
        raise ValueError("snptr is empty")
    snptr = _pointers("snptr", snptr, n_sn, int(snptr[-1]))
    ptr = _int64("ptr", ptr, n_sn + 1)
    ptr = _pointers("ptr", ptr, n_sn, int(ptr[-1]))
    parent_sn = _int64("parent_snode", parent_sn, n_sn)
    _within("parent_snode", parent_sn, -1, n_sn)
    # Every merge then joins a supernode to a later one: the merge loop
    # cannot cycle.
    if ((parent_sn >= 0) & (parent_sn <= np.arange(n_sn))).any():
        raise ValueError("parent_snode must name a later supernode")
    keep = np.empty(n_sn, dtype=np.int64)
    count = lib.repro_amalgamate(
        n_sn, snptr.ctypes.data, ptr.ctypes.data, parent_sn.ctypes.data,
        float(ratio), keep.ctypes.data,
    )
    if not _checked(count):
        raise AssertionError("amalgamation produced a non-contiguous "
                             "partition")
    return keep[:count]


# ----------------------------------------------------------------------
# The plans of a fresh factorization
# ----------------------------------------------------------------------
def _symbol_arrays(symbol, layout) -> Optional[dict]:
    """The symbol and layout arrays the plan builders read, checked; or
    ``None`` when one is not what they assume (the Python bodies run)."""
    K = symbol.n_cblk
    n_blok = np.size(symbol.blok_frow)
    try:
        arrays = dict(
            blok_ptr=_pointers("blok_ptr", symbol.blok_ptr, K, n_blok),
            frow=_int64("blok_frow", symbol.blok_frow, n_blok),
            lrow=_int64("blok_lrow", symbol.blok_lrow, n_blok),
            face=_int64("blok_face", symbol.blok_face, n_blok),
            owner=_int64("blok_owner", symbol.blok_owner, n_blok),
            cblk_ptr=_pointers("cblk_ptr", symbol.cblk_ptr, K, symbol.n),
            col2cblk=_int64("col2cblk", symbol.col2cblk, symbol.n),
            width=_int64("width", layout.width, K),
            offset=_int64("offset", layout.offset, K + 1),
            row_ptr=_pointers("row_ptr", layout.row_ptr, K,
                              np.size(layout.rows)),
            rows=_int64("rows", layout.rows, np.size(layout.rows)),
        )
        _within("blok_face", arrays["face"], 0, K)
        _within("col2cblk", arrays["col2cblk"], 0, K)
        _within("rows", arrays["rows"], 0, symbol.n)
    except ValueError:
        return None
    # The Python bodies walk the bloks by blok_owner, C by blok_ptr; the
    # int32 couple scalars must hold every panel id and row count.
    if (not np.array_equal(arrays["owner"], np.repeat(
            np.arange(K, dtype=np.int64), np.diff(arrays["blok_ptr"])))
            or max(K, np.size(layout.rows)) >= 2 ** 31):
        return None
    return arrays


def couple_plan(lib: ctypes.CDLL, symbol, layout) -> Optional[dict]:
    """The couple plan of :class:`repro.kernels.indexcache.CoupleMapCache`
    as a dict of its arrays (``src`` ... ``by_src``), or ``None`` when
    the symbol is not one C builds it for (the Python body decides)."""
    a = _symbol_arrays(symbol, layout)
    if a is None:
        return None
    K = symbol.n_cblk
    counts = np.zeros(3, dtype=np.int64)
    head = (symbol.n, K, a["blok_ptr"].ctypes.data, a["frow"].ctypes.data,
            a["lrow"].ctypes.data, a["face"].ctypes.data,
            a["width"].ctypes.data, a["row_ptr"].ctypes.data,
            a["rows"].ctypes.data, counts.ctypes.data)
    if not _checked(lib.repro_couple_plan(*head, *[None] * 9)):
        return None
    C, R = int(counts[0]), int(counts[1])
    out = {name: np.empty(C, dtype=np.int32)
           for name in ("src", "tgt", "i0", "i1", "by_src")}
    out.update(tgt_ptr=np.empty(K + 1, dtype=np.int64),
               src_ptr=np.empty(K + 1, dtype=np.int64),
               rl_ptr=np.empty(C + 1, dtype=np.int64),
               rows_local=np.empty(R, dtype=np.int64))
    _checked(lib.repro_couple_plan(*head, *(out[name].ctypes.data for name in (
        "src", "tgt", "i0", "i1", "tgt_ptr", "src_ptr", "by_src", "rl_ptr",
        "rows_local"))))
    return out


def assembly_map(lib: ctypes.CDLL, symbol, layout, colptr: np.ndarray,
                 rowind: np.ndarray, lu: bool):
    """``(L_src, L_dst, U_src, U_dst)`` of
    :class:`repro.core.factor.AssemblyMap` (``U_*`` ``None`` unless
    ``lu``); ``None`` when the arguments are not ones C maps (the Python
    body decides).  Raises ``LookupError(e)`` for the first entry ``e``
    with no place in its panel."""
    a = _symbol_arrays(symbol, layout)
    n = symbol.n
    try:
        colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    except ValueError:
        return None
    if a is None:
        return None
    counts = np.zeros(3, dtype=np.int64)
    head = (n, colptr.ctypes.data, rowind.ctypes.data,
            *(a[name].ctypes.data for name in (
                "cblk_ptr", "col2cblk", "offset", "width", "row_ptr", "rows")),
            int(lu), counts.ctypes.data)
    _checked(lib.repro_assembly_map(*head, None, None, None, None))
    sides = [np.empty(int(counts[0]), dtype=np.int64) for _ in range(2)]
    sides += ([np.empty(int(counts[1]), dtype=np.int64) for _ in range(2)]
              if lu else [None, None])
    status = lib.repro_assembly_map(
        *head, *(None if arr is None else arr.ctypes.data for arr in sides))
    if status == _MISSING:
        raise LookupError(int(counts[2]))
    _checked(status)
    return tuple(sides)


def permute_pattern(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray,
    perm: np.ndarray, sources: bool = True,
) -> Optional[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """``(colptr, rowind, src)`` of ``P A Pᵀ`` for an ``n × n`` pattern
    and a permutation ``perm`` (old → new, checked by the caller): rows
    ascending within every column, ``src`` the index of every entry's
    source entry (``None`` unless ``sources``).  ``None`` when the
    pattern arrays are malformed (the Python body decides).  Raises
    ``ValueError`` on duplicate coordinates, as
    ``coo_to_csc(sum_duplicates=False)`` does."""
    try:
        colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    except ValueError:
        return None
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    out_colptr = np.empty(n + 1, dtype=np.int64)
    out_rowind = np.empty(rowind.size, dtype=np.int64)
    src = np.empty(rowind.size, dtype=np.int64) if sources else None
    dups = lib.repro_permute_pattern(
        n, colptr.ctypes.data, rowind.ctypes.data, perm.ctypes.data,
        out_colptr.ctypes.data, out_rowind.ctypes.data,
        None if src is None else src.ctypes.data)
    _checked(dups)
    if dups:
        raise ValueError(f"{dups} duplicate coordinates")
    return out_colptr, out_rowind, src
