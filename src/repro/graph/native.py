"""Native analysis helper: the ordering and symbolic loops as C calls.

``analysis.c`` (next to this file) holds the three passes
:func:`repro.symbolic.analyze` makes (:func:`symmetrize`, :func:`order`,
:func:`block_symbol`), the default nested dissection
(:func:`repro.ordering.nested_dissection`), and the plans a fresh
factorization builds from the symbol: the symmetric permutation of a
pattern (:meth:`repro.sparse.csc.SparseMatrixCSC.permute`), the couple
plan (:class:`repro.kernels.indexcache.CoupleMapCache`) and the assembly
map (:class:`repro.core.factor.AssemblyMap`).  :mod:`repro.cbuild`
compiles and caches it on first use; no BLAS or LAPACK is involved.
Each caller asks :func:`library` and calls the wrapper below when it
answers, its own Python body otherwise — the bodies are the fallback and
the oracle, and the results are identical element for element.  The
single steps of the analysis (elimination tree, postorder, column
counts, supernode row sets, amalgamation, minimum degree) have no entry
point of their own: the passes run them in C, their public functions in
Python.  (The couple plan's bounds check is not here: it is
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
    "assembly_map",
    "availability",
    "block_symbol",
    "couple_plan",
    "library",
    "nested_dissection",
    "order",
    "permute_pattern",
    "symmetrize",
]

SOURCE = Path(__file__).with_name("analysis.c")

#: ``analysis.c``'s status codes.
_NO_MEMORY, _INCONSISTENT, _MISSING, _MISMATCH = -1, -2, -3, -4

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_SIGNATURES = {
    "repro_nested_dissection": [_I64, _PTR, _PTR, _PTR, _I64, _PTR],
    "repro_couple_plan": [_I64, _I64] + [_PTR] * 17,
    "repro_assembly_map": [_I64] + [_PTR] * 8 + [ctypes.c_int] + [_PTR] * 5,
    "repro_permute_pattern": [_I64] + [_PTR] * 6,
    "repro_symmetrize": [_I64] + [_PTR] * 5,
    "repro_order": [_I64, _PTR, _PTR, _PTR, _I64] + [_PTR] * 7,
    "repro_block_symbol": [_I64] + [_PTR] * 4 + [
        ctypes.c_int, ctypes.c_double, _I64, _PTR, ctypes.POINTER(_PTR)],
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
    lib.repro_block_symbol_take.argtypes = [_PTR] * 10
    lib.repro_block_symbol_take.restype = None
    return lib


def library() -> Optional[ctypes.CDLL]:
    """The loaded helper, or ``None`` when the Python bodies must run (no
    helper, or inside :func:`repro.cbuild.python_bodies` on this
    thread)."""
    if cbuild.python_only():
        return None
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


# ----------------------------------------------------------------------
# The analysis in three passes
# ----------------------------------------------------------------------
def symmetrize(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pass 1: ``(colptr, rowind, tsrc)`` of the pattern of ``A + Aᵀ``
    with every diagonal entry, rows ascending in every column, and the
    index in ``A`` of each entry's transpose (of ``A[j, r]`` for entry
    ``(r, j)``; ``-1`` where ``A`` has none), which :func:`order` turns
    into the value map.  ``None`` when the arrays are malformed or a
    column of ``A`` is not strictly ascending (the Python body decides
    what that means)."""
    try:
        colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    except ValueError:
        return None
    room = 2 * rowind.size + n
    out_colptr = np.empty(n + 1, dtype=np.int64)
    out_rowind = np.empty(room, dtype=np.int64)
    tsrc = np.empty(room, dtype=np.int64)
    nnz = lib.repro_symmetrize(n, colptr.ctypes.data, rowind.ctypes.data,
                               out_colptr.ctypes.data,
                               out_rowind.ctypes.data, tsrc.ctypes.data)
    if not _checked(nnz):
        return None
    return out_colptr, out_rowind[:nnz], tsrc[:nnz]


def order(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray,
    tsrc: np.ndarray, leaf_size: int, perm: Optional[np.ndarray] = None,
) -> Optional[tuple[np.ndarray, ...]]:
    """Pass 2 on pass 1's symmetric pattern: ``(perm, parent, counts,
    colptr, rowind, value_map)`` — the composed permutation (old → new)
    of nested dissection (or of ``perm``) and the elimination tree's
    postorder, that tree and the column counts in the new order, and the
    pattern reordered once, with the index in ``A`` of each entry (read
    from pass 1's ``tsrc``: the pattern is written from its transpose).
    ``None`` when the pattern turned out not to be symmetric."""
    colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    tsrc = _int64("tsrc", tsrc, rowind.size)
    if perm is not None:
        perm = _int64("perm", perm, n)
        _within("perm", perm, 0, n)
        if n and np.bincount(perm, minlength=n).max() != 1:
            raise ValueError("perm must be a permutation of range(n)")
    out = [np.empty(n, dtype=np.int64) for _ in range(3)]
    out += [np.empty(n + 1, dtype=np.int64)]
    out += [np.empty(rowind.size, dtype=np.int64) for _ in range(2)]
    status = lib.repro_order(
        n, colptr.ctypes.data, rowind.ctypes.data, tsrc.ctypes.data,
        max(-1, min(int(leaf_size), n)),
        None if perm is None else perm.ctypes.data,
        *(arr.ctypes.data for arr in out))
    return tuple(out) if _checked(status) else None


#: The :class:`repro.symbolic.structures.SymbolMatrix` fields pass 3
#: fills, in ``repro_block_symbol_take``'s order.
SYMBOL_FIELDS = ("cblk_ptr", "blok_ptr", "blok_frow", "blok_lrow",
                 "blok_face", "blok_owner", "col2cblk", "face_ptr",
                 "face_list")


def block_symbol(
    lib: ctypes.CDLL, n: int, colptr: np.ndarray, rowind: np.ndarray,
    parent: np.ndarray, counts: np.ndarray, ratio: Optional[float],
    max_width: Optional[int],
) -> dict[str, np.ndarray]:
    """Pass 3 on pass 2's pattern, tree and counts: the arrays of the
    block symbol (:data:`SYMBOL_FIELDS`) after amalgamation at ``ratio``
    (``None``: none) and splitting at ``max_width`` (``None``: none).
    Raises ``AssertionError`` where the Python body does: a row set whose
    size is not the count-derived one, an amalgamation that does not
    tile the columns."""
    colptr, rowind = _compressed(n, colptr, rowind, ("colptr", "rowind"))
    parent = _int64("parent", parent, n)
    counts = _int64("counts", counts, n)
    if max_width is not None and max_width < 1:
        raise ValueError("max_width must be >= 1")
    info = np.zeros(5, dtype=np.int64)
    handle = ctypes.c_void_p()
    status = lib.repro_block_symbol(
        n, colptr.ctypes.data, rowind.ctypes.data, parent.ctypes.data,
        counts.ctypes.data, int(ratio is not None),
        0.0 if ratio is None else float(ratio),
        0 if max_width is None else min(int(max_width), max(n, 1)),
        info.ctypes.data, ctypes.byref(handle))
    if status == _MISMATCH:
        raise AssertionError(
            f"supernode {info[2]}: row set size {info[3]} != "
            f"count-derived {info[4]}")
    if not _checked(status):
        raise AssertionError("amalgamation produced a non-contiguous "
                             "partition")
    K, n_blok = int(info[0]), int(info[1])
    sizes = (K + 1, K + 1, n_blok, n_blok, n_blok, n_blok, n, K + 1,
             n_blok - K)
    try:
        out = {name: np.empty(size, dtype=np.int64)
               for name, size in zip(SYMBOL_FIELDS, sizes)}
    except MemoryError:
        lib.repro_block_symbol_take(handle, *[None] * len(SYMBOL_FIELDS))
        raise
    lib.repro_block_symbol_take(handle, *(out[name].ctypes.data
                                          for name in SYMBOL_FIELDS))
    return out


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
