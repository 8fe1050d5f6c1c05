"""Native analysis helper: the ordering and symbolic loops as C calls.

``analysis.c`` (next to this file) holds the three passes
:func:`repro.symbolic.analyze` makes (:func:`symmetrize`, :func:`order`,
:func:`block_symbol`), the default nested dissection
(:func:`repro.ordering.nested_dissection`), and the plans a fresh
factorization builds: the symmetric permutation of a pattern
(:meth:`repro.sparse.csc.SparseMatrixCSC.permute`), the factorization's
plan of a symbol in one pass (:func:`factor_plan`: the panel layout and
the couple plan of :mod:`repro.kernels.indexcache`, the flop count, the
row blocks and the unit DAG of :func:`repro.dag.builder.factor_plan`),
the couple plan's bounds check (:func:`check_plan`) and the assembly
map (:class:`repro.core.factor.AssemblyMap`).  :mod:`repro.cbuild`
compiles and caches it on first use; no BLAS or LAPACK is involved.
Each caller asks :func:`library` and calls the wrapper below when it
answers, its own Python body otherwise — the bodies are the fallback and
the oracle, and the results are identical element for element.  The
single steps of the analysis (elimination tree, postorder, column
counts, supernode row sets, amalgamation, minimum degree) have no entry
point of their own: the passes run them in C, their public functions in
Python.  The plan pass checks what it built as the Python checks would
(the couple plan's bounds check, the executor's DAG checks), with
functions of their own, and hands back nothing that failed.

Every array is checked before its pointer crosses (C-contiguous int64,
pointer arrays non-decreasing from 0 to the index count, indices in
range): O(n + nnz) and vectorised — except the symbol's arrays of the
plan pass and the pattern of the assembly map, whose values their count
calls check in C before following any of them.  The C side keeps no state between
calls and ctypes releases the GIL for each.
"""

from __future__ import annotations

import ctypes
import functools
import math
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
    "check_plan",
    "factor_plan",
    "library",
    "nested_dissection",
    "order",
    "permute_pattern",
    "planned",
    "symmetrize",
]

SOURCE = Path(__file__).with_name("analysis.c")

#: ``analysis.c``'s status codes.
_NO_MEMORY, _INCONSISTENT, _MISSING, _MISMATCH = -1, -2, -3, -4

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_SIGNATURES = {
    "repro_nested_dissection": [_I64, _PTR, _PTR, _PTR, _I64, _PTR],
    "repro_factor_plan": [_I64, _I64, _I64] + [_PTR] * 7 + [
        ctypes.c_int, ctypes.c_double, _I64, ctypes.c_double,
        ctypes.c_double, ctypes.c_double] + [_PTR] * 3 + [
        ctypes.c_int, ctypes.POINTER(_PTR)],
    "repro_check_plan": [_I64, _I64] + [_PTR] * 10 + [_I64, _PTR, _PTR],
    "repro_assembly_map": [_I64, _I64] + [_PTR] * 8 + [ctypes.c_int] + [
        _PTR] * 5,
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
    lib.repro_factor_plan_take.argtypes = [_PTR, _PTR]
    lib.repro_factor_plan_take.restype = None
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
def _symbol_arrays(symbol) -> Optional[dict]:
    """The symbol arrays the plan pass reads, as C-contiguous int64 of the
    symbol's sizes (the pass checks their values); or ``None`` when one
    is not (the Python bodies run)."""
    K, n_blok = symbol.n_cblk, np.size(symbol.blok_frow)
    if K < 0:
        return None
    try:
        return {name: _int64(field, getattr(symbol, field), size)
                for name, field, size in (
                    ("blok_ptr", "blok_ptr", K + 1),
                    ("frow", "blok_frow", n_blok),
                    ("lrow", "blok_lrow", n_blok),
                    ("face", "blok_face", n_blok),
                    ("owner", "blok_owner", n_blok),
                    ("cblk_ptr", "cblk_ptr", K + 1),
                    ("col2cblk", "col2cblk", symbol.n))}
    except ValueError:
        return None


#: ``repro_factor_plan``'s arrays in its order: name, dtype and size
#: (``K`` panels, ``C`` couples, ``R`` row-map entries, ``NR`` layout
#: rows) — the layout, the couple plan, the row blocks' pointers.
_PLAN_ARRAYS = (
    ("width", np.int64, "K"), ("height", np.int64, "K"),
    ("below", np.int64, "K"), ("offset", np.int64, "K1"),
    ("row_ptr", np.int64, "K1"), ("rows", np.int64, "NR"),
    ("src", np.int32, "C"), ("tgt", np.int32, "C"), ("i0", np.int32, "C"),
    ("i1", np.int32, "C"), ("tgt_ptr", np.int64, "K1"),
    ("src_ptr", np.int64, "K1"), ("by_src", np.int32, "C"),
    ("rl_ptr", np.int64, "C1"), ("rows_local", np.int64, "R"),
    ("block_ptr", np.int64, "K1"),
)
#: ``repro_factor_plan_take``'s arrays in its order (``B`` row-block
#: boundaries, ``T`` tasks, ``E`` edges): the row blocks, then the unit
#: DAG in the executor's form.
_DAG_ARRAYS = (
    ("block_rows", np.int64, "B"), ("unit_panels", np.int64, "K"),
    ("kind", np.int8, "T"), ("unit_ptr", np.int64, "T1"),
    ("cblk", np.int64, "T"), ("row_range", np.int64, "T2"),
    ("succ_ptr", np.int64, "T1"), ("succ_list", np.int64, "E"),
    ("n_deps", np.int64, "T"), ("records", np.int64, "T4"),
    ("order", np.int64, "T"),
)
_FACTOTYPES = {"llt": 0, "ldlt": 1, "lu": 2}


def _views(fields, shapes: dict) -> tuple[dict, list]:
    """The arrays of ``fields`` (name, dtype, key of ``shapes``) as views
    of one new buffer, each 8-byte aligned, and their addresses: one
    allocation and one address read for them all."""
    sizes = []
    for _, dtype, key in fields:
        shape = shapes[key]
        count = math.prod(shape) if isinstance(shape, tuple) else shape
        sizes.append(count * np.dtype(dtype).itemsize)
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + -(-size // 8) * 8)
    buf = np.empty(starts[-1], dtype=np.uint8)
    base = buf.ctypes.data
    arrays = {name: buf[start:start + size].view(dtype).reshape(shapes[key])
              for (name, dtype, key), start, size in zip(fields, starts, sizes)}
    return arrays, [base + start for start in starts[:-1]]


def factor_plan(lib: ctypes.CDLL, symbol, factotype: Optional[str] = None,
                mult: float = 1.0, row_block: int = 1,
                min_split: float = 0.0, units: float = 0.0,
                min_unit: float = 0.0) -> Optional[dict]:
    """``repro_factor_plan`` on ``symbol``: a dict of the arrays of its
    panel layout (``width`` ... ``rows``), its couple plan (``src`` ...
    ``rows_local``, checked: ``max_mn``, ``max_nw``, ``max_w``), and
    records the checked symbol arrays (:func:`planned`); with
    ``factotype`` also
    ``flops`` (``flops_total`` times ``mult``), ``nnz`` and the row blocks
    (``block_ptr``, ``block_rows``; panels split at ``row_block`` rows
    and ``min_split`` flops); with ``units`` > 0 (fusion units: workers
    times the units per worker) also the unit DAG fused up to
    ``threshold`` = max(weight / ``units``, ``min_unit``): ``unit_panels``,
    ``kind`` ... ``row_range`` as :class:`~repro.dag.tasks.TaskDAG` holds
    them, ``succ_ptr``, ``succ_list``, ``n_deps``, the executor's
    ``records`` and ``order``, and the ``kinds`` and ``max_hi`` its check
    found.  ``None`` when the symbol is not one C builds a plan for, or
    the plan failed a check: the Python bodies then run, and raise what
    they raise."""
    a = _symbol_arrays(symbol)
    if a is None:
        return None
    K = symbol.n_cblk
    info = np.zeros(12, dtype=np.int64)
    flops = np.zeros(2, dtype=np.float64)
    handle = ctypes.c_void_p()
    head = (symbol.n, K, a["frow"].size, *(a[name].ctypes.data for name in (
        "blok_ptr", "frow", "lrow", "face", "owner", "cblk_ptr", "col2cblk")),
        _FACTOTYPES.get(factotype, -1), float(mult), int(row_block),
        float(min_split), float(units), float(min_unit), info.ctypes.data,
        flops.ctypes.data)
    table = (_PTR * len(_PLAN_ARRAYS))()

    def allocate(sizes: dict) -> dict:
        slots = [i for i, f in enumerate(_PLAN_ARRAYS) if f[2] in sizes]
        arrays, addresses = _views([_PLAN_ARRAYS[i] for i in slots], sizes)
        for slot, address in zip(slots, addresses):
            table[slot] = address
        return arrays

    out = allocate(dict(K=K, K1=K + 1))    # what the count call writes
    if not _checked(lib.repro_factor_plan(*head, table, 0,
                                          ctypes.byref(handle))):
        return None
    C, R, NR = (int(v) for v in info[:3])
    out.update(allocate(dict(C=C, C1=C + 1, R=R, NR=NR)))
    status = lib.repro_factor_plan(*head, table, 1, ctypes.byref(handle))
    if not _checked(status):
        return None
    symbol.__dict__["_plan_arrays"] = (symbol, a)
    out.update(max_mn=int(info[3]), max_nw=int(info[4]), max_w=int(info[5]))
    if factotype is None:
        return out
    T = int(info[8])
    shapes = dict(B=int(info[7]), K=K, T=T, T1=T + 1, T2=(T, 2), T4=(T, 4),
                  E=int(info[9]))
    fields = _DAG_ARRAYS if units > 0 else _DAG_ARRAYS[:1]
    try:
        taken, addresses = _views(fields, shapes)
    except MemoryError:
        lib.repro_factor_plan_take(handle, None)
        raise
    lib.repro_factor_plan_take(handle, (_PTR * len(fields))(*addresses))
    out.update(taken, flops=float(flops[0]), nnz=int(info[6]),
               threshold=float(flops[1]), kinds=int(info[10]),
               max_hi=int(info[11]))
    return out


def check_plan(lib: ctypes.CDLL, plan) -> Optional[tuple[int, int, int]]:
    """``repro_check_plan`` on the couple plan ``plan`` (its dtypes and
    lengths checked by the caller): ``(max_mn, max_nw, max_w)``, or the
    1-based number of the first check of
    :data:`repro.kernels.indexcache.PLAN_CHECKS` that fails."""
    lay = plan.layout
    out = np.zeros(3, dtype=np.int64)
    code = lib.repro_check_plan(
        plan.symbol.n_cblk, plan.src.size,
        *(arr.ctypes.data for arr in (
            lay.height, lay.width, lay.row_ptr, lay.rows, plan.tgt_ptr,
            plan.src, plan.tgt, plan.i0, plan.i1, plan.rl_ptr)),
        plan.rows_local.size, plan.rows_local.ctypes.data, out.ctypes.data,
    )
    return int(code) if code else (int(out[0]), int(out[1]), int(out[2]))


def planned(symbol) -> Optional[dict]:
    """The symbol arrays of the last :func:`factor_plan` that succeeded
    on ``symbol``, checked by it — the proof that its layout is one C
    can follow — or ``None``."""
    memo = symbol.__dict__.get("_plan_arrays")
    return memo[1] if memo is not None and memo[0] is symbol else None


def assembly_map(lib: ctypes.CDLL, symbol, layout, colptr: np.ndarray,
                 rowind: np.ndarray, lu: bool):
    """``(L_src, L_dst, U_src, U_dst)`` of
    :class:`repro.core.factor.AssemblyMap` (``U_*`` ``None`` unless
    ``lu``); ``None`` when no plan pass succeeded on ``symbol``
    (:func:`planned`) or the pattern arrays are not ones C maps (the
    Python body decides).  Raises ``LookupError(e)`` for the first entry
    ``e`` with no place in its panel."""
    a = planned(symbol)
    n = symbol.n
    try:
        colptr = _int64("colptr", colptr, n + 1)
        rowind = _int64("rowind", rowind, np.size(rowind))
    except ValueError:
        return None
    if a is None:
        return None
    counts = np.zeros(3, dtype=np.int64)
    head = (n, rowind.size, colptr.ctypes.data, rowind.ctypes.data,
            a["cblk_ptr"].ctypes.data, a["col2cblk"].ctypes.data,
            *(getattr(layout, name).ctypes.data for name in (
                "offset", "width", "row_ptr", "rows")),
            int(lu), counts.ctypes.data)
    if not _checked(lib.repro_assembly_map(*head, None, None, None, None)):
        return None       # the count call checks the pattern's values
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
