"""Native numeric backend: one GIL-free C call per unit.

``native.c`` (next to this file) factorizes a run of panels left-looking
— per panel, every update GEMM + scatter-subtract in ascending source
order, then the LAPACK diagonal factorization and the panel TRSM(s) —
and runs the forward or backward triangular sweep over a run of panels
(:class:`SolveSweeps`), reading the flat couple plan
(:mod:`repro.kernels.indexcache`) and the factor arenas
(:mod:`repro.core.factor`) through raw pointers.  This
module builds it on first use with the host's C compiler, hands it the
BLAS/LAPACK entry points of ``scipy.linalg.cython_blas`` /
``cython_lapack``, checks every argument before a pointer crosses, and
runs the C/Python hand-back loop:

* the **pivot policy is not re-implemented in C**.  C commits a diagonal
  block only when LAPACK did exactly what static pivoting does; any other
  panel comes back with its updates applied and its diagonal block
  untouched, :func:`repro.kernels.panel.panel_factorize` runs on it
  (perturbation counting, ``ZeroDivisionError``, ``LinAlgError`` — one
  implementation), and C is re-entered at the next panel;
* the NumPy kernels stay the fallback and the oracle:
  :func:`resolve_kernels` turns ``"native"`` into ``"numpy"`` (with a
  ``RuntimeWarning``) when there is no compiler, no capsule or no place
  to build, and silently for a dtype the C code has no body for.

Compiling, caching (``${XDG_CACHE_HOME:-~/.cache}/repro/
native-<hash>.so``) and loading are :mod:`repro.cbuild`'s.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro import cbuild
from repro.cbuild import NativeUnavailable
from repro.kernels.indexcache import CoupleMapCache
from repro.kernels.panel import panel_factorize

__all__ = [
    "NativeUnavailable",
    "Scratch",
    "SolveSweeps",
    "availability",
    "build",
    "factorize_panels",
    "load",
    "resolve_kernels",
    "solve_sweeps",
]

SOURCE = Path(__file__).with_name("native.c")

_FACTOTYPES = {"llt": 0, "ldlt": 1, "lu": 2}
#: The C function suffix per factor dtype.
_SUFFIX = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}
#: Entry points per scalar type, in ``native.c``'s ``blas[]`` order
#: (``None``: not used for that type).
_ENTRY_POINTS = (
    ("cython_blas", "dgemm"), ("cython_blas", "dtrsm"),
    ("cython_lapack", "dpotrf"), ("cython_lapack", "dsytrf"),
    ("cython_lapack", "dgetrf"), ("cython_blas", "dgemv"),
    ("cython_blas", "dtrsv"),
    ("cython_blas", "zgemm"), ("cython_blas", "ztrsm"),
    None, ("cython_lapack", "zsytrf"), ("cython_lapack", "zgetrf"),
    ("cython_blas", "zgemv"), ("cython_blas", "ztrsv"),
)


class _Plan(ctypes.Structure):
    """``plan_t`` of ``native.c``."""

    _fields_ = [("n_cblk", ctypes.c_int64)] + [
        (name, ctypes.c_void_p)
        for name in ("height", "width", "offset", "d_off", "tgt_ptr", "src",
                     "i0", "i1", "rl_ptr", "rows_local", "row_ptr", "rows")
    ] + [(name, ctypes.c_int64) for name in ("max_mn", "max_nw", "max_w")]


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------
def build(directory: Path) -> tuple[Path, dict[str, Any]]:
    """Compile ``native.c`` into ``directory`` unless already there
    (:func:`repro.cbuild.build`: path and ``{"compiler", "flags",
    "build_s", "cached"}``)."""
    return cbuild.build(SOURCE, directory)


def _entry_point_table() -> Any:
    """``void *[14]`` of the SciPy BLAS/LAPACK function pointers."""
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    table = (ctypes.c_void_p * len(_ENTRY_POINTS))()
    try:
        import scipy.linalg.cython_blas
        import scipy.linalg.cython_lapack

        for slot, entry in enumerate(_ENTRY_POINTS):
            if entry is None:
                continue
            module = getattr(scipy.linalg, entry[0])
            capsule = module.__pyx_capi__[entry[1]]
            table[slot] = get_pointer(capsule, get_name(capsule))
    except (ImportError, AttributeError, KeyError, ValueError) as exc:
        raise NativeUnavailable(f"no BLAS/LAPACK capsule: {exc!r}")
    return table


def _declare(lib: ctypes.CDLL, entry_points: Any) -> ctypes.CDLL:
    plan_p = ctypes.POINTER(_Plan)
    lib.repro_init.argtypes = [ctypes.c_void_p]
    lib.repro_init.restype = None
    lib.repro_work_len.argtypes = [plan_p]
    lib.repro_work_len.restype = ctypes.c_int64
    for name in ("repro_factorize_panels_d", "repro_factorize_panels_z"):
        fn = getattr(lib, name)
        fn.argtypes = [
            plan_p, ctypes.c_int,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,   # L, U, D
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,     # panels
            ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,   # scratch
        ]
        fn.restype = ctypes.c_int64
    for name in ("repro_solve_panels_d", "repro_solve_panels_z"):
        fn = getattr(lib, name)
        fn.argtypes = [
            plan_p, ctypes.c_int,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,   # L, U, D
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,    # x, slab
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int,       # panels
            ctypes.c_void_p,                                     # gather
        ]
        fn.restype = None
    lib.repro_init(entry_points)
    return lib


@functools.lru_cache(maxsize=None)
def _library() -> Union[ctypes.CDLL, NativeUnavailable]:
    """Build + load once per process; a failure is remembered too."""
    try:
        entry_points = _entry_point_table()   # before paying for a build
        return _declare(cbuild.load_library(SOURCE), entry_points)
    except NativeUnavailable as exc:
        return exc


def load() -> ctypes.CDLL:
    """The loaded kernel library; raises :class:`NativeUnavailable`."""
    lib = _library()
    if isinstance(lib, NativeUnavailable):
        raise lib
    return lib


def availability() -> Optional[str]:
    """``None`` when the native backend is usable, else the reason."""
    try:
        load()
    except NativeUnavailable as exc:
        return str(exc)
    return None


def resolve_kernels(requested: str, *, dtype: Any = np.float64) -> str:
    """Effective kernel backend for a requested one.

    ``"numpy"`` is always honoured.  ``"native"`` stays ``"native"``
    when the library loads and the dtype is float64/complex128; another
    dtype resolves to ``"numpy"`` silently, an unusable library does so
    with a ``RuntimeWarning``.
    """
    if requested == "numpy":
        return "numpy"
    if requested != "native":
        raise ValueError(f"unknown kernels backend {requested!r}")
    if np.dtype(dtype) not in (np.float64, np.complex128):
        return "numpy"
    try:
        load()
    except NativeUnavailable as exc:
        warnings.warn(
            f"kernels='native' is unavailable ({exc}); "
            "falling back to the NumPy kernels",
            RuntimeWarning, stacklevel=3,
        )
        return "numpy"
    return "native"


# ----------------------------------------------------------------------
# Calling the kernel
# ----------------------------------------------------------------------
def _plan_struct(plan: CoupleMapCache) -> _Plan:
    """The validated plan as a ``plan_t`` (memoised on the plan, which
    owns every array the pointers refer to)."""
    struct = plan._native
    if struct is None:
        plan.validate()
        lay = plan.layout
        d_off = np.ascontiguousarray(plan.symbol.cblk_ptr, dtype=np.int64)
        arrays = dict(
            height=lay.height, width=lay.width, offset=lay.offset,
            d_off=d_off, tgt_ptr=plan.tgt_ptr, src=plan.src, i0=plan.i0,
            i1=plan.i1, rl_ptr=plan.rl_ptr, rows_local=plan.rows_local,
            row_ptr=lay.row_ptr, rows=lay.rows,
        )
        struct = _Plan(
            n_cblk=plan.symbol.n_cblk, max_mn=plan.max_mn,
            max_nw=plan.max_nw, max_w=plan.max_w,
            **{name: arr.ctypes.data for name, arr in arrays.items()},
        )
        struct._keepalive = arrays
        plan._native = struct
    return struct


class Scratch:
    """Per-thread work buffers of one factor's native calls."""

    def __init__(self, factor: Any) -> None:
        plan = _plan_struct(factor.index_cache)
        self.work = np.empty(
            load().repro_work_len(ctypes.byref(plan)), dtype=factor.dtype
        )
        self.ipiv = np.empty(plan.max_w + 1, dtype=np.intc)


def _arena_pointer(factor: Any, name: str, size: int) -> Optional[int]:
    arena = getattr(factor, name)
    if arena is None:
        return None
    if not (
        isinstance(arena, np.ndarray) and arena.dtype == factor.dtype
        and arena.ndim == 1 and arena.size == size
        and arena.flags.c_contiguous and arena.flags.writeable
    ):
        raise ValueError(f"factor.{name} is not a writable arena of {size} "
                         f"{factor.dtype} elements")
    return int(arena.ctypes.data)


def _bind(factor: Any, name: str) -> tuple:
    """Check ``factor`` for a native call of ``repro_<name>_{d,z}``:
    ``(function, plan_t, L, U, D)``, the arenas as pointers."""
    lib = load()
    plan = factor.index_cache
    if plan is None or factor.L_arena is None:
        raise ValueError("the native kernel needs an arena-backed factor "
                         "with its couple plan attached")
    if plan.symbol is not factor.symbol:
        raise ValueError("the couple plan belongs to another symbol")
    struct = _plan_struct(plan)
    suffix = _SUFFIX.get(np.dtype(factor.dtype))
    if suffix is None:
        raise ValueError(f"no native kernel for dtype {factor.dtype}")
    ft = factor.factotype
    size = int(plan.layout.offset[-1])
    L = _arena_pointer(factor, "L_arena", size)
    U = _arena_pointer(factor, "U_arena", size)
    D = _arena_pointer(factor, "D_arena", factor.symbol.n)
    if (U is None) != (ft != "lu") or (D is None) != (ft != "ldlt"):
        raise ValueError(f"factor arenas do not match factotype {ft!r}")
    return getattr(lib, f"repro_{name}_{suffix}"), struct, L, U, D


def _panel_list(factor: Any, panels: np.ndarray) -> np.ndarray:
    panels = np.ascontiguousarray(panels, dtype=np.int64)
    if panels.size and not (
        0 <= panels.min() and panels.max() < factor.symbol.n_cblk
    ):
        raise ValueError("panel index out of range")
    return panels


def factorize_panels(
    factor: Any, panels: np.ndarray, scratch: Optional[Scratch] = None
) -> None:
    """Factorize ``panels`` (ascending panel ids) of ``factor`` in place.

    Every source panel of a listed panel must be final or listed before
    it.  Equivalent to, per panel ``p``: ``panel_update(factor, k, p)``
    for its sources ``k`` ascending, then ``panel_factorize(factor, p)``
    — which is also exactly what runs for a panel C hands back.
    """
    fn, struct, L, U, D = _bind(factor, "factorize_panels")
    panels = _panel_list(factor, panels)
    n = int(panels.size)
    if scratch is None:
        scratch = Scratch(factor)
    monitor = factor.pivot_monitor
    threshold = 0.0 if monitor is None else float(monitor.threshold)
    position = 0
    while True:
        position = fn(
            ctypes.byref(struct), _FACTOTYPES[factor.factotype], L, U, D,
            panels.ctypes.data, n, position, threshold,
            scratch.work.ctypes.data, scratch.ipiv.ctypes.data,
        )
        if position >= n:
            return
        panel_factorize(factor, int(panels[position]))
        position += 1


class SolveSweeps:
    """The native triangular sweeps of one solve, over ``x`` in place.

    ``x`` is ``(n,)`` or ``(n, nrhs)``, C-contiguous, writable and of the
    factor's dtype.  ``panels`` is the panel list the calls take ranges of
    (ascending within every range), run by a pool of ``n_workers``: the
    forward steps are left-looking over a slab arena (``L21 · y`` of every
    panel, Σ (height − width) · nrhs elements).  ``panels=None`` means
    every panel ascending, run by one thread in ascending ranges: no slab
    arena, each forward step pushes its product straight into the rows
    below — the same values in the same order, so the same bits.
    Everything is checked here, once, before any pointer crosses: the
    factor's arenas and plan, ``x`` and the panel ids.
    """

    def __init__(self, factor: Any, x: np.ndarray,
                 panels: Optional[np.ndarray] = None,
                 n_workers: int = 1) -> None:
        fn, struct, L, U, D = _bind(factor, "solve_panels")
        n = factor.symbol.n
        if not (
            isinstance(x, np.ndarray) and x.dtype == factor.dtype
            and x.ndim in (1, 2) and x.shape[0] == n
            and x.flags.c_contiguous and x.flags.writeable
        ):
            raise ValueError(f"x must be a writable C-contiguous ({n},) or "
                             f"({n}, nrhs) array of {factor.dtype}")
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        lay = factor.index_cache.layout
        if panels is None:
            self.panels = np.arange(factor.symbol.n_cblk, dtype=np.int64)
            self.slab = None
        else:
            self.panels = _panel_list(factor, panels)
            self.slab = np.empty((int(lay.row_ptr[-1]) - n) * nrhs, x.dtype)
        self.gather = [
            np.empty(int(lay.below.max(initial=0)) * nrhs, x.dtype)
            for _ in range(max(1, n_workers))
        ]
        self._keepalive = (factor, x)
        # Raw addresses, taken once: ``ndarray.ctypes`` costs about a
        # microsecond per access, the call itself a few.
        self._base = self.panels.ctypes.data
        self._gather = [g.ctypes.data for g in self.gather]
        self._call = functools.partial(
            fn, ctypes.byref(struct), _FACTOTYPES[factor.factotype], L, U, D,
            x.ctypes.data, nrhs,
            None if self.slab is None else self.slab.ctypes.data,
        )

    def run(self, lo: int, hi: int, backward: bool, worker: int = 0) -> None:
        """Forward steps of ``panels[lo:hi]`` ascending, or backward steps
        descending, on ``worker``'s gather buffer."""
        if not 0 <= lo <= hi <= self.panels.size:
            raise ValueError("panel range out of bounds")
        self._call(self._base + 8 * lo, hi - lo, backward, self._gather[worker])


def solve_sweeps(factor: Any, x: np.ndarray,
                 panels: Optional[np.ndarray] = None,
                 n_workers: int = 1) -> Optional[SolveSweeps]:
    """The native sweeps of a solve of ``factor``, or ``None`` for the
    NumPy bodies: the solve follows ``factor.kernels``, and needs an
    arena-backed factor with its plan attached."""
    if (factor.kernels != "native" or factor.L_arena is None
            or factor.index_cache is None):
        return None
    return SolveSweeps(factor, x, panels, n_workers)
