"""Native numeric backend: one GIL-free C call per task.

``native.c`` (next to this file) factorizes a run of panels left-looking
— per panel, every update GEMM + scatter-subtract in ascending source
order, then the LAPACK diagonal factorization and the panel TRSM(s); a
panel :func:`repro.dag.builder.row_blocks` splits runs as its diagonal
task and then its row blocks — or one task of a split panel
(:func:`factorize_block`), runs the forward or backward triangular
sweep over a run of panels (:class:`SolveSweeps`), runs every task of a
solve or factorization DAG in one call (:func:`run_dag`, over a
:class:`DagTasks`) and multiplies a CSC matrix
by a dense block (:func:`csc_matvec`), reading the flat couple plan
(:mod:`repro.kernels.indexcache`) and the factor arenas
(:mod:`repro.core.factor`) through raw pointers.  This
module builds it on first use with the host's C compiler, hands it the
BLAS/LAPACK entry points of ``scipy.linalg.cython_blas`` /
``cython_lapack``, checks every argument before a pointer crosses, and
runs the C/Python hand-back loop:

* the **pivot policy is not re-implemented in C**.  C commits a diagonal
  block only when every pivot is one static pivoting keeps as it is
  (finite, nonzero, not under the threshold; LLᵀ: positive): a narrow
  block (``NARROW`` columns or fewer) eliminated in C without pivoting,
  as the column loops of :mod:`repro.kernels.dense` do, a wider one
  factored by LAPACK and kept only if LAPACK interchanged nothing.  Any
  other panel comes back with its updates applied and its diagonal block
  untouched, :func:`repro.kernels.panel.panel_factorize` runs on it
  (perturbation counting, ``ZeroDivisionError``, ``LinAlgError`` — one
  implementation; a split panel's diagonal block only, its row blocks
  then run in C), and C is re-entered at the next panel (inside the
  executor, a GIL-taking callback runs the rest of that task);
* the NumPy kernels stay the fallback and the oracle: no option picks
  the backend, :func:`resolve_kernels` answers ``"numpy"`` (with a
  ``RuntimeWarning``) when there is no compiler, no capsule or no place
  to build, and silently for a dtype the C code has no body for or
  inside :func:`repro.cbuild.python_bodies` — which :func:`library`,
  and so the solves and :func:`csc_matvec`, honour too.

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
    "DagLogs",
    "DagTasks",
    "FactorizeTasks",
    "NativeUnavailable",
    "PHASES",
    "Scratch",
    "SolveSweeps",
    "availability",
    "build",
    "csc_matvec",
    "factorize_block",
    "factorize_panels",
    "kernel_bounds",
    "library",
    "load",
    "resolve_kernels",
    "run_dag",
    "solve_sweeps",
]

SOURCE = Path(__file__).with_name("native.c")

_FACTOTYPES = {"llt": 0, "ldlt": 1, "lu": 2}
#: Task kinds of the DAG executor (``native.c``): the forward or backward
#: solve steps of a panel range, a factorization of a panel range, one
#: block of a split panel.
FORWARD, BACKWARD, PANELS, BLOCK = range(4)
#: The phases ``native.c`` times into a thread's counters, in its
#: ``PH_*`` order, each as (nanoseconds, calls): the update GEMM, its
#: scatter, the fused product and scatter of a tiny couple, the L·D
#: scaling of an update operand, the diagonal block's factorization and
#: the panel TRSM(s).
PHASES = ("gemm", "scatter", "fused", "scale", "diag", "trsm")
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


class _Dag(ctypes.Structure):
    """``dag_t`` of ``native.c``."""

    _fields_ = [("n_tasks", ctypes.c_int64)] + [
        (name, ctypes.c_void_p)
        for name in ("succ_ptr", "succ_list", "n_deps", "task")
    ]


class _SolveBody(ctypes.Structure):
    """``solve_t`` of ``native.c``."""

    _fields_ = [("plan", ctypes.c_void_p)] + [
        (name, ctypes.c_int64)
        for name in ("ft", "nrhs", "complex_", "gather_len")
    ] + [
        (name, ctypes.c_void_p)
        for name in ("L", "U", "D", "x", "slab", "gather", "panels")
    ]


#: ``handback_t`` of ``native.c``: ``(kind, lo, hi, panel, at, worker)``.
_HANDBACK = ctypes.CFUNCTYPE(ctypes.c_int, *[ctypes.c_int64] * 6)


class _FactoBody(ctypes.Structure):
    """``facto_t`` of ``native.c``."""

    _fields_ = [("plan", ctypes.c_void_p)] + [
        (name, ctypes.c_int64) for name in ("ft", "complex_")
    ] + [
        (name, ctypes.c_void_p)
        for name in ("L", "U", "D", "panels", "block_ptr", "block_rows")
    ] + [("threshold", ctypes.c_double)] + [
        (name, ctypes.c_void_p) for name in ("work", "ipiv", "counters")
    ] + [("handback", _HANDBACK)]


class _Log(ctypes.Structure):
    """``log_t`` of ``native.c``."""

    _fields_ = [("rows", ctypes.c_void_p), ("cap", ctypes.c_int64),
                ("n", ctypes.c_int64)]


class _Trace(ctypes.Structure):
    """``trace_t`` of ``native.c``."""

    _fields_ = [(name, _Log) for name in ("task", "publish", "park", "wake",
                                          "fault")]


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
            ctypes.c_void_p, ctypes.c_void_p,                    # row blocks
            ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,   # scratch
            ctypes.c_void_p,                                     # counters
        ]
        fn.restype = ctypes.c_int64
    for name in ("repro_factorize_block_d", "repro_factorize_block_z"):
        fn = getattr(lib, name)
        fn.argtypes = [
            plan_p, ctypes.c_int,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,   # L, U, D
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,      # k, rows
            ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,   # scratch
            ctypes.c_void_p,                                     # counters
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
    lib.repro_run_dag.argtypes = [
        ctypes.POINTER(_Dag), ctypes.POINTER(_SolveBody),
        ctypes.POINTER(_FactoBody), ctypes.c_int64, ctypes.POINTER(_Trace),
    ]
    lib.repro_run_dag.restype = ctypes.c_int64
    for name, extra in (("repro_csc_matvec_d", []),
                        ("repro_csc_matvec_z", [ctypes.c_int])):
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 4 + [
            ctypes.c_int64, ctypes.c_void_p] + extra
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


def library() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` when the NumPy bodies must
    run (no library, or inside :func:`repro.cbuild.python_bodies` on this
    thread)."""
    if cbuild.python_only():
        return None
    try:
        return load()
    except NativeUnavailable:
        return None


def availability() -> Optional[str]:
    """``None`` when the native backend is usable, else the reason."""
    try:
        load()
    except NativeUnavailable as exc:
        return str(exc)
    return None


def kernel_bounds() -> dict[str, int]:
    """The two size bounds compiled into ``native.c``: ``"narrow"``, the
    widest panel whose diagonal block and TRSM(s) run as plain C loops,
    and ``"tiny"``, the most multiply-adds ``(rows · facing · width)`` of
    a couple side that is one fused product and scatter."""
    narrow, tiny = (ctypes.c_int64 * 2).in_dll(load(), "repro_kernel_bounds")
    return {"narrow": int(narrow), "tiny": int(tiny)}


def resolve_kernels(dtype: Any) -> str:
    """The kernel backend a factorization of ``dtype`` runs on this host.

    ``"native"`` when the library loads and the dtype is
    float64/complex128; ``"numpy"`` otherwise — silently for another
    dtype or inside :func:`repro.cbuild.python_bodies`, with a
    ``RuntimeWarning`` for a library that does not load.
    """
    if np.dtype(dtype) not in _SUFFIX or cbuild.python_only():
        return "numpy"
    try:
        load()
    except NativeUnavailable as exc:
        warnings.warn(
            f"the native kernels are unavailable ({exc}); "
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
    """Per-thread work buffers of one factor's native calls and, with
    ``counters=True``, that thread's phase counters: ``counters[i]`` is
    the ``(nanoseconds, calls)`` of :data:`PHASES` ``[i]`` that the calls
    made with this scratch add up (``None``: not counted, no clock
    read)."""

    def __init__(self, factor: Any, counters: bool = False) -> None:
        plan = _plan_struct(factor.index_cache)
        self.work = np.empty(
            load().repro_work_len(ctypes.byref(plan)), dtype=factor.dtype
        )
        self.ipiv = np.empty(plan.max_w + 1, dtype=np.intc)
        self.counters = (np.zeros((len(PHASES), 2), dtype=np.int64)
                         if counters else None)
        self.counters_ptr = (None if self.counters is None
                             else self.counters.ctypes.data)


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


def _row_blocks(factor: Any):
    """The factor's row-block partition, checked against its layout (C
    follows the boundaries unchecked): each split panel's boundaries
    rise strictly from its width to its height."""
    from repro.dag.builder import row_blocks

    blocks = row_blocks(factor.symbol, factor.factotype, factor.dtype)
    lay = factor.index_cache.layout
    ptr, rows = blocks.ptr, blocks.rows
    counts = np.diff(ptr)
    ok = (ptr.size == factor.symbol.n_cblk + 1 and ptr[0] == 0
          and ptr[-1] == rows.size and not np.any(counts == 1))
    if ok and rows.size:
        split = np.flatnonzero(counts)
        owner = np.repeat(split, counts[split])
        ok = (np.array_equal(rows[ptr[split]], lay.width[split])
              and np.array_equal(rows[ptr[split + 1] - 1], lay.height[split])
              and np.all((np.diff(rows) > 0) | (owner[1:] != owner[:-1])))
    if not ok:
        raise ValueError("row blocks do not partition the panels' rows")
    return blocks


def _threshold(factor: Any) -> float:
    monitor = factor.pivot_monitor
    return 0.0 if monitor is None else float(monitor.threshold)


def factorize_panels(
    factor: Any, panels: np.ndarray, scratch: Optional[Scratch] = None
) -> None:
    """Factorize ``panels`` (ascending panel ids) of ``factor`` in place.

    Every source panel of a listed panel must be final or listed before
    it.  Equivalent to, per panel ``p``: ``panel_update(factor, k, p)``
    for its sources ``k`` ascending, then ``panel_factorize(factor, p)``
    — which is also exactly what runs for a panel C hands back.  A panel
    the row-block partition splits runs its diagonal task, then each row
    block (:func:`factorize_block`), whatever the caller.
    """
    fn, struct, L, U, D = _bind(factor, "factorize_panels")
    panels = _panel_list(factor, panels)
    blocks = _row_blocks(factor)
    n = int(panels.size)
    if scratch is None:
        scratch = Scratch(factor)
    position = 0
    while True:
        position = fn(
            ctypes.byref(struct), _FACTOTYPES[factor.factotype], L, U, D,
            panels.ctypes.data, n, position, blocks.ptr.ctypes.data,
            blocks.rows.ctypes.data, _threshold(factor),
            scratch.work.ctypes.data, scratch.ipiv.ctypes.data,
            scratch.counters_ptr,
        )
        if position >= n:
            return
        _hand_back(factor, int(panels[position]), blocks, scratch)
        position += 1


def _hand_back(factor: Any, k: int, blocks: Any, scratch: Scratch) -> None:
    """Finish panel ``k``, whose diagonal block C handed back (updates
    applied, block untouched): :func:`panel_factorize` on it, and for a
    split panel on its diagonal block only, then its row blocks in C."""
    bounds = blocks.bounds(k).tolist()
    if not bounds:
        panel_factorize(factor, k)
        return
    panel_factorize(factor, k, diagonal_only=True)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        factorize_block(factor, k, (r0, r1), scratch)


def factorize_block(factor: Any, k: int, rows: tuple[int, int],
                    scratch: Optional[Scratch] = None) -> None:
    """One task of split panel ``k``, in place: ``rows == (0, width)`` is
    its diagonal task (the updates into the diagonal block, then its
    factorization — handed back to :func:`panel_factorize` with
    ``diagonal_only=True`` when LAPACK would pivot or perturb), a range
    ``width <= r0 < r1 <= height`` a row block (the updates into those
    rows, then their TRSM(s); the diagonal task must have run).  Every
    source panel must be final."""
    fn, struct, L, U, D = _bind(factor, "factorize_block")
    K = factor.symbol.n_cblk
    if not 0 <= k < K:
        raise ValueError("panel index out of range")
    lay = factor.index_cache.layout
    w, h = int(lay.width[k]), int(lay.height[k])
    r0, r1 = int(rows[0]), int(rows[1])
    if not ((r0, r1) == (0, w) or w <= r0 < r1 <= h):
        raise ValueError(f"rows {rows} are neither panel {k}'s diagonal "
                         f"block nor a range below it")
    if scratch is None:
        scratch = Scratch(factor)
    if not fn(ctypes.byref(struct), _FACTOTYPES[factor.factotype], L, U, D,
              k, r0, r1, _threshold(factor), scratch.work.ctypes.data,
              scratch.ipiv.ctypes.data, scratch.counters_ptr):
        panel_factorize(factor, k, diagonal_only=True)


def _solve_binding(factor: Any) -> tuple:
    """What every solve of ``factor`` hands C: :func:`_bind`'s function,
    ``plan_t`` and arena pointers, the list of every panel and the most
    rows below a diagonal block — checked and read once, and memoised on
    the factor while its arenas, plan, dtype and factotype are the ones
    checked."""
    held = (factor.L_arena, factor.U_arena, factor.D_arena,
            factor.index_cache)
    kind = (factor.dtype, factor.factotype)
    memo = factor.__dict__.get("_solve_binding")
    if (memo is None or memo[1] != kind
            or any(a is not b for a, b in zip(memo[0], held))):
        every_panel = np.arange(factor.symbol.n_cblk, dtype=np.int64)
        every_panel.flags.writeable = False
        memo = factor._solve_binding = (held, kind, _bind(
            factor, "solve_panels") + (every_panel, int(
                factor.index_cache.layout.below.max(initial=0))))
    return memo[2]


class SolveSweeps:
    """The native triangular sweeps of one solve, over ``x`` in place:
    the body of the ``FORWARD`` and ``BACKWARD`` tasks of :func:`run_dag`.

    ``x`` is ``(n,)`` or ``(n, nrhs)``, C-contiguous, writable and of the
    factor's dtype.  ``panels`` is the panel list the calls take ranges of
    (ascending within every range), run by the ``n_workers`` of
    :func:`run_dag` (one gather buffer each): the forward steps are
    left-looking over a slab arena (``L21 · y`` of every panel,
    Σ (height − width) · nrhs elements).  ``panels=None`` means
    every panel ascending, run by one thread in ascending ranges: no slab
    arena, each forward step pushes its product straight into the rows
    below — the same values in the same order, so the same bits.
    Everything is checked before any pointer crosses: the factor's arenas
    and plan once per factor (:func:`_solve_binding`), ``x`` and the
    panel ids here.
    """

    TASK_KINDS = frozenset({FORWARD, BACKWARD})

    def __init__(self, factor: Any, x: np.ndarray,
                 panels: Optional[np.ndarray] = None,
                 n_workers: int = 1) -> None:
        fn, struct, L, U, D, every_panel, max_below = _solve_binding(factor)
        n = factor.symbol.n
        if not (
            isinstance(x, np.ndarray) and x.dtype == factor.dtype
            and x.ndim in (1, 2) and x.shape[0] == n
            and x.flags.c_contiguous and x.flags.writeable
        ):
            raise ValueError(f"x must be a writable C-contiguous ({n},) or "
                             f"({n}, nrhs) array of {factor.dtype}")
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        if panels is None:
            self.panels = every_panel
            self.slab = None
        else:
            self.panels = _panel_list(factor, panels)
            self.slab = np.empty(
                (int(factor.index_cache.layout.row_ptr[-1]) - n) * nrhs,
                x.dtype)
        # One gather buffer per worker, rows of one array: the executor
        # finds worker w's at gather + w * gather_len.
        self.n_workers = max(1, n_workers)
        self.gather = np.empty((self.n_workers, max_below * nrhs), x.dtype)
        self._keepalive = (factor, x)
        # Raw addresses, taken once: ``ndarray.ctypes`` costs about a
        # microsecond per access, the call itself a few.
        self._base = self.panels.ctypes.data
        self._gather = self.gather.ctypes.data
        slab = None if self.slab is None else self.slab.ctypes.data
        self._call = functools.partial(
            fn, ctypes.byref(struct), _FACTOTYPES[factor.factotype], L, U, D,
            x.ctypes.data, nrhs, slab,
        )
        self.body = _SolveBody(
            plan=ctypes.addressof(struct), ft=_FACTOTYPES[factor.factotype],
            nrhs=nrhs, complex_=np.iscomplexobj(x),
            gather_len=self.gather.shape[1], L=L, U=U, D=D, x=x.ctypes.data,
            slab=slab, gather=self._gather, panels=self._base,
        )

    def run(self, lo: int, hi: int, backward: bool) -> None:
        """Forward steps of ``panels[lo:hi]`` ascending, or backward steps
        descending, on the first gather buffer (the executor, not this,
        runs the workers of :func:`run_dag`)."""
        if not 0 <= lo <= hi <= self.panels.size:
            raise ValueError("panel range out of bounds")
        self._call(self._base + 8 * lo, hi - lo, backward, self._gather)


def solve_sweeps(factor: Any, x: np.ndarray,
                 panels: Optional[np.ndarray] = None,
                 n_workers: int = 1) -> Optional[SolveSweeps]:
    """The native sweeps of a solve of ``factor``, or ``None`` for the
    NumPy bodies: the solve follows ``factor.kernels`` (and
    :func:`library`), and needs the factor's plan attached."""
    if (factor.kernels != "native" or factor.index_cache is None
            or library() is None):
        return None
    return SolveSweeps(factor, x, panels, n_workers)


class FactorizeTasks:
    """The native bodies of a factorization's tasks, on ``factor`` in
    place: a ``PANELS`` task ``(lo, hi)`` of :func:`run_dag` is
    :func:`factorize_panels` over ``panels[lo:hi]``, a ``BLOCK`` task
    ``(lo, hi, panel)`` is :func:`factorize_block` on rows ``[lo, hi)``
    of ``panel``; each of the ``n_workers`` has its own :class:`Scratch`,
    with phase counters when ``counters`` is true (:meth:`phases`).

    A diagonal block C hands back reaches :func:`_finish_task`, through a
    ``ctypes`` callback that takes the GIL, and runs those two functions'
    Python code for the rest of that task while the other workers stay in
    C.  An exception raised there is appended to ``errors``: the executor
    starts no task after it and :func:`run_dag` re-raises the first.
    Everything is checked here, before any pointer crosses: the factor's
    arenas and plan, the panel ids and the row blocks.
    """

    TASK_KINDS = frozenset({PANELS, BLOCK})

    def __init__(self, factor: Any, panels: np.ndarray,
                 n_workers: int = 1, counters: bool = False) -> None:
        _, struct, L, U, D = _bind(factor, "factorize_panels")
        self.panels = _panel_list(factor, panels)
        self.layout = factor.index_cache.layout
        blocks = _row_blocks(factor)
        scratch = [Scratch(factor, counters) for _ in range(max(1, n_workers))]
        self.scratch = scratch
        self.n_workers = len(scratch)
        self.errors: list[BaseException] = []
        pointers = ctypes.c_void_p * self.n_workers
        self._work = pointers(*(s.work.ctypes.data for s in scratch))
        self._ipiv = pointers(*(s.ipiv.ctypes.data for s in scratch))
        self._counters = pointers(*(s.counters_ptr for s in scratch))
        # The callback holds what it needs, not this object: no cycle
        # keeps a factor alive after its run.
        self._callback = _HANDBACK(functools.partial(
            _finish_task, factor, self.panels, blocks, scratch, self.errors))
        self.body = _FactoBody(
            plan=ctypes.addressof(struct), ft=_FACTOTYPES[factor.factotype],
            complex_=np.iscomplexobj(factor.L_arena), L=L, U=U, D=D,
            panels=self.panels.ctypes.data, block_ptr=blocks.ptr.ctypes.data,
            block_rows=blocks.rows.ctypes.data, threshold=_threshold(factor),
            work=ctypes.addressof(self._work),
            ipiv=ctypes.addressof(self._ipiv),
            counters=ctypes.addressof(self._counters), handback=self._callback,
        )

    def phases(self) -> Optional[dict[str, dict[str, list[int]]]]:
        """Per phase of :data:`PHASES`, the ``"ns"`` and ``"calls"`` each
        worker's scratch added up (hand-backs included), or ``None``
        without counters."""
        if self.scratch[0].counters is None:
            return None
        return {name: {"ns": [int(s.counters[i, 0]) for s in self.scratch],
                       "calls": [int(s.counters[i, 1]) for s in self.scratch]}
                for i, name in enumerate(PHASES)}


def _finish_task(factor: Any, panels: np.ndarray, blocks: Any,
                 scratch: list[Scratch], errors: list[BaseException],
                 kind: int, lo: int, hi: int, panel: int, at: int,
                 worker: int) -> int:
    """The rest of a task after C handed a diagonal block back: the block
    of a ``BLOCK`` task, else ``panels[lo + at]`` and the panels after
    it.  Returns 1 when it raised (the exception goes to ``errors``)."""
    try:
        if kind == BLOCK:
            panel_factorize(factor, panel, diagonal_only=True)
            return 0
        rest = panels[lo + at:hi]
        _hand_back(factor, int(rest[0]), blocks, scratch[worker])
        if rest.size > 1:
            factorize_panels(factor, rest[1:], scratch[worker])
    except BaseException as exc:     # re-raised by run_dag
        errors.append(exc)
        return 1
    return 0


# ----------------------------------------------------------------------
# The DAG executor
# ----------------------------------------------------------------------
def _int64(name: str, a: Any, ndim: int = 1) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype.kind not in "iu" or a.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D integer array")
    return np.ascontiguousarray(a, dtype=np.int64)


class DagTasks:
    """A task DAG as :func:`run_dag` reads it, checked once.

    ``succ_ptr`` / ``succ_list`` are the successors in CSR form,
    ``n_deps`` every task's in-degree (it must be the number of times the
    task appears in ``succ_list``), ``tasks`` one ``(lo, hi, kind,
    panel)`` record per task.  A ``FORWARD``, ``BACKWARD`` or ``PANELS``
    task runs the panels ``[lo, hi)`` of its body's panel list
    (``0 <= lo <= hi <= n_panels``; ``panel`` unused).  A ``BLOCK`` task
    runs rows ``[lo, hi)`` of ``panel`` of ``layout`` (the factor's
    :class:`~repro.kernels.indexcache.PanelLayout`): its diagonal block
    ``(0, width)``, or a range ``width <= lo < hi <= height`` below it.
    The graph must be acyclic — a cycle would never drain — and
    ``order`` is its Kahn order (:func:`repro.dag.tasks.kahn_order`, LIFO):
    what the executor runs with one worker, and what a run without the
    executor runs.  Every
    violation is a ``ValueError``, raised here, before any pointer can
    reach C.
    """

    def __init__(self, succ_ptr: Any, succ_list: Any, n_deps: Any,
                 tasks: Any, n_panels: int, layout: Any = None) -> None:
        self.succ_ptr = _int64("succ_ptr", succ_ptr)
        self.succ_list = _int64("succ_list", succ_list)
        self.n_deps = _int64("n_deps", n_deps)
        self.tasks = _int64("tasks", tasks, ndim=2)
        n = self.n_tasks = self.n_deps.size
        if self.tasks.shape != (n, 4):
            raise ValueError(f"tasks must be {n} (lo, hi, kind, panel) "
                             f"records")
        ptr = self.succ_ptr
        if (ptr.size != n + 1 or ptr[0] != 0 or ptr[-1] != self.succ_list.size
                or np.any(np.diff(ptr) < 0)):
            raise ValueError("succ_ptr is not a CSR pointer over succ_list")
        if self.succ_list.size and not (
                0 <= self.succ_list.min() and self.succ_list.max() < n):
            raise ValueError("successor out of range")
        if not np.array_equal(np.bincount(self.succ_list, minlength=n),
                              self.n_deps):
            raise ValueError("n_deps is not the in-degree of succ_list")
        lo, hi, kind, panel = self.tasks.T
        if not np.all((FORWARD <= kind) & (kind <= BLOCK)):
            raise ValueError("task kind must be 0 (forward), 1 (backward), "
                             "2 (panels) or 3 (block)")
        span = kind != BLOCK
        if not (np.all(0 <= lo[span]) and np.all(lo[span] <= hi[span])
                and np.all(hi[span] <= n_panels)):
            raise ValueError(f"task panel range out of [0, {n_panels}]")
        if not np.all(span):
            if layout is None:
                raise ValueError("block tasks need the panel layout")
            k, r0, r1 = panel[~span], lo[~span], hi[~span]
            if not np.all((0 <= k) & (k < layout.width.size)):
                raise ValueError("block task panel out of range")
            w, h = layout.width[k], layout.height[k]
            if not np.all(((r0 == 0) & (r1 == w))
                          | ((w <= r0) & (r0 < r1) & (r1 <= h))):
                raise ValueError("block task rows are neither a diagonal "
                                 "block nor a range below it")
        from repro.dag.tasks import kahn_order

        order = kahn_order(ptr, self.succ_list, self.n_deps)
        if order.size != n:
            raise ValueError("task graph contains a cycle")
        self._adopt(order, frozenset(np.unique(kind).tolist()),
                    int(hi[span].max(initial=0)), layout)

    @classmethod
    def checked(cls, succ_ptr: np.ndarray, succ_list: np.ndarray,
                n_deps: np.ndarray, tasks: np.ndarray, order: np.ndarray,
                kinds: int, max_hi: int, layout: Any) -> "DagTasks":
        """The DAG the plan pass built and checked as :meth:`__init__`
        checks (``repro_factor_plan``: every check above, and ``order``
        its Kahn order), from its int64 arrays; ``kinds`` is the bit set
        of its task kinds, ``max_hi`` its largest panel range end."""
        self = cls.__new__(cls)
        self.succ_ptr, self.succ_list, self.n_deps, self.tasks = (
            succ_ptr, succ_list, n_deps, tasks)
        self.n_tasks = n_deps.size
        self._adopt(order, frozenset(k for k in range(BLOCK + 1)
                                     if kinds >> k & 1), max_hi, layout)
        return self

    def _adopt(self, order: np.ndarray, kinds: frozenset, max_hi: int,
               layout: Any) -> None:
        self.order, self.kinds, self.max_hi = order, kinds, max_hi
        self.layout = layout
        self._struct = _Dag(
            n_tasks=self.n_tasks, succ_ptr=self.succ_ptr.ctypes.data,
            succ_list=self.succ_list.ctypes.data,
            n_deps=self.n_deps.ctypes.data, task=self.tasks.ctypes.data,
        )


class DagLogs:
    """Preallocated ``(cap, 4)`` int64 rows ``(task, worker, t0_ns,
    t1_ns)`` the executor writes a trace into, per kind: ``task`` (one
    per task run), ``fault`` (one per task whose hand-back raised), and
    the sync rows ``publish`` (taken under the mutex: ``t0 == t1``),
    ``park`` (one per idle episode, ``task`` -1) and ``wake`` (one per
    signal, ``task`` -1).  Times are nanoseconds since the call began.  A
    kind with capacity 0 is not recorded."""

    KINDS = ("task", "publish", "park", "wake", "fault")

    def __init__(self, caps: dict[str, int]) -> None:
        self.rows = {k: np.zeros((int(caps.get(k, 0)), 4), dtype=np.int64)
                     for k in self.KINDS}
        self.struct = _Trace(*(
            _Log(rows=a.ctypes.data if a.size else None, cap=a.shape[0], n=0)
            for a in self.rows.values()))

    @classmethod
    def sized_for(cls, n_tasks: int, n_workers: int,
                  sync: bool) -> "DagLogs":
        """Room for every row a run can write: a task runs and publishes
        once, a worker fails at most one task, a park episode ends with a
        pop or at the end, and a signal hands on a released task."""
        caps = {"task": n_tasks, "fault": n_workers}
        if sync:
            caps.update(publish=n_tasks, park=n_tasks + n_workers,
                        wake=n_tasks)
        return cls(caps)

    def append(self, kind: str, task: int, worker: int, t0: int,
               t1: int) -> None:
        """Write one row as the executor does (a run without it)."""
        log = getattr(self.struct, kind)
        if log.n < log.cap:
            self.rows[kind][log.n] = (task, worker, t0, t1)
            log.n += 1

    def written(self, kind: str) -> np.ndarray:
        """The rows of ``kind`` the run wrote."""
        return self.rows[kind][:getattr(self.struct, kind).n]


def run_dag(tasks: DagTasks, body: Union[SolveSweeps, FactorizeTasks],
            n_workers: int, logs: Optional[DagLogs] = None) -> None:
    """Run every task of ``tasks`` on ``body`` in one GIL-free call.

    The calling thread is worker 0; up to ``n_workers - 1`` pthreads
    join it, each started when a ready task waits that no parked worker
    will take (``body`` must have buffers for each).  A worker pops the
    newest ready task it released, else the oldest one (work stealing
    over one shared set; one worker pops LIFO).
    ``logs`` receives the trace rows; a log that runs out of room raises
    ``RuntimeError`` after the run (the run itself completed).  A
    hand-back that raised stops the executor from starting tasks; its
    exception is re-raised here once the workers have joined.
    """
    n_workers = int(n_workers)
    if not 1 <= n_workers <= body.n_workers:
        raise ValueError(f"n_workers must be in [1, {body.n_workers}]")
    if not tasks.kinds <= body.TASK_KINDS:
        raise ValueError(f"{type(body).__name__} does not run task kinds "
                         f"{sorted(tasks.kinds - body.TASK_KINDS)}")
    if tasks.max_hi > body.panels.size:
        raise ValueError("task panel range out of the body's panel list")
    if BLOCK in tasks.kinds and not all(
            np.array_equal(getattr(tasks.layout, a), getattr(body.layout, a))
            for a in ("width", "height")):
        raise ValueError("block tasks checked against another panel layout")
    solve = ctypes.byref(body.body) if isinstance(body, SolveSweeps) else None
    facto = None if solve is not None else ctypes.byref(body.body)
    status = load().repro_run_dag(
        ctypes.byref(tasks._struct), solve, facto, n_workers,
        None if logs is None else ctypes.byref(logs.struct))
    if status == -1:
        raise MemoryError("the DAG executor could not allocate its state")
    if status == -3:
        assert isinstance(body, FactorizeTasks) and body.errors
        raise body.errors[0]
    if status == -2:
        assert logs is not None
        full = {k: (getattr(logs.struct, k).n, logs.rows[k].shape[0])
                for k in DagLogs.KINDS
                if getattr(logs.struct, k).n > logs.rows[k].shape[0]}
        raise RuntimeError(f"trace log overflow (rows, capacity): {full}")


# ----------------------------------------------------------------------
# Sparse matrix times dense block
# ----------------------------------------------------------------------
_C128 = np.dtype(np.complex128)


@functools.lru_cache(maxsize=None)
def _complex_product() -> Optional[int]:
    """How NumPy rounds a complex128 product on this host, as
    ``SparseMatrixCSC.matvec`` forms it (``v * x``): ``1`` when
    each part is one fused multiply-add (its SIMD loops), ``0`` when each
    product is rounded, ``None`` when neither matches (complex mat-vecs
    then stay on NumPy)."""
    lib = load()
    rng = np.random.default_rng(0)
    n = 1024
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = v * x
    ptr = np.arange(n + 1, dtype=np.int64)     # the diagonal matrix v
    for fused in (1, 0):
        got = np.zeros(n, _C128)
        lib.repro_csc_matvec_z(n, ptr.ctypes.data, ptr.ctypes.data,
                               v.ctypes.data, x.ctypes.data, 1,
                               got.ctypes.data, fused)
        if np.array_equal(got, want):
            return fused
    return None


def csc_matvec(n_rows: int, colptr: np.ndarray, rowind: np.ndarray,
               values: np.ndarray, x: np.ndarray) -> Optional[np.ndarray]:
    """``A @ x`` in C for the CSC matrix ``(colptr, rowind, values)``,
    bit-identical to ``SparseMatrixCSC.matvec``'s NumPy body, or ``None``
    when that body must run: no :func:`library`, a dtype other than a
    float64 or complex128 matrix times an operand that casts to it
    exactly (a real matrix times a complex ``x`` is NumPy's), a host
    whose complex product rounding the C loop does not reproduce, or
    index arrays C could not follow safely (NumPy then raises its own
    error).  ``x`` is ``(n_cols,)`` or ``(n_cols, k)``."""
    dtype = values.dtype
    if dtype not in (np.float64, _C128) or x.dtype.kind not in "biufc" \
            or np.result_type(dtype, x.dtype) != dtype:
        return None
    lib = library()
    if lib is None:
        return None
    fused = _complex_product() if dtype == _C128 else 0
    if fused is None:
        return None
    colptr = np.ascontiguousarray(colptr, dtype=np.int64)
    rowind = np.ascontiguousarray(rowind, dtype=np.int64)
    values = np.ascontiguousarray(values)
    n_cols = x.shape[0]
    if not (colptr.size == n_cols + 1 and colptr[0] == 0
            and colptr[-1] == rowind.size == values.size
            and np.all(colptr[1:] >= colptr[:-1])
            and (rowind.size == 0
                 or (rowind.min() >= 0 and rowind.max() < n_rows))):
        return None
    x = np.ascontiguousarray(x, dtype=dtype)
    out = np.zeros((n_rows,) + x.shape[1:], dtype=dtype)
    k = 1 if x.ndim == 1 else x.shape[1]
    if out.size and k:
        args = (n_cols, colptr.ctypes.data, rowind.ctypes.data,
                values.ctypes.data, x.ctypes.data, k, out.ctypes.data)
        if dtype == _C128:
            lib.repro_csc_matvec_z(*args, fused)
        else:
            lib.repro_csc_matvec_d(*args)
    return out
