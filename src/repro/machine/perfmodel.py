"""Kernel performance models.

Two families:

* **CPU** — per-core rates for the panel and update kernels, saturating
  with block size (small blocks can't keep the FPU pipelines full).
* **GPU** — the three DGEMM kernels of the paper's Figure 3, for the
  panel-update shape ``C(M×N) −= A(M×K)·B(N×K)ᵀ``:

  - ``cublas_rate`` — the closed-source reference; its shape-dependent
    throughput never reaches the square-matrix peak in this configuration;
  - ``astra_rate`` — the auto-tuned open kernel: ~15 % below cuBLAS on
    this rectangular shape (tuned on squares), a further 5 % lost when
    textures are disabled for multi-stream concurrency;
  - ``sparse_astra_rate`` — the paper's modified kernel writing directly
    into the gappy destination panel: loses memory coalescence as the
    destination panel grows relative to the product ("the taller the
    panel, the lower the performance").

  ``gemm_occupancy`` gives the fraction of the GPU one kernel can occupy
  alone; the simulator's processor-sharing GPU model turns that into the
  multi-stream gains of Figure 3.

All rates are in GFlop/s; flops are paper-convention (complex ×4 handled
upstream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CpuPerfModel",
    "GpuKernelModel",
    "cublas_rate",
    "astra_rate",
    "sparse_astra_rate",
    "gemm_occupancy",
    "stream_shares",
]


# ----------------------------------------------------------------------
# GPU kernel models (Figure 3)
# ----------------------------------------------------------------------

#: Square-matrix cuBLAS DGEMM peak on an M2070 ("cuBLAS peak" line).
CUBLAS_PEAK_GFLOPS = 302.0

#: Saturation half-sizes of the rectangular-shape throughput curve.
_M_HALF = 420.0
_N_HALF = 26.0
_K_HALF = 26.0
#: Asymptote chosen so M=10000, N=K=128 lands near the paper's ~250 GF/s.
_R_INF = 415.0

#: Overlap efficiency decay: the i-th concurrent kernel contributes its
#: occupancy × DECAY^i (scheduling friction makes stream gains sub-linear,
#: as the measured Fig. 3 two→three stream steps show).
STREAM_OVERLAP_DECAY = 0.8

#: Rate floor of a kernel left no capacity: starved kernels keep creeping
#: forward so an event loop waiting on them cannot deadlock.
STARVED_RATE_FRACTION = 0.02


def stream_shares(occupancies: Sequence[float]) -> list[float]:
    """Fraction of its solo rate each concurrent kernel on one GPU gets.

    ``occupancies`` lists the running kernels in FIFO (start-time)
    order.  The i-th kernel receives ``min(occ · DECAY^i, capacity
    left)`` of the device, so big kernels serialize while small ones
    overlap — the multi-stream effect of Figure 3.  Both the DAG
    simulator and :func:`repro.machine.streamsim.simulate_kernel_burst`
    share device capacity through this one function.
    """
    capacity = 1.0
    fracs = []
    for i, occ in enumerate(occupancies):
        share = min(occ * STREAM_OVERLAP_DECAY**i, max(capacity, 0.0))
        capacity -= share
        fracs.append(max(share / occ, STARVED_RATE_FRACTION))
    return fracs


def cublas_rate(m: float, n: float, k: float) -> float:
    """cuBLAS DGEMM GFlop/s for the update shape (clamped at peak)."""
    if min(m, n, k) <= 0:
        return 0.0
    r = (
        _R_INF
        * (m / (m + _M_HALF))
        * (n / (n + _N_HALF))
        * (k / (k + _K_HALF))
    )
    return float(min(r, CUBLAS_PEAK_GFLOPS))


def astra_rate(m: float, n: float, k: float, *, textures: bool = True) -> float:
    """ASTRA auto-tuned kernel: 15 % under cuBLAS on this shape; disabling
    textures (required for concurrent streams) costs another 5 %."""
    r = 0.85 * cublas_rate(m, n, k)
    return r if textures else 0.95 * r


def sparse_astra_rate(
    m: float, n: float, k: float, *, height_ratio: float = 1.0
) -> float:
    """The paper's sparse (scatter) kernel.

    ``height_ratio`` = destination panel height / product height ``m``;
    the extra C-panel memory traffic lowers the flop-per-byte ratio
    roughly in that proportion (Fig. 3 measured C twice as tall as A and
    lost ~30 % at large M).
    """
    if height_ratio < 1.0:
        height_ratio = 1.0
    penalty = 1.0 / (1.0 + 0.45 * (height_ratio - 1.0))
    return astra_rate(m, n, k, textures=False) * penalty


def gemm_occupancy(m: float, n: float, k: float) -> float:
    """Fraction of the GPU a single kernel instance can occupy.

    Driven by the number of resident thread blocks along M; small update
    kernels leave most multiprocessors idle, which is what multiple
    streams reclaim.  Defined as exactly the M-saturation factor of the
    throughput curves, so a kernel's solo rate factors as
    ``shape_asymptote(n, k) × occupancy(m)`` — the identity the
    processor-sharing model relies on.
    """
    occ = m / (m + _M_HALF)
    return float(min(1.0, max(occ, 1e-3)))


@dataclass(frozen=True)
class GpuKernelModel:
    """Bundle of GPU kernel model + spec-level scaling.

    ``kernel`` selects the Figure-3 curve used for update tasks;
    simulations of the solver always use ``"sparse"`` (the only kernel
    that can run on the gappy panels); ``"cublas"``/``"astra"`` exist for
    the Figure-3 bench itself.
    """

    kernel: str = "sparse"

    def rate(
        self, m: float, n: float, k: float, *, height_ratio: float = 1.0,
        streams: int = 1,
    ) -> float:
        if self.kernel == "cublas":
            return cublas_rate(m, n, k)
        if self.kernel == "astra":
            return astra_rate(m, n, k, textures=streams <= 1)
        if self.kernel == "sparse":
            return sparse_astra_rate(m, n, k, height_ratio=height_ratio)
        raise ValueError(f"unknown GPU kernel {self.kernel!r}")

    def occupancy(self, m: float, n: float, k: float) -> float:
        return gemm_occupancy(m, n, k)


# ----------------------------------------------------------------------
# CPU kernel model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CpuPerfModel:
    """Per-core CPU kernel efficiencies.

    ``eff(kernel, sizes)`` returns the fraction of per-core peak the
    kernel achieves; durations are ``flops / (peak · eff)``.  The numbers
    are calibrated to MKL-on-Westmere behaviour: large GEMMs ~90 % of
    peak, panel factorizations lower, everything degrading on small
    blocks.
    """

    gemm_eff_max: float = 0.92
    gemm_half_dim: float = 40.0
    panel_eff_max: float = 0.62
    panel_half_dim: float = 64.0
    scatter_penalty: float = 0.88   # temp-buffer + dispatch of the update
    ldlt_recompute_penalty: float = 0.88  # full LDLᵀ op per update
    #                                       (generic runtimes, §V-A)
    index_penalty: float = 0.93     # per-update scatter-map re-derivation
    #                                 (runtimes without precomputed maps)

    def gemm_eff(self, m: float, n: float, k: float) -> float:
        """Efficiency of an ``m×n×k`` GEMM (geometric-mean size law)."""
        if min(m, n, k) <= 0:
            return self.gemm_eff_max
        s = (m * n * k) ** (1.0 / 3.0)
        return self.gemm_eff_max * s / (s + self.gemm_half_dim)

    def update_eff(
        self, m: float, n: float, k: float, *, factotype: str = "llt",
        recompute_ld: bool = False, index_cache: bool = True,
    ) -> float:
        eff = self.gemm_eff(m, n, k) * self.scatter_penalty
        if factotype == "ldlt" and recompute_ld:
            eff *= self.ldlt_recompute_penalty
        if not index_cache:
            # Symbolic index bookkeeping re-derived inside every task
            # (searchsorted maps + rebases) — removed entirely when the
            # runtime carries precomputed couple maps.
            eff *= self.index_penalty
        return eff

    solve_eff_max: float = 0.12   # triangular solves / GEMV are
    #                               bandwidth-bound: ~1 flop per byte

    def solve_eff(self, size: float) -> float:
        """Efficiency of solve-phase kernels (tri-solve / GEMV slices)."""
        s = max(size, 1.0)
        return self.solve_eff_max * s / (s + 32.0)

    def panel_eff(self, width: float, below: float) -> float:
        """Efficiency of a panel task (POTRF + TRSM)."""
        s = max(width, 1.0)
        base = self.panel_eff_max * s / (s + self.panel_half_dim)
        # A tall TRSM part behaves closer to GEMM: blend by row share.
        total = width + below
        if total > 0 and below > 0:
            gemm_like = self.gemm_eff(below, width, width) * 0.9
            base = (width * base + below * gemm_like) / total
        return base
