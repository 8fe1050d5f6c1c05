"""Numerical kernels.

Dense building blocks (POTRF / LDLᵀ / GETRF without pivoting, TRSM) used
by the panel tasks, the supernodal update kernel (the paper's CPU
two-step "temp buffer + dispatch" sparse GEMM), and the flop-count models
that drive both the static scheduler and the machine simulator.
"""

from repro.kernels.dense import (
    potrf,
    ldlt_nopiv,
    getrf_nopiv,
    trsm_lower_right,
    trsm_unit_lower_left,
)
from repro.kernels.panel import (
    panel_factorize,
    panel_update,
)
from repro.kernels.cost import (
    flops_potrf,
    flops_trsm,
    flops_gemm,
    flops_panel,
    flops_update,
    flops_total,
    complex_multiplier,
)

__all__ = [
    "potrf",
    "ldlt_nopiv",
    "getrf_nopiv",
    "trsm_lower_right",
    "trsm_unit_lower_left",
    "panel_factorize",
    "panel_update",
    "flops_potrf",
    "flops_trsm",
    "flops_gemm",
    "flops_panel",
    "flops_update",
    "flops_total",
    "complex_multiplier",
]
