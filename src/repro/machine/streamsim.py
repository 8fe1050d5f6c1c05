"""Multi-stream kernel-burst simulation (the Figure-3 experiment).

The paper measures the average throughput of 100 back-to-back DGEMM
kernel calls distributed round-robin over 1–3 CUDA streams, for three
kernels (cuBLAS, ASTRA, sparse-adapted ASTRA) across M ∈ [128, 10000]
with N = K = 128.  This module reruns that experiment against the same
GPU model the DAG simulator uses: kernels receive device capacity FIFO
by start time (earlier kernels up to their occupancy, later ones fill
the remainder), so small kernels genuinely overlap across streams while
large ones serialize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.perfmodel import (
    astra_rate,
    cublas_rate,
    gemm_occupancy,
    sparse_astra_rate,
    stream_shares,
)
from repro.runtime.tracing import ExecutionTrace

__all__ = ["simulate_kernel_burst", "BurstResult"]


@dataclass(frozen=True)
class BurstResult:
    """Average throughput of one burst configuration."""

    kernel: str
    m: int
    n: int
    k: int
    streams: int
    n_calls: int
    elapsed: float
    gflops: float
    #: Device bytes read+written across the burst: the A (m×k), B (n×k)
    #: and C (m×n) operands per call, with C inflated by the destination
    #: ``height_ratio`` for the sparse-scatter kernel (it walks the full
    #: gappy panel).  Feeds the BENCH_* arithmetic-intensity reports.
    bytes_touched: float = 0.0


def _solo_rate(kernel: str, m: int, n: int, k: int, streams: int,
               height_ratio: float) -> float:
    if kernel == "cublas":
        return cublas_rate(m, n, k)
    if kernel == "astra":
        return astra_rate(m, n, k, textures=streams <= 1)
    if kernel == "sparse":
        return sparse_astra_rate(m, n, k, height_ratio=height_ratio)
    raise ValueError(f"unknown kernel {kernel!r}")


def simulate_kernel_burst(
    kernel: str,
    m: int,
    n: int = 128,
    k: int = 128,
    *,
    streams: int = 1,
    n_calls: int = 100,
    height_ratio: float = 2.0,
    launch_overhead_s: float = 4e-6,
    trace: ExecutionTrace | None = None,
) -> BurstResult:
    """Simulate ``n_calls`` identical kernels round-robin over ``streams``.

    ``height_ratio`` only affects the ``sparse`` kernel (the paper's
    Fig. 3 uses a destination panel twice as tall as the product).
    Returns the average achieved GFlop/s, the paper's y-axis.

    ``trace`` (optional) receives one event per kernel call — task id =
    submission index, resource = ``"stream{s}"`` — plus the D8xx
    provenance stamps, so a seeded double-run of the burst can be
    fingerprint-compared like the other simulators' traces.
    """
    if trace is not None:
        trace.meta["producer"] = "machine.streamsim"
        trace.meta["clock"] = "virtual"
        trace.meta["rng"] = None    # the burst makes no stochastic choices
    flops = 2.0 * m * n * k
    rate = _solo_rate(kernel, m, n, k, streams, height_ratio) * 1e9
    occ = gemm_occupancy(m, n, k)
    if rate <= 0:
        raise ValueError("degenerate kernel shape")

    # Streams are FIFO: each stream runs its kernels in submission order;
    # the device shares capacity FIFO across the currently running heads.
    remaining = [n_calls // streams + (1 if s < n_calls % streams else 0)
                 for s in range(streams)]
    # Active head kernel per stream: remaining flops, start time.
    active: dict[int, float] = {}
    started: dict[int, float] = {}
    call_id: dict[int, int] = {}
    n_submitted = 0
    time = 0.0
    for s in range(streams):
        if remaining[s]:
            active[s] = flops
            started[s] = time + launch_overhead_s * s
            call_id[s] = n_submitted
            n_submitted += 1
            remaining[s] -= 1

    while active:
        # FIFO capacity shares with decaying overlap efficiency.
        order = sorted(active, key=lambda s: started[s])
        rates = {s: rate * frac for s, frac
                 in zip(order, stream_shares([occ] * len(order)))}
        # Advance to the earliest completion.
        dt = min(active[s] / rates[s] for s in order)
        time += dt
        finished = []
        for s in order:
            active[s] -= rates[s] * dt
            if active[s] <= flops * 1e-12:
                finished.append(s)
        for s in finished:
            if trace is not None:
                trace.record(call_id[s], f"stream{s}", started[s], time)
            del active[s]
            if remaining[s]:
                active[s] = flops
                started[s] = time + launch_overhead_s
                call_id[s] = n_submitted
                n_submitted += 1
                remaining[s] -= 1

    total_flops = flops * n_calls
    c_ratio = height_ratio if kernel == "sparse" else 1.0
    bytes_per_call = 8.0 * (m * k + n * k + c_ratio * m * n)
    return BurstResult(
        kernel=kernel,
        m=m,
        n=n,
        k=k,
        streams=streams,
        n_calls=n_calls,
        elapsed=time,
        gflops=total_flops / time / 1e9,
        bytes_touched=bytes_per_call * n_calls,
    )
