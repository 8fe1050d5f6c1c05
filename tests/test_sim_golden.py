"""Golden fingerprints of the three simulators.

Figures 2–4, the distributed tables and every D8xx baseline are
functions of what the machine simulator, the distributed simulator and
the kernel-burst simulator emit.  A refactor of their event loop, fault
ledger or stream-share arithmetic may move code around, never bits: each
case below pins the canonical trace fingerprint, the makespan as
``float.hex()`` and the result counters.  The digests in
``tests/data/sim_golden.json`` were recorded before ``repro.sim`` existed
(when each simulator hand-rolled its own heap, clock and fault ledger)
with ``python -m tests.test_sim_golden --record``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.dag import build_dag
from repro.distributed import ClusterSpec, map_cblks, simulate_distributed
from repro.machine import mirage, simulate
from repro.machine.streamsim import simulate_kernel_burst
from repro.resilience import FaultModel, FaultSpec, HealthPolicy, RecoveryPolicy
from repro.runtime import get_policy
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.generators import grid_laplacian_2d
from repro.symbolic import SymbolicOptions, analyze

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"

POLICIES = ("native", "starpu", "parsec")


def _symbols():
    """``python -m repro verify``'s default problem (lap2d, size 20), and
    the size-40 grid on which both cost-model policies offload."""
    return {
        n: analyze(grid_laplacian_2d(n, jitter=0.05, seed=0),
                   SymbolicOptions(split_max_width=32)).symbol
        for n in (20, 40)
    }


def _policy(name: str):
    # Low offload threshold so the small problem reaches the GPU paths
    # (the idiom of the verify passes); native is CPU-only.
    if name == "native":
        return get_policy(name)
    return get_policy(name, gpu_flops_threshold=1e3)


def _machine_case(syms, name, n_gpus, ft, scenario=None, size=20):
    sym = syms[size]
    machine = mirage(n_cores=4, n_gpus=n_gpus,
                     streams_per_gpu=2 if n_gpus else 1)
    pol = _policy(name)
    dag = build_dag(sym, ft, granularity=pol.traits.granularity,
                    recompute_ld=pol.traits.recompute_ld)
    kw = {}
    if scenario is not None:
        mk = simulate(dag, machine, _policy(name)).makespan
        kw = scenario(mk)
    r = simulate(dag, machine, _policy(name), **kw)
    return {
        "fingerprint": r.trace.fingerprint(),
        "makespan": r.makespan.hex(),
        "next_seq": r.trace.next_seq,
        "n_cpu_workers": r.n_cpu_workers,
        "bytes_h2d": float(r.bytes_h2d).hex(),
        "bytes_d2h": float(r.bytes_d2h).hex(),
        "peak_gpu_bytes": float(r.peak_gpu_bytes).hex(),
        "n_faults": r.n_faults,
        "n_reexecuted": r.n_reexecuted,
        "bytes_retransferred": float(r.bytes_retransferred).hex(),
        "n_health_transitions": r.n_health_transitions,
        "n_hedges": r.n_hedges,
    }


def _r6xx(mk):
    """The ``repro verify`` resilience scenario (loses GPU 0)."""
    specs = [FaultSpec("worker-crash", time=0.0, resource=0),
             FaultSpec("straggler", time=0.0, factor=3.0),
             FaultSpec("gpu-loss", time=0.3 * mk, resource=0)]
    return {"faults": FaultModel(specs, seed=0, task_fail_rate=0.02),
            "recovery": RecoveryPolicy()}


def _r7xx(mk):
    """The ``repro verify`` limplock + hedge scenario."""
    return {
        "faults": FaultModel(
            [FaultSpec("limplock", time=0.1 * mk, resource=0, factor=50.0)],
            seed=0),
        "health": HealthPolicy(
            min_samples=3, suspect_ratio=2.0, degraded_ratio=4.0,
            quarantine_ratio=3.0, quarantine_s=0.6 * mk,
            hedge=True, hedge_ratio=3.0),
    }


def _link_chaos(mk):
    """Flaky, degraded PCIe links with jittered backoff."""
    specs = [FaultSpec("degraded-link", time=0.0, resource=0, factor=3.0),
             FaultSpec("limplock", time=0.2 * mk, resource=1, factor=5.0)]
    return {"faults": FaultModel(specs, seed=3, transfer_fail_rate=0.2,
                                 straggler_rate=0.05),
            "recovery": RecoveryPolicy(jitter=0.5, max_retries=10)}


def _dist_case(syms, fanin=True, scenario=None):
    sym = syms[20]
    owner = map_cblks(sym, 2, strategy="cyclic")
    cluster = ClusterSpec(n_nodes=2, cores_per_node=4)
    kw = {}
    if scenario is not None:
        mk = simulate_distributed(sym, owner, cluster, fanin=fanin).makespan
        kw = scenario(mk)
    r = simulate_distributed(sym, owner, cluster, fanin=fanin,
                             collect_trace=True, **kw)
    return {
        "fingerprint": r.trace.fingerprint(),
        "makespan": r.makespan.hex(),
        "next_seq": r.trace.next_seq,
        "n_messages": r.n_messages,
        "bytes_on_wire": float(r.bytes_on_wire).hex(),
        "node_busy": [float(b).hex() for b in r.node_busy],
        "n_faults": r.n_faults,
        "n_reexecuted": r.n_reexecuted,
        "bytes_retransferred": float(r.bytes_retransferred).hex(),
        "n_health_transitions": r.n_health_transitions,
    }


def _node_fail(mk):
    return {"faults": FaultModel(
        [FaultSpec("node-fail", time=0.3 * mk, resource=1)], seed=5),
        "recovery": RecoveryPolicy()}


def _message_loss(mk):
    return {"faults": FaultModel(seed=6, transfer_fail_rate=0.3),
            "recovery": RecoveryPolicy()}


def _dist_limp_health(mk):
    specs = [FaultSpec("limplock", time=0.1 * mk, resource=0, factor=8.0),
             FaultSpec("degraded-link", time=0.0, resource=1, factor=4.0)]
    return {"faults": FaultModel(specs, seed=4, transfer_fail_rate=0.1),
            "recovery": RecoveryPolicy(jitter=0.5, max_retries=10),
            "health": HealthPolicy(min_samples=3, backpressure_limit=1)}


def _burst_case(kernel, streams):
    tr = ExecutionTrace()
    r = simulate_kernel_burst(kernel, 600, streams=streams, n_calls=40,
                              trace=tr)
    return {
        "fingerprint": tr.fingerprint(),
        "makespan": float(r.elapsed).hex(),
        "gflops": float(r.gflops).hex(),
        "bytes_touched": float(r.bytes_touched).hex(),
    }


def _cases():
    for name in POLICIES:
        for g in (0, 1):
            for ft in ("llt", "ldlt"):
                yield (f"machine/{name}/g{g}/{ft}",
                       lambda s, n=name, g=g, ft=ft: _machine_case(s, n, g, ft))
        yield (f"machine/{name}/r6xx",
               lambda s, n=name: _machine_case(s, n, 1, "llt", _r6xx))
    yield ("machine/parsec/r7xx",
           lambda s: _machine_case(s, "parsec", 1, "llt", _r7xx))
    for name in ("starpu", "parsec"):
        for ft in ("llt", "ldlt"):
            yield (f"machine/{name}/lap40/g2/{ft}",
                   lambda s, n=name, ft=ft: _machine_case(s, n, 2, ft,
                                                          size=40))
        yield (f"machine/{name}/lap40/r6xx",
               lambda s, n=name: _machine_case(s, n, 2, "llt", _r6xx, 40))
    yield ("machine/starpu/lap40/link-chaos",
           lambda s: _machine_case(s, "starpu", 2, "llt", _link_chaos, 40))
    yield "dist/fanin", lambda s: _dist_case(s, True)
    yield "dist/no-fanin", lambda s: _dist_case(s, False)
    yield "dist/node-fail", lambda s: _dist_case(s, True, _node_fail)
    yield "dist/message-loss", lambda s: _dist_case(s, True, _message_loss)
    yield ("dist/limp-health",
           lambda s: _dist_case(s, False, _dist_limp_health))
    for kernel in ("cublas", "astra", "sparse"):
        for streams in (1, 2, 3):
            yield (f"burst/{kernel}/s{streams}",
                   lambda s, k=kernel, n=streams: _burst_case(k, n))


CASES = dict(_cases())


@pytest.fixture(scope="module")
def symbols():
    return _symbols()


@pytest.mark.parametrize("key", list(CASES))
def test_simulator_matches_golden(key, symbols):
    golden = json.loads(GOLDEN.read_text())
    assert CASES[key](symbols) == golden[key]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_sim_golden --record")
    syms = _symbols()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {key: case(syms) for key, case in CASES.items()},
        indent=2, sort_keys=True) + "\n")
