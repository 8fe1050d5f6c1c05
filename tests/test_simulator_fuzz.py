"""Property-based fuzzing of the scheduling stack.

Random sparse problems × policies × machine shapes: every combination
must produce a complete, feasible schedule (the trace checker enforces
dependencies, CPU exclusivity, and update mutexes) that conserves work.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import build_dag
from repro.machine import MachineSpec, mirage, simulate
from repro.runtime import get_policy
from repro.sparse.generators import random_pattern_spd
from repro.symbolic import SymbolicOptions, analyze


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(20, 120),
    policy=st.sampled_from(["native", "starpu", "parsec"]),
    cores=st.integers(1, 6),
    gpus=st.integers(0, 2),
    streams=st.integers(1, 3),
    factotype=st.sampled_from(["llt", "ldlt", "lu"]),
    split=st.sampled_from([None, 8, 32]),
)
def test_fuzz_simulated_schedules(seed, n, policy, cores, gpus, streams,
                                  factotype, split):
    mat = random_pattern_spd(n, 5.0, seed=seed, locality=0.4)
    res = analyze(mat, SymbolicOptions(split_max_width=split))
    pol = get_policy(policy)
    dag = build_dag(
        res.symbol, factotype,
        granularity=pol.traits.granularity,
        recompute_ld=pol.traits.recompute_ld,
    )
    machine = mirage(n_cores=cores, n_gpus=gpus,
                     streams_per_gpu=streams if gpus else 1)
    r = simulate(dag, machine, pol)
    r.trace.validate(dag)
    assert len(r.trace.events) == dag.n_tasks
    assert r.makespan > 0
    # Work conservation: busy time never exceeds capacity x makespan.
    cpu_busy = sum(v for k, v in r.busy.items() if k.startswith("cpu"))
    assert cpu_busy <= r.n_cpu_workers * r.makespan * (1 + 1e-9)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 100),
    nodes=st.integers(1, 5),
    fanin=st.booleans(),
    strategy=st.sampled_from(["subtree", "block", "cyclic"]),
)
def test_fuzz_distributed(seed, n, nodes, fanin, strategy):
    from repro.distributed import ClusterSpec, map_cblks, simulate_distributed

    mat = random_pattern_spd(n, 5.0, seed=seed, locality=0.4)
    res = analyze(mat)
    owner = map_cblks(res.symbol, nodes, strategy=strategy)
    r = simulate_distributed(
        res.symbol, owner,
        ClusterSpec(n_nodes=nodes, cores_per_node=2),
        fanin=fanin,
    )
    assert r.makespan > 0
    if nodes == 1:
        assert r.n_messages == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(30, 90))
def test_fuzz_subtree_fusion_preserves_flops(seed, n):
    mat = random_pattern_spd(n, 4.0, seed=seed, locality=0.5)
    res = analyze(mat)
    plain = build_dag(res.symbol, "llt")
    rng = np.random.default_rng(seed)
    thr = float(rng.uniform(1e2, 1e7))
    fused = build_dag(res.symbol, "llt", fuse_subtree_flops=thr)
    fused.validate()
    assert fused.total_flops() == pytest.approx(plain.total_flops())
    r = simulate(fused, mirage(n_cores=3), get_policy("parsec"))
    r.trace.validate(fused)
