"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python -m pytest benchmarks/e2e -q

One ``--smoke`` run (all four workloads at collection scale 0.3, one
repeat, both passes) feeds most assertions.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
from spans import Tracer  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

needs_two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="the threaded workloads refuse to run on one CPU",
)


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(RUN + ["--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@needs_two_cpus
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_once(report, workload):
    detail = report["workloads"][workload]
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert sorted(detail[group]) == sorted(names)
        for m in SPEC[group]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
            got = detail[group][m["name"]]
            assert got["unit"] == m["unit"] != ""
            assert got["n"] >= 1
            assert math.isfinite(got["median"])
    assert detail["correct"] and detail["failed_ops_frac"] == 0.0


@needs_two_cpus
def test_report_carries_the_host(report):
    host = report["host"]
    assert host["nproc"] >= 2
    assert set(host["blas_threads"].values()) == {"1"}
    assert host["have_numba"] in (True, False)
    for key in ("python", "numpy", "scipy", "git_commit"):
        assert host[key]
    assert host["gemm_calib_gflops"] > 0


@needs_two_cpus
@pytest.mark.parametrize("workload", WORKLOADS)
def test_kernel_spans_and_driver_overhead_make_the_loop(report, workload):
    detail = report["workloads"][workload]
    layer = {k: v["median"] for k, v in detail["per_layer"].items()}
    parts = (layer["kernels.panel_factorize_s"]
             + layer["kernels.update_compute_s"]
             + layer["kernels.update_scatter_s"]
             + layer["bench.driver_overhead_s"])
    root = detail["per_layer_extra"]["kernels.loop_s"]["median"]
    assert parts == pytest.approx(root, rel=0.02)


@needs_two_cpus
@pytest.mark.parametrize("workload", WORKLOADS)
def test_phase_split_sums_to_time_to_solution(report, workload):
    detail = report["workloads"][workload]
    # Untraced pass: the phases are extras beside time_to_solution_s.
    extra = detail["end_to_end_extra"]
    phases = sum(extra[k]["median"]
                 for k in ("analyze_s", "factorize_s", "first_solve_s"))
    total = detail["end_to_end"]["time_to_solution_s"]["median"]
    assert phases == pytest.approx(total, rel=0.01)
    # Traced pass: the same split, reported as layer metrics.
    layer = detail["per_layer"]
    phases = sum(layer[k]["median"] for k in
                 ("core.analyze_s", "core.factorize_s", "core.first_solve_s"))
    total = detail["per_layer_extra"]["time_to_solution_s"]["median"]
    assert phases == pytest.approx(total, rel=0.01)


@needs_two_cpus
def test_contract_line_of_one_untraced_run():
    proc = subprocess.run(
        RUN + ["--workload", "shell2d_lu", "--seed", "3", "--smoke",
               "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert sorted(last["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"]
    )
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_threaded_workload_refuses_a_one_cpu_host():
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        RUN + ["--workload", "shell2d_lu", "--smoke", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert proc.returncode != 0
    assert "CPU" in proc.stderr
    assert not proc.stdout.strip().startswith("{")


def test_corrupted_solution_counts_as_failed():
    n = 50
    a = (sp.eye(n) * 4.0 + sp.eye(n, k=1) + sp.eye(n, k=-1)).tocsc()
    x = np.linspace(1.0, 2.0, n)
    b = a @ x
    ops = harness.Ops()
    ops.attempted = 2                       # the two solves judged below
    assert ops.check_solution(a, x, b)
    assert ops.failed == 0
    wrong = x.copy()
    wrong[7] += 1e-6
    assert not ops.check_solution(a, wrong, b)
    assert ops.failed == 1 and ops.failed / ops.attempted == 0.5
    assert not ops.check_solution(a, np.full(n, np.nan), b)
    assert ops.failed == 2


def test_raising_call_counts_as_failed_and_yields_no_timing():
    ops = harness.Ops()

    def boom():
        raise ValueError("no")

    assert ops.timed(boom) == (None, None)
    assert (ops.attempted, ops.failed) == (1, 1)
    out, seconds = ops.timed(lambda: 5)
    assert out == 5 and seconds >= 0.0
    assert (ops.attempted, ops.failed) == (2, 1)


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    with tr.span("root") as root:
        tr.call("leaf", sum, range(1000))
        with tr.span("inner") as inner:
            tr.call("leaf", sum, range(1000))
    assert [s[3] for s in tr.spans] == [-1, root, root, inner]
    assert tr.count("leaf") == 2
    children = tr.duration(1) + tr.duration(inner)
    assert tr.self_time(root) + children == pytest.approx(tr.duration(root))
    assert tr.self_time(root) >= 0.0


def test_chrome_trace_is_loadable(tmp_path):
    tr = Tracer()
    with tr.span("root"):
        tr.call("leaf", sum, range(10))
    path = tmp_path / "trace.json"
    tr.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["root", "leaf"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0


@pytest.mark.parametrize("a, b, better, expected", [
    ([1.00, 1.01, 1.02], [1.03, 1.04, 1.05], "lower", "same"),
    ([1.00, 1.01, 1.02], [1.20, 1.21, 1.22], "lower", "worse"),
    ([1.00, 1.01, 1.02], [0.80, 0.81, 0.82], "lower", "better"),
    ([1.00, 1.01, 1.02], [0.80, 0.81, 0.82], "higher", "worse"),
    # Quartiles wider than the 10 % bound: a 12 % move is not resolved ...
    ([0.8, 1.0, 1.2], [0.9, 1.12, 1.3], "lower", "unresolved"),
    # ... unless every sample of B beats every sample of A.
    ([0.8, 1.0, 1.2], [0.5, 0.6, 0.7], "lower", "better"),
    ([0.8, 1.0, 1.2], [1.5, 1.6, 1.9], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, expected):
    got = compare.verdict(harness.summarise(a), harness.summarise(b), 0.10,
                          better)
    assert got == expected
