"""End-to-end tests of the benchmark command-line entry points.

Each ``bench_*.py`` main() is run in-process at a tiny scale on a subset
of matrices: the full sweep logic, table formatting, and CSV output all
execute, just on cheap inputs.  This is the regression net for the
harness itself (deliverable d).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture()
def bench_env(tmp_path, monkeypatch):
    """Import benchmark modules with results redirected to tmp_path."""
    sys.path.insert(0, str(BENCH_DIR))
    import common

    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(common, "CACHE_DIR", tmp_path / ".cache")
    common._memory_cache.clear()

    def load(name):
        spec = importlib.util.spec_from_file_location(
            name, BENCH_DIR / f"{name}.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    yield load, tmp_path
    sys.path.remove(str(BENCH_DIR))
    common._memory_cache.clear()


def test_table1_main(bench_env, capsys):
    load, tmp = bench_env
    mod = load("bench_table1")
    mod.main(["--scale", "0.25", "--matrices", "afshell10", "MHD"])
    out = capsys.readouterr().out
    assert "afshell10" in out and "MHD" in out
    assert (tmp / "table1.csv").exists()


def test_fig2_main(bench_env, capsys):
    load, tmp = bench_env
    mod = load("bench_fig2_cpu_scaling")
    mod.main(["--scale", "0.3", "--matrices", "audi"])
    out = capsys.readouterr().out
    for policy in ("native", "starpu", "parsec"):
        assert policy in out
    csv = (tmp / "fig2_cpu_scaling.csv").read_text()
    assert csv.count("\n") == 4  # header + 3 policies


def test_fig3_main(bench_env, capsys):
    load, tmp = bench_env
    mod = load("bench_fig3_gemm_streams")
    mod.main([])
    out = capsys.readouterr().out
    assert "cuBLAS square-matrix peak" in out
    assert (tmp / "fig3_gemm_streams.csv").exists()


def test_fig4_main(bench_env, capsys):
    load, tmp = bench_env
    mod = load("bench_fig4_gpu_scaling")
    mod.main(["--scale", "0.3", "--matrices", "MHD"])
    out = capsys.readouterr().out
    assert "pastix(cpu)" in out and "parsec-3s" in out
    csv = (tmp / "fig4_gpu_scaling.csv").read_text()
    assert csv.count("\n") == 5  # header + 4 configs


def test_distributed_main(bench_env, capsys):
    load, tmp = bench_env
    mod = load("bench_distributed")
    mod.main(["--scale", "0.4"])
    out = capsys.readouterr().out
    assert "strong scaling" in out
    assert "latency sensitivity" in out
    assert "mapping strategies" in out
    for f in ("distributed_scaling.csv", "distributed_latency.csv",
              "distributed_mapping.csv"):
        assert (tmp / f).exists()


def test_common_table_formatting(bench_env):
    load, _ = bench_env
    import common

    txt = common.format_table(["a", "bb"], [["1", "22"], ["333", "4"]])
    lines = txt.splitlines()
    assert len(lines) == 4
    assert all(len(l) == len(lines[0]) for l in lines)


def test_common_analysis_cache(bench_env):
    load, tmp = bench_env
    import common

    a = common.analyzed("afshell10", 0.2)
    b = common.analyzed("afshell10", 0.2)
    assert a is b  # memory cache
    common._memory_cache.clear()
    c = common.analyzed("afshell10", 0.2)  # disk cache
    assert c.symbol.nnz() == a.symbol.nnz()


# ----------------------------------------------------------------------
# Machine-readable BENCH_*.json payloads and the --verify gate.
# ----------------------------------------------------------------------
def test_table1_writes_bench_json(bench_env, capsys):
    import json

    load, tmp = bench_env
    mod = load("bench_table1")
    mod.main(["--scale", "0.25", "--matrices", "MHD", "--verify"])
    data = json.loads((tmp / "BENCH_table1.json").read_text())
    assert data["figure"] == "table1" and data["verified"] is True
    (cell,) = data["cells"]
    assert cell["matrix"] == "MHD"
    assert cell["nnz_l"] >= cell["nnz_a"] > 0
    assert cell["flops"] > 0


def test_fig2_bench_json_and_verify(bench_env, capsys):
    import json

    load, tmp = bench_env
    mod = load("bench_fig2_cpu_scaling")
    mod.main(["--scale", "0.3", "--matrices", "audi", "--verify"])
    data = json.loads((tmp / "BENCH_fig2_cpu_scaling.json").read_text())
    cells = data["cells"]
    assert {c["policy"] for c in cells} == {"native", "starpu", "parsec"}
    for c in cells:
        assert c["gflops"] > 0 and c["makespan_s"] > 0
        assert c["verified"] is True
        assert c["n_gpus"] == 0 and c["bytes_h2d"] == 0.0


def test_fig3_bench_json(bench_env, capsys):
    import json

    load, tmp = bench_env
    mod = load("bench_fig3_gemm_streams")
    mod.main([])
    data = json.loads((tmp / "BENCH_fig3_gemm_streams.json").read_text())
    assert data["cublas_peak_gflops"] > 0
    assert all(c["bytes_touched"] > 0 for c in data["cells"])


def test_fig4_bench_json_reports_traffic(bench_env, capsys):
    import json

    load, tmp = bench_env
    mod = load("bench_fig4_gpu_scaling")
    # MHD offloads from scale 0.5 up; smaller problems stay CPU-only
    # under the scheduler's opportunistic offload heuristic.
    mod.main(["--scale", "0.5", "--matrices", "MHD", "--verify"])
    data = json.loads((tmp / "BENCH_fig4_gpu_scaling.json").read_text())
    cells = data["cells"]
    # 1 CPU-only reference + 3 hybrid configs x 4 GPU counts.
    assert len(cells) == 13
    assert {c["label"] for c in cells} == {
        "pastix(cpu)", "starpu", "parsec-1s", "parsec-3s",
    }
    gpu_cells = [c for c in cells if c["n_gpus"] > 0]
    assert gpu_cells
    # GPU configurations move bytes and occupy device memory.
    assert any(c["bytes_h2d"] > 0 for c in gpu_cells)
    assert any(c["peak_gpu_bytes"] > 0 for c in gpu_cells)
    assert all(c["verified"] is True for c in cells)


def test_simulate_cell_verify_gate(bench_env):
    load, _ = bench_env
    import common

    cell = common.simulate_cell("MHD", "parsec", scale=0.3, n_cores=4,
                                n_gpus=1, streams=2, verify=True)
    assert cell["verified"] is True
    assert cell["gflops"] > 0


# ----------------------------------------------------------------------
# Threaded-scheduler sweep + perf-regression gate.
# ----------------------------------------------------------------------
def test_bench_threaded_quick(bench_env, capsys):
    import json

    load, tmp = bench_env
    mod = load("bench_threaded")
    out_path = tmp / "bt.json"
    mod.main(["--scale", "0.3", "--matrices", "audi", "--workers", "2",
              "--repeats", "1", "--verify", "--out", str(out_path)])
    out = capsys.readouterr().out
    for sched in ("fifo", "ws", "priority", "affinity", "adaptive"):
        assert sched in out
    data = json.loads(out_path.read_text())
    assert data["bench"] == "threaded"
    assert data["calib_gflops"] > 0
    # 5 schedulers x 3 hot-path variants (base/opt/compiled).
    assert len(data["cells"]) == 15
    assert {c["variant"] for c in data["cells"]} == {
        "base", "opt", "compiled",
    }
    for c in data["cells"]:
        assert c["wall_s"] > 0
        assert c["model_makespan_s"] >= c["model_cp_s"] > 0
        assert c["verified"] is True
        # Compiled cells record the 2D split and the effective backend
        # (which degrades to "numpy" when numba is absent).
        if c["variant"] == "compiled":
            assert c["split_rows"] == mod.SPLIT_ROWS
            assert c["kernels"] in ("numpy", "compiled")
        else:
            assert c["split_rows"] is None
            assert c["kernels"] == "numpy"
    # The summary compares each scheduler against the fifo baseline.
    assert {s["scheduler"] for s in data["summary"]} == {
        "ws", "priority", "affinity", "adaptive",
    }
    # Every scheduler gets both ladder pairings (opt/base,
    # compiled/opt).
    assert {(s["scheduler"], s["pair"])
            for s in data["variant_summary"]} == {
        (sched, pair)
        for sched in ("fifo", "ws", "priority", "affinity", "adaptive")
        for pair in ("opt/base", "compiled/opt")
    }
    for s in data["variant_summary"]:
        assert s["model_speedup"] > 0


def test_perf_compare_pass_and_regression(bench_env, capsys):
    import copy
    import json

    load, tmp = bench_env
    bt = load("bench_threaded")
    pc = load("perf_compare")
    base_path = tmp / "base.json"
    bt.main(["--scale", "0.3", "--matrices", "audi", "--workers", "2",
             "--repeats", "1", "--out", str(base_path)])
    capsys.readouterr()

    # Identical report: must pass.
    assert pc.main([str(base_path), str(base_path)]) == 0
    assert "PASS" in capsys.readouterr().out

    # Doctor one cell's replay makespan beyond the 15% gate: must fail.
    doctored = copy.deepcopy(json.loads(base_path.read_text()))
    doctored["cells"][0]["model_makespan_s"] *= 1.5
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(doctored))
    assert pc.main([str(base_path), str(bad_path)]) == 1
    assert "REGRESSION(model)" in capsys.readouterr().out

    # A gross wall slowdown trips the lax wall backstop even when the
    # replay metric is untouched.
    slow = copy.deepcopy(json.loads(base_path.read_text()))
    for c in slow["cells"]:
        c["wall_s"] *= 2.0
    slow_path = tmp / "slow.json"
    slow_path.write_text(json.dumps(slow))
    assert pc.main([str(base_path), str(slow_path)]) == 1
    assert "REGRESSION(wall)" in capsys.readouterr().out
    # ... but --no-wall ignores it.
    assert pc.main(["--no-wall", str(base_path), str(slow_path)]) == 0


def test_perf_compare_rejects_disjoint_reports(bench_env, capsys):
    import json

    load, tmp = bench_env
    pc = load("perf_compare")
    a = {"bench": "threaded", "cells": [
        {"matrix": "x", "scheduler": "fifo", "n_workers": 1, "scale": 1.0,
         "wall_s": 1.0, "model_makespan_s": 1.0}]}
    b = {"bench": "threaded", "cells": [
        {"matrix": "y", "scheduler": "fifo", "n_workers": 1, "scale": 1.0,
         "wall_s": 1.0, "model_makespan_s": 1.0}]}
    pa, pb = tmp / "a.json", tmp / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert pc.main([str(pa), str(pb)]) == 1
    assert "no comparable cells" in capsys.readouterr().out


def test_bench_threaded_mis_prioritize_is_caught(bench_env, capsys):
    """The gate's self-test mechanism: a mis-prioritized 'priority' cell
    must inflate the replay makespan past the threshold."""
    load, tmp = bench_env
    bt = load("bench_threaded")
    pc = load("perf_compare")
    base_path = tmp / "base.json"
    mis_path = tmp / "mis.json"
    common_args = ["--scale", "0.75", "--matrices", "audi",
                   "--workers", "4", "--repeats", "1",
                   "--schedulers", "priority", "--variants", "opt"]
    bt.main(common_args + ["--out", str(base_path)])
    bt.main(common_args + ["--mis-prioritize", "--out", str(mis_path)])
    capsys.readouterr()
    assert pc.main(["--no-wall", str(base_path), str(mis_path)]) == 1
    assert "REGRESSION(model)" in capsys.readouterr().out


def test_perf_compare_gate_variants(bench_env, capsys):
    """--gate-variants: any ladder rung losing to its reference fails."""
    import copy
    import json

    load, tmp = bench_env
    bt = load("bench_threaded")
    pc = load("perf_compare")
    rep_path = tmp / "rep.json"
    bt.main(["--scale", "0.3", "--matrices", "audi", "--workers", "2",
             "--repeats", "1", "--schedulers", "ws",
             "--out", str(rep_path)])
    capsys.readouterr()

    # Replace the measured timings with fixed synthetic ones in which
    # each rung clearly wins: the gate must pass.  (Scaling the measured
    # values instead made the verdict depend on the host: the cells are
    # milliseconds long, and one noisy repeat outweighs any margin.)
    data = json.loads(rep_path.read_text())
    synthetic = {"base": 1.0, "opt": 0.8, "compiled": 0.56}
    for c in data["cells"]:
        c["model_makespan_s"] = c["wall_s"] = synthetic[c["variant"]]
    good_path = tmp / "good.json"
    good_path.write_text(json.dumps(data))
    assert pc.main(["--gate-variants", "--no-wall",
                    str(good_path), str(good_path)]) == 0
    out = capsys.readouterr().out
    assert "every variant rung beats its reference" in out
    assert "opt/base" in out and "compiled/opt" in out

    # Doctor the opt cell to lose to base: the gate must fail even
    # though the baseline diff itself is clean.
    bad = copy.deepcopy(data)
    for c in bad["cells"]:
        if c["variant"] == "opt":
            c["model_makespan_s"] *= 2.0
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert pc.main(["--gate-variants", "--no-wall", "--threshold", "3.0",
                    str(bad_path), str(bad_path)]) == 1
    assert "VARIANT REGRESSION" in capsys.readouterr().out

    # Compiled losing to opt trips the second rung the same way.
    bad2 = copy.deepcopy(data)
    for c in bad2["cells"]:
        if c["variant"] == "compiled":
            c["model_makespan_s"] *= 2.0
    bad2_path = tmp / "bad2.json"
    bad2_path.write_text(json.dumps(bad2))
    assert pc.main(["--gate-variants", "--no-wall", "--threshold", "3.0",
                    str(bad2_path), str(bad2_path)]) == 1
    assert "VARIANT REGRESSION" in capsys.readouterr().out

    # A report with no gateable pairs must not silently pass the gate.
    only_base = copy.deepcopy(data)
    only_base["cells"] = [
        c for c in only_base["cells"] if c["variant"] == "base"
    ]
    ob_path = tmp / "only_base.json"
    ob_path.write_text(json.dumps(only_base))
    assert pc.main(["--gate-variants", "--no-wall",
                    str(ob_path), str(ob_path)]) == 1
    assert "no variant cell pairs" in capsys.readouterr().out


def test_perf_compare_gate_adaptive(bench_env, capsys):
    """--gate-adaptive: adaptive losing to priority on replay fails."""
    import copy
    import json

    load, tmp = bench_env
    pc = load("perf_compare")

    def cell(sched, makespan):
        return {"matrix": "audi", "scheduler": sched, "n_workers": 2,
                "scale": 0.3, "variant": "opt", "wall_s": 0.1,
                "model_makespan_s": makespan}

    good = {"bench": "threaded", "calib_gflops": 1.0,
            "cells": [cell("priority", 1.0), cell("adaptive", 0.98)]}
    good_path = tmp / "good.json"
    good_path.write_text(json.dumps(good))
    assert pc.main(["--gate-adaptive", "--no-wall",
                    str(good_path), str(good_path)]) == 0
    assert "adaptive holds priority" in capsys.readouterr().out

    # Adaptive worse than priority beyond the threshold: fail.
    bad = copy.deepcopy(good)
    bad["cells"][1]["model_makespan_s"] = 1.2
    bad_path = tmp / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert pc.main(["--gate-adaptive", "--no-wall",
                    str(good_path), str(bad_path)]) == 1
    assert "ADAPTIVE REGRESSION" in capsys.readouterr().out
    # ...but a looser threshold tolerates it (self-diff keeps the
    # baseline comparison itself clean).
    assert pc.main(["--gate-adaptive", "--no-wall",
                    "--adaptive-threshold", "0.5",
                    str(bad_path), str(bad_path)]) == 0
    capsys.readouterr()

    # No adaptive/priority pairs at all must not silently pass.
    only_prio = {"bench": "threaded", "calib_gflops": 1.0,
                 "cells": [cell("priority", 1.0)]}
    op_path = tmp / "only_prio.json"
    op_path.write_text(json.dumps(only_prio))
    assert pc.main(["--gate-adaptive", "--no-wall",
                    str(op_path), str(op_path)]) == 1
    assert "no adaptive/priority cell pairs" in capsys.readouterr().out


def test_perf_compare_calibration_warning_and_strict(bench_env, capsys):
    """A missing calibration must be loud, and fatal under
    --strict-calibration (the wall gate silently comparing raw
    cross-host seconds was a bug)."""
    import json

    load, tmp = bench_env
    pc = load("perf_compare")
    cells = [{"matrix": "audi", "scheduler": "fifo", "n_workers": 2,
              "scale": 0.3, "variant": "opt", "wall_s": 0.1,
              "model_makespan_s": 1.0}]
    cal = {"bench": "threaded", "calib_gflops": 2.0, "cells": cells}
    uncal = {"bench": "threaded", "cells": cells}
    cal_path, uncal_path = tmp / "cal.json", tmp / "uncal.json"
    cal_path.write_text(json.dumps(cal))
    uncal_path.write_text(json.dumps(uncal))

    # Calibrated on both sides: silent.
    assert pc.main([str(cal_path), str(cal_path)]) == 0
    assert "WARNING" not in capsys.readouterr().err

    # Uncalibrated side: loud warning naming the report, still exit 0.
    assert pc.main([str(cal_path), str(uncal_path)]) == 0
    err = capsys.readouterr().err
    assert "WARNING" in err and "uncal.json" in err
    assert "RAW wall seconds" in err

    # --strict-calibration turns the fallback into a failure...
    assert pc.main(["--strict-calibration",
                    str(cal_path), str(uncal_path)]) == 1
    assert "strict-calibration" in capsys.readouterr().err
    # ...unless the wall gate is off entirely.
    assert pc.main(["--strict-calibration", "--no-wall",
                    str(cal_path), str(uncal_path)]) == 0
    assert "WARNING" not in capsys.readouterr().err
