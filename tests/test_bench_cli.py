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

