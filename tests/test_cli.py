"""CLI (`python -m repro`) tests."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.sparse.io import write_matrix_market


@pytest.fixture()
def mtx_file(tmp_path, grid2d_small):
    path = tmp_path / "grid.mtx"
    write_matrix_market(grid2d_small, path)
    return str(path)


def test_analyze_command(mtx_file, capsys):
    assert main(["analyze", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "nnz(L)" in out and "parallelism" in out
    assert "native kernel: available" in out or (
        "native kernel: unavailable, the NumPy kernels will run" in out)
    assert "native analysis: available" in out or (
        "native analysis: unavailable, the Python ordering and symbolic "
        "loops ran" in out)
    for phase in ("ordering", "symbolic"):
        seconds = out.split(f"{phase}     : ")[1].split(" s")[0]
        assert float(seconds) > 0.0


def test_analyze_says_why_native_is_unavailable(mtx_file, capsys, monkeypatch):
    from repro.kernels import native

    def failing():
        raise native.NativeUnavailable("build failed (cc exit 1):\nboom")

    monkeypatch.setattr(native, "load", failing)
    assert main(["analyze", mtx_file]) == 0
    out = capsys.readouterr().out
    assert "unavailable" in out and "build failed (cc exit 1)" in out
    assert "boom" in out


def test_solve_command(mtx_file, capsys, tmp_path):
    out_file = tmp_path / "x.txt"
    assert main(["solve", mtx_file, "--output", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "residual" in out
    assert "native kernels)" in out or "numpy kernels)" in out
    x = np.loadtxt(out_file)
    assert x.size > 0


def test_solve_with_rhs(mtx_file, tmp_path, grid2d_small, capsys):
    from repro.sparse.csc import coo_to_csc

    n = grid2d_small.n_rows
    rhs = coo_to_csc(n, 1, np.arange(n), np.zeros(n, dtype=np.int64),
                     np.linspace(1, 2, n))
    rhs_path = tmp_path / "b.mtx"
    write_matrix_market(rhs, rhs_path)
    assert main(["solve", mtx_file, "--rhs", str(rhs_path)]) == 0
    out = capsys.readouterr().out
    assert "residual: " in out
    resid = float(out.split("residual: ")[1].split()[0])
    assert resid < 1e-10


def test_solve_threaded(mtx_file, capsys):
    assert main(["solve", mtx_file, "--workers", "2"]) == 0
    assert "residual" in capsys.readouterr().out


def test_simulate_command(capsys):
    assert main([
        "simulate", "--collection", "audi", "--scale", "0.3",
        "--policy", "parsec", "--cores", "4", "--factotype", "llt",
    ]) == 0
    out = capsys.readouterr().out
    assert "GFlop/s" in out


def test_simulate_with_gpu_and_gantt(capsys):
    assert main([
        "simulate", "--collection", "MHD", "--scale", "0.3",
        "--policy", "starpu", "--cores", "4", "--gpus", "1", "--gantt",
        "--factotype", "lu",
    ]) == 0
    out = capsys.readouterr().out
    assert "PCIe" in out and "makespan" in out


def test_missing_matrix_errors():
    with pytest.raises(SystemExit):
        main(["analyze"])


def test_collection_solve(capsys):
    assert main([
        "solve", "--collection", "afshell10", "--scale", "0.15",
        "--factotype", "lu",
    ]) == 0
    assert "residual" in capsys.readouterr().out
