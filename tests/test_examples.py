"""Smoke tests: every example script must run end-to-end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", "8")
    assert "OK" in out
    assert "residual" in out


def test_scheduler_comparison():
    out = run_example("scheduler_comparison.py", "MHD", "0.4")
    for policy in ("native", "starpu", "parsec"):
        assert policy in out
    assert "makespan" in out  # gantt printed


def test_hybrid_gpu_speedup():
    out = run_example("hybrid_gpu_speedup.py", "0.4")
    assert "Serena" in out and "afshell10" in out
    assert "PCIe traffic" in out


def test_threaded_factorization():
    out = run_example("threaded_factorization.py", "8", "2")
    assert "speedup" in out
    assert "residual" in out


def test_complex_helmholtz():
    out = run_example("complex_helmholtz.py", "16")
    assert "ldlt" in out and "lu" in out
    assert "LU factor storage" in out


def test_distributed_fanin():
    out = run_example("distributed_fanin.py", "MHD", "0.5")
    assert "strong scaling" in out
    assert "fan-in" in out


def test_preconditioned_iterative():
    out = run_example("preconditioned_iterative.py", "7")
    assert "none" in out
    assert "exact factorization" in out
