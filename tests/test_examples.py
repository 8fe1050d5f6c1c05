"""Smoke tests: every example script must run end-to-end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: script -> (command-line arguments, substrings its output must contain)
CASES = {
    "quickstart.py": (("8",), ("OK", "residual")),
    "scheduler_comparison.py": (
        ("MHD", "0.4"),
        ("native", "starpu", "parsec", "makespan"),  # gantt printed
    ),
    "hybrid_gpu_speedup.py": (("0.4",), ("Serena", "afshell10", "PCIe traffic")),
    "threaded_factorization.py": (("8", "2"), ("speedup", "residual")),
    "complex_helmholtz.py": (("16",), ("ldlt", "lu", "LU factor storage")),
    "distributed_fanin.py": (("MHD", "0.5"), ("strong scaling", "fan-in")),
}


def test_every_example_has_a_case():
    assert set(CASES) == {path.name for path in EXAMPLES.glob("*.py")}


@pytest.mark.parametrize("script", sorted(CASES))
def test_example_runs(script):
    args, expected = CASES[script]
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    missing = [text for text in expected if text not in proc.stdout]
    assert not missing, f"{script} printed none of {missing}"
