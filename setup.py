"""Legacy setup shim.

Kept so ``pip install -e .`` works in offline environments without the
``wheel`` package (pip falls back to ``setup.py develop``).  All project
metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Supernodal sparse direct solver over task-based runtimes "
        "(reproduction of Lacoste et al., 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # Compiled at first use (repro.cbuild) by repro.kernels.native and
    # repro.graph.native.
    package_data={"repro.kernels": ["native.c"],
                  "repro.graph": ["analysis.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
