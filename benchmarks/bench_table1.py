"""Table I — matrix description.

Regenerates the paper's Table I for the synthetic analogues: size,
nnz(A), nnz(L), and flop count of the factorization, next to the paper's
published values for the original UFL matrices.  The analogues are
~1000× smaller in flops by design (documented in DESIGN.md); what must
match is the *ordering* and the qualitative spread.

Run ``python benchmarks/bench_table1.py [--scale S]`` for the table, or
``pytest benchmarks/bench_table1.py --benchmark-only`` to time the
analyze phase itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
import pytest

from common import (
    analyzed,
    format_table,
    matrix_factotype,
    paper_flops,
    standard_parser,
    write_bench_json,
    write_csv,
)
from repro.sparse.collection import MATRIX_COLLECTION, collection_names, load_matrix


def table1_rows(scale: float = 1.0, names=None, *,
                verify: bool = False) -> tuple[list[list], list[dict]]:
    rows = []
    cells = []
    for name in names or collection_names():
        info = MATRIX_COLLECTION[name]
        matrix = load_matrix(name, scale=scale)
        res = analyzed(name, scale)
        flops = paper_flops(name, scale)
        if verify:
            # N5xx cross-check: the stored symbolic structure must
            # dominate the column-count recomputation (amalgamation
            # only *adds* fill, never loses entries).
            from repro.verify import verify_symbolic

            rep = verify_symbolic(matrix, res, exact=False)
            rep.name = f"symbolic[{name}]"
            if not rep.ok:
                raise RuntimeError(
                    f"{name} failed the symbolic audit:\n" + rep.format()
                )
        rows.append([
            name,
            info.prec,
            info.method,
            matrix.n_rows,
            matrix.nnz,
            res.symbol.nnz(),
            f"{flops / 1e9:.2f}",
            f"{info.paper_size:.1e}",
            f"{info.paper_nnz_l:.0e}",
            f"{info.paper_tflop:g}",
        ])
        cells.append({
            "matrix": name,
            "scale": scale,
            "n": int(matrix.n_rows),
            "nnz_a": int(matrix.nnz),
            "nnz_l": int(res.symbol.nnz()),
            "flops": float(flops),
            "gflop": flops / 1e9,
            "verified": verify,
        })
    return rows, cells


HEADERS = [
    "Matrix", "Prec", "Method", "n", "nnzA", "nnzL", "GFlop",
    "paper n", "paper nnzL", "paper TFlop",
]


def main(argv=None) -> None:
    args = standard_parser(__doc__).parse_args(argv)
    rows, cells = table1_rows(args.scale, args.matrices,
                              verify=args.verify)
    print(format_table(HEADERS, rows))
    path = write_csv("table1.csv", HEADERS, rows)
    print(f"\nwritten: {path}")
    path = write_bench_json("table1", {
        "figure": "table1",
        "scale": args.scale,
        "verified": args.verify,
        "cells": cells,
    })
    print(f"written: {path}")


# ----------------------------------------------------------------------
# pytest-benchmark entries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["afshell10", "audi", "MHD"])
def test_analyze_phase(benchmark, name):
    """Time the full analyze phase on a reduced-scale analogue."""
    from repro.symbolic import SymbolicOptions, analyze

    matrix = load_matrix(name, scale=0.4)
    result = benchmark(analyze, matrix, SymbolicOptions(split_max_width=96))
    result.symbol.validate()


def test_table_row_generation(benchmark):
    """Time one full Table-I row (generation + analysis + stats)."""
    rows, cells = benchmark(table1_rows, 0.3, ["Geo1438"])
    assert len(rows) == 1 and len(cells) == 1


if __name__ == "__main__":
    main()
