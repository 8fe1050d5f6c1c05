"""Command-line interface: solve a MatrixMarket system or inspect a
collection analogue.

Examples
--------
Solve ``A x = b`` with b read from a file (or all-ones)::

    python -m repro solve matrix.mtx --factotype llt --rhs b.mtx

Analyze only (ordering + symbolic statistics)::

    python -m repro analyze matrix.mtx --split 96

Simulate the factorization on a Mirage-like node::

    python -m repro simulate --collection Serena --policy parsec \
        --cores 12 --gpus 3 --streams 3

Run the static-analysis passes (DAG hazard coverage, simulated-schedule
feasibility, project lint)::

    python -m repro verify --matrix lap2d --size 30
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_matrix(args):
    if args.collection:
        from repro.sparse.collection import load_matrix

        return load_matrix(args.collection, scale=args.scale)
    if not args.matrix:
        raise SystemExit("either a matrix file or --collection is required")
    from repro.sparse.io import read_matrix_market

    return read_matrix_market(args.matrix)


def _symbolic_options(args):
    from repro.symbolic import SymbolicOptions

    return SymbolicOptions(
        ordering=args.ordering,
        amalgamation_ratio=args.amalgamation,
        split_max_width=args.split,
    )


def _add_matrix_args(p: argparse.ArgumentParser, positional: bool) -> None:
    if positional:
        p.add_argument("matrix", nargs="?", help="MatrixMarket file")
    p.add_argument("--collection", help="use a Table-I analogue by name")
    p.add_argument("--scale", type=float, default=1.0,
                   help="collection analogue scale")
    p.add_argument("--ordering", default="nd", choices=["nd", "natural"])
    p.add_argument("--amalgamation", type=float, default=0.12,
                   help="amalgamation fill ratio (default 0.12)")
    p.add_argument("--split", type=int, default=128,
                   help="panel split width (default 128)")


def cmd_analyze(args) -> int:
    import dataclasses
    import time

    from repro.dag import build_dag, dag_summary
    from repro.graph import Graph, native as native_analysis
    from repro.kernels.cost import flops_total
    from repro.kernels.native import availability
    from repro.ordering import nested_dissection
    from repro.symbolic import analyze

    matrix = _load_matrix(args)
    opts = _symbolic_options(args)
    # The ordering on its own, then everything after it: same result as
    # one analyze() call, with the two halves timed.
    start = time.perf_counter()
    if opts.ordering == "nd":
        opts = dataclasses.replace(opts, ordering=nested_dissection(
            Graph.from_symmetric_pattern(
                matrix.symmetrize_pattern().with_full_diagonal())
        ))
    ordered = time.perf_counter()
    res = analyze(matrix, opts)
    done = time.perf_counter()
    sym = res.symbol
    dag = build_dag(sym, args.factotype)
    s = dag_summary(dag)
    print(f"n            : {matrix.n_rows}")
    print(f"nnz(A)       : {matrix.nnz}")
    print(f"nnz(L)       : {sym.nnz(factotype=args.factotype)}")
    print(f"panels       : {sym.n_cblk}")
    print(f"blocks       : {sym.n_blok}")
    print(f"flops        : {flops_total(sym, args.factotype, matrix.dtype) / 1e9:.3f} GFlop")
    print(f"tasks (2D)   : {s.n_tasks} ({s.n_panel} panel + {s.n_update} update)")
    print(f"parallelism  : {s.avg_parallelism:.2f} (flop-weighted)")
    print(f"ordering     : {ordered - start:.4f} s")
    print(f"symbolic     : {done - ordered:.4f} s")
    for label, reason, fallback in (
        ("native analysis", native_analysis.availability(),
         "the Python ordering and symbolic loops ran"),
        ("native kernel", availability(), "the NumPy kernels will run"),
    ):
        print(f"{label}: " + (
            "available" if reason is None
            else f"unavailable, {fallback} — {reason}"
        ))
    return 0


def cmd_solve(args) -> int:
    from repro import SolverOptions, SparseSolver
    from repro.sparse.io import read_matrix_market

    matrix = _load_matrix(args)
    solver = SparseSolver(
        matrix,
        SolverOptions(
            factotype=args.factotype,
            symbolic=_symbolic_options(args),
            runtime="threaded" if args.workers > 1 else "sequential",
            n_workers=args.workers,
        ),
    )
    if args.rhs:
        rhs_mat = read_matrix_market(args.rhs)
        b = rhs_mat.to_dense().ravel()[: matrix.n_rows]
    else:
        b = np.ones(matrix.n_rows, dtype=matrix.dtype)
    info = solver.factorize()
    x = solver.solve(b)
    print(f"factorized in {info.elapsed:.3f} s "
          f"({info.flops / 1e9:.3f} GFlop, {info.gflops:.2f} GFlop/s, "
          f"{info.kernels} kernels)")
    print(f"residual: {solver.residual_norm(x, b):.3e}")
    if args.output:
        np.savetxt(args.output, np.column_stack([x.real, x.imag])
                   if np.iscomplexobj(x) else x)
        print(f"solution written to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    from repro.dag import build_dag
    from repro.machine import mirage, simulate
    from repro.runtime import get_policy
    from repro.symbolic import analyze

    matrix = _load_matrix(args)
    res = analyze(matrix, _symbolic_options(args))
    policy = get_policy(args.policy)
    dag = build_dag(
        res.symbol,
        args.factotype,
        granularity=policy.traits.granularity,
        dtype=matrix.dtype,
        recompute_ld=policy.traits.recompute_ld,
    )
    machine = mirage(n_cores=args.cores, n_gpus=args.gpus,
                     streams_per_gpu=args.streams if args.gpus else 1)
    r = simulate(dag, machine, policy, dtype=matrix.dtype,
                 collect_trace=args.gantt)
    print(f"policy       : {args.policy}")
    print(f"machine      : {args.cores} cores, {args.gpus} GPUs "
          f"({args.streams} streams)")
    print(f"makespan     : {r.makespan * 1e3:.2f} ms")
    print(f"performance  : {r.gflops:.2f} GFlop/s")
    if args.gpus:
        print(f"PCIe traffic : {r.bytes_h2d / 1e6:.1f} MB h2d, "
              f"{r.bytes_d2h / 1e6:.1f} MB d2h")
    if args.gantt:
        print(r.trace.gantt(width=90))
    return 0


def cmd_verify(args) -> int:
    from repro.verify.cli import run_verify

    return run_verify(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ordering + symbolic statistics")
    _add_matrix_args(p, positional=True)
    p.add_argument("--factotype", default="llt", choices=["llt", "ldlt", "lu"])
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="factorize and solve")
    _add_matrix_args(p, positional=True)
    p.add_argument("--factotype", default="llt", choices=["llt", "ldlt", "lu"])
    p.add_argument("--rhs", help="right-hand side MatrixMarket file")
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the factorization (default 1)")
    p.add_argument("--output", help="write the solution vector here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate on a Mirage-like node")
    _add_matrix_args(p, positional=True)
    p.add_argument("--factotype", default="llt", choices=["llt", "ldlt", "lu"])
    p.add_argument("--policy", default="parsec",
                   choices=["native", "starpu", "parsec"])
    p.add_argument("--cores", type=int, default=12)
    p.add_argument("--gpus", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--gantt", action="store_true",
                   help="print an ASCII Gantt chart")
    p.set_defaults(func=cmd_simulate)

    from repro.verify.cli import add_verify_arguments

    p = sub.add_parser(
        "verify",
        help="static analysis: DAG hazards, schedule feasibility, lint",
    )
    add_verify_arguments(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
