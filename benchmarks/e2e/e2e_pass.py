"""Untraced pass: what a user of the solver sees, through the public API.

One client, closed loop: every call is issued after the previous one has
returned.  A cycle is

1. *time to solution* — a fresh ``SparseSolver``: ``analyze()`` +
   ``factorize()`` + ``solve(b)`` (so the couple cache and the DAG are
   rebuilt, as for a new matrix);
2. *refactor + solve* — analysis kept: ``update_values(A·(1+ε))`` +
   ``factorize()`` + ``solve(b')``;
3. *solve* — further ``solve(b')`` calls on the existing factor.

Every solution is checked outside the timed region.
"""

from __future__ import annotations

import gc
import time

import reference
from harness import (
    Inputs,
    Ops,
    Workload,
    make_rhs,
    scaled_copy,
    solver_options,
)
from repro import SparseSolver

__all__ = ["SOLVES_PER_CYCLE", "time_to_solution", "run_cycles"]

PIPELINE_KEYS = ("time_to_solution_s", "analyze_s", "factorize_s",
                 "first_solve_s")

#: Plain solves per cycle (the issue's 9 solves to 5 factorizations).
SOLVES_PER_CYCLE = 2


def time_to_solution(wl: Workload, inp: Inputs, ops: Ops):
    """One fresh pipeline; ``(solver, x, times)``.

    ``times`` is ``(total_s, analyze_s, factorize_s, first_solve_s)`` —
    the total is its own wall-clock reading, not the sum — or ``None``
    when a call failed or the answer was wrong.
    """
    start = time.perf_counter()
    solver = SparseSolver(inp.matrix, solver_options(wl))
    _, t_analyze = ops.timed(solver.analyze)
    _, t_factorize = ops.timed(solver.factorize)
    x, t_solve = ops.timed(solver.solve, inp.b)
    total = time.perf_counter() - start
    if None in (t_analyze, t_factorize, t_solve):
        return solver, None, None
    if not ops.check_solution(inp.a_scipy, x, inp.b):
        return solver, x, None
    return solver, x, (total, t_analyze, t_factorize, t_solve)


def run_cycles(wl: Workload, inp: Inputs, ops: Ops, seconds: float,
               min_cycles: int) -> dict:
    """Cycle until ``seconds`` have passed and ``min_cycles`` are done.

    Returns ``samples`` per metric, the number of ``cycles``, the
    ``forward_error`` of the first solution against the SuperLU reference
    and the ``flops`` the first factorization reported.
    """
    samples = {k: [] for k in PIPELINE_KEYS + ("refactor_solve_s", "solve_s")}
    forward_error = flops = None
    begin = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - begin < seconds:
        cycles += 1
        gc.collect()
        solver, x, times = time_to_solution(wl, inp, ops)
        if times is not None:
            for key, val in zip(PIPELINE_KEYS, times):
                samples[key].append(val)
        if forward_error is None and x is not None:
            forward_error = reference.forward_error(x, inp.x_ref)
        if flops is None and solver.last_info is not None:
            flops = solver.last_info.flops
        if solver.analysis is None:
            continue   # analyze failed: nothing to refactor or solve with

        eps = 1e-3 * inp.rng.uniform(-1.0, 1.0)
        a_new = scaled_copy(inp.matrix, 1.0 + eps)
        a_new_scipy = inp.a_scipy * (1.0 + eps)
        b_new = make_rhs(inp.rng, inp.b.shape, inp.b.dtype)

        start = time.perf_counter()
        _, t_update = ops.timed(solver.update_values, a_new)
        _, t_factorize = ops.timed(solver.factorize)
        x, t_solve = ops.timed(solver.solve, b_new)
        elapsed = time.perf_counter() - start
        if None in (t_update, t_factorize, t_solve):
            continue
        if ops.check_solution(a_new_scipy, x, b_new):
            samples["refactor_solve_s"].append(elapsed)

        for _ in range(SOLVES_PER_CYCLE):
            x, t_solve = ops.timed(solver.solve, b_new)
            if t_solve is not None and ops.check_solution(
                a_new_scipy, x, b_new
            ):
                samples["solve_s"].append(t_solve)
    return {"samples": samples, "cycles": cycles,
            "forward_error": forward_error, "flops": flops}
