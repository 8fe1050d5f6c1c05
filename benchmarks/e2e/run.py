#!/usr/bin/env python3
"""bench_e2e: wall-clock benchmark of analyze → factorize → solve.

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--out FILE]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, one
after another, each in its own child process, and one JSON report is
written.  With ``--workload`` this process *is* that child: it sets up,
runs the untraced pass (``--trace 0``), the traced pass (``--trace 1``)
or both (no ``--trace``), prints every metric and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

# The runtime owns the parallelism, as in the paper: BLAS stays on one
# thread.  Must happen before NumPy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest cycles (untraced) or rounds (traced) behind any median.
MIN_REPEATS = 3


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(spec: dict) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    help="run this workload in this process (default: all, "
                         "each in a child process)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the matrix values, right-hand sides and "
                         "perturbations")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long each pass measures")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: untraced end-to-end pass only; 1: traced "
                         "per-layer pass only (default: both)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at collection scale 0.3, one repeat")
    ap.add_argument("--out", type=Path,
                    help="write the JSON report here")
    return ap.parse_args()


# ----------------------------------------------------------------------
def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<32}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'n':>4}")
    for name, s in metrics.items():
        print(f"  {name:<32}{s['unit']:<8}{s['median']:>12.6g}{s['q1']:>12.6g}"
              f"{s['q3']:>12.6g}{s['min']:>12.6g}{s['max']:>12.6g}{s['n']:>4}")


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    """Set up and measure one workload in this process; exit code."""
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import reference
    from e2e_pass import run_cycles
    from layers_pass import account, run_rounds

    wl = harness.WORKLOADS[args.workload]
    host = harness.host_info()
    untraced = args.trace in (None, 0)
    traced = args.trace in (None, 1)
    # The traced pass runs the pool with 2 workers on every workload.
    needs = 2 if traced else wl.n_workers
    if host["nproc"] < needs:
        print(f"bench_e2e: {wl.name} runs {needs} workers but this host "
              f"offers {host['nproc']} CPU(s); a wall-clock from an "
              f"oversubscribed host is not reported.", file=sys.stderr)
        return 2

    harness.bind_workers_to_cpus()
    host["workers_bound_to_cpus"] = True

    scale = harness.SMOKE_SCALE if args.smoke else wl.scale
    seconds = 0.0 if args.smoke else args.seconds
    min_repeats = 1 if args.smoke else MIN_REPEATS
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    setup_samples = []
    for _ in range(SETUP_REPEATS if untraced and not args.smoke else 1):
        start = time.perf_counter()
        inp = harness.set_up(wl, args.seed, scale)
        setup_samples.append(time.perf_counter() - start)
    host["gemm_calib_gflops"] = inp.gemm_calib_gflops

    ops = harness.Ops()
    detail = {
        "workload": wl.name,
        "config": {"matrix": wl.matrix, "scale": scale, "n": inp.matrix.n_rows,
                   "factotype": wl.factotype, "runtime": wl.runtime,
                   "n_workers": wl.n_workers, "nrhs": wl.nrhs,
                   "flops_ref": wl.flops_ref},
        "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
        "host": host,
    }
    emitted: dict[str, dict] = {}
    complete = True

    def emit(group: str, names: list[str], samples: dict) -> None:
        """Print and record the BENCHMARK.json metrics of one pass; what
        else the pass sampled goes to ``<group>_extra`` unprinted."""
        nonlocal complete
        out = {}
        for name in names:
            if samples.get(name):
                out[name] = {"unit": units[name],
                             **harness.summarise(samples[name])}
            else:
                complete = False   # every sample of this metric failed
        detail[group] = out
        detail[group + "_extra"] = {
            k: harness.summarise(v) for k, v in samples.items()
            if v and k not in out
        }
        emitted.update(out)
        print_metrics(f"{wl.name} — {group} (seed {args.seed})", out)

    if untraced:
        res = run_cycles(wl, inp, ops, seconds, min_repeats)
        s = res["samples"]
        # flops_ref is frozen for the benchmark scale only.
        flops_ref = res["flops"] if args.smoke else wl.flops_ref
        s["setup_s"] = setup_samples
        s["factorize_gflops"] = [flops_ref / t / 1e9 for t in s["factorize_s"]]
        s["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ]
        emit("end_to_end", [m["name"] for m in spec["end_to_end"]], s)
        detail["cycles"] = res["cycles"]
        detail["flops_reported"] = res["flops"]
        detail["forward_error"] = res["forward_error"]
        if not (res["forward_error"] is not None
                and res["forward_error"] <= reference.FORWARD_TOL):
            ops.failed += 1
            ops.errors.append(
                f"reference: forward error {res['forward_error']} vs SuperLU"
            )

    if traced:
        samples, tracer = run_rounds(wl, inp, ops, seconds, min_repeats)
        emit("per_layer", [m["name"] for m in spec["per_layer"]], samples)
        if complete:
            med = {k: statistics.median(v) for k, v in samples.items()}
            detail["accounting"] = account(wl, med)
            print(f"\n{wl.name} — traced layers vs untraced phase")
            for phase, row in detail["accounting"].items():
                print(f"  {phase:<12} layers {row['layers_s']:.4f} s   "
                      f"untraced {row['untraced_s']:.4f} s   "
                      f"ratio {row['ratio']:.3f}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_chrome_trace(OUT_DIR / f"trace-{wl.name}.json")

    correct = complete and ops.failed == 0
    detail.update(attempted=ops.attempted, failed=ops.failed,
                  failed_ops_frac=ops.failed / max(ops.attempted, 1),
                  backward_error_max=ops.backward_error_max,
                  errors=ops.errors, correct=correct)
    for err in ops.errors:
        print(f"bench_e2e: FAILED {err}", file=sys.stderr)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(detail, fh, indent=1)
    print(f"\n{wl.name}: attempted {ops.attempted}, failed {ops.failed} "
          f"(failed_ops_frac {detail['failed_ops_frac']:.4f}), max backward "
          f"error {ops.backward_error_max:.2e}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in emitted.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, one child process after another; one report."""
    OUT_DIR.mkdir(exist_ok=True)
    report = {"schema": 1, "seed": args.seed, "smoke": args.smoke,
              "workloads": {}}
    status = 0
    for w in spec["workloads"]:
        detail_path = OUT_DIR / f"workload-{w['name']}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(detail_path)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        detail_path.unlink(missing_ok=True)
        code = subprocess.run(cmd).returncode
        status = status or code
        if detail_path.exists():
            with open(detail_path) as fh:
                detail = json.load(fh)
            report["host"] = detail.pop("host")
            report["workloads"][w["name"]] = detail
        else:
            print(f"bench_e2e: {w['name']} wrote no report (exit {code})",
                  file=sys.stderr)

    out = args.out or OUT_DIR / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)

    headline = ("factorize_gflops", "kernels.efficiency",
                "runtime.speedup_w2", "runtime.solve_threaded_s",
                "core.solve_factored_s")
    print(f"\n{'workload':<24}" + "".join(f"{h:>26}" for h in headline))
    for name, d in report["workloads"].items():
        metrics = {**d.get("end_to_end", {}), **d.get("per_layer", {})}
        print(f"{name:<24}" + "".join(
            f"{metrics[h]['median']:>26.4g}" if h in metrics else f"{'-':>26}"
            for h in headline
        ))
    print(f"\nreport: {out}")
    return status


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_e2e: no solver sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_benchmark()
    args = parse_args(spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
