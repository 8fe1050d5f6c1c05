"""End-to-end tests of ``python -m repro verify`` (in-process)."""

import pytest

from repro.__main__ import main
from repro.verify.cli import INJECTS


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_clean_run_exits_zero(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--cores", "2", "--gpus", "1"], capsys)
    assert code == 0
    assert "hazards[2d]" in out
    assert "hazards[1d]" in out
    assert "hazards[subtree]" in out
    assert "schedule[parsec]" in out
    assert "lint[" in out
    assert "0 error finding(s)" in out


def test_single_granularity_and_policy(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "8",
                     "--granularity", "2d", "--policy", "native",
                     "--only", "hazards,schedule", "--cores", "2",
                     "--gpus", "0"], capsys)
    assert code == 0
    assert "hazards[2d]" in out and "hazards[1d]" not in out
    assert "schedule[native]" in out


def test_unit_granularity_is_clean_with_split_panels(capsys, split_panels):
    """The unit DAG with row-block tasks passes the hazard audit, and its
    threaded factorization (and the solve on it) the C7xx audit."""
    import numpy as np

    from repro.dag import TaskKind, get_dag
    from repro.sparse.generators import grid_laplacian_2d
    from repro.symbolic import analyze

    sym = analyze(grid_laplacian_2d(12)).symbol
    assert np.any(get_dag(sym, "llt", granularity="unit").kind
                  == TaskKind.ROWS)
    code, out = run(["verify", "--matrix", "lap2d", "--size", "12",
                     "--granularity", "unit",
                     "--only", "hazards,concurrency"], capsys)
    assert code == 0, out
    assert "hazards[unit]" in out and "concurrency[unit]" in out


def test_inject_drop_edge_fails_and_names_pair(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--granularity", "2d", "--only", "hazards",
                     "--inject", "drop-edge"], capsys)
    assert code == 1
    assert "drop-edge" in out
    assert "missing dependency path" in out
    # The offending pair is named: "missing dependency path U -> V".
    import re

    assert re.search(r"missing dependency path \d+ -> \d+", out)


def test_inject_overlap_trace_fails(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "schedule", "--cores", "2",
                     "--gpus", "0", "--inject", "overlap-trace"], capsys)
    assert code == 1
    assert "overlap on cpu" in out
    import re

    assert re.search(r"tasks \d+ and \d+", out)


def test_inject_break_mutex_fails(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "schedule", "--cores", "2",
                     "--gpus", "1", "--inject", "break-mutex"], capsys)
    assert code == 1
    assert "violated" in out


def test_lint_only_flags_bad_tree(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class F:\n"
        "    x: int\n"
        "def f():\n"
        "    t = F(1)\n"
        "    t.x = 2\n"
    )
    code, out = run(["verify", "--only", "lint",
                     "--lint-path", str(tmp_path)], capsys)
    assert code == 1
    assert "RV301" in out


def test_verbose_shows_info_findings(capsys):
    # 1D accum groups surface as info (H109) only with --verbose.
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--granularity", "1d", "--only", "hazards",
                     "-v"], capsys)
    assert code == 0
    assert "H109" in out


def test_unknown_matrix_name_exits_with_message():
    with pytest.raises(SystemExit, match="neither a generator name"):
        main(["verify", "--matrix", "/nonexistent/mat.mtx",
              "--only", "hazards"])
    with pytest.raises(SystemExit, match="lap2d"):
        main(["verify", "--matrix", "lapd2", "--only", "hazards"])


def test_missing_lint_path_exits_with_message():
    with pytest.raises(SystemExit, match="/nonexistent/dir"):
        main(["verify", "--only", "lint", "--lint-path", "/nonexistent/dir"])


def test_only_rejects_unknown_pass(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--only", "hazards,memory"])
    assert "unknown pass 'memory'" in capsys.readouterr().err


def test_clean_run_includes_memory_and_symbolic_passes(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "schedule,symbolic", "--cores", "2",
                     "--gpus", "1"], capsys)
    assert code == 0
    assert "memory[parsec]" in out
    assert "symbolic[exact]" in out
    assert "symbolic[amalgamated]" in out
    assert "dag-costs[2d]" in out


def test_passes_can_be_disabled(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "schedule", "--cores", "2", "--gpus", "1"],
                    capsys)
    assert code == 0
    assert "schedule[parsec]" in out and "memory[parsec]" in out
    for other in ("hazards[", "resilience[", "symbolic[", "lint["):
        assert other not in out


def test_inject_drop_transfer_fails_naming_task_and_panel(capsys):
    # The memory injections need a problem large enough that the
    # scheduler offloads at the forced threshold (hence --size 32).
    code, out = run(["verify", "--matrix", "lap2d", "--size", "32",
                     "--only", "schedule",
                     "--policy", "parsec", "--cores", "2", "--gpus", "1",
                     "--inject", "drop-transfer"], capsys)
    assert code == 1
    assert "memory[parsec+drop-transfer]" in out
    assert "M401" in out
    import re

    assert re.search(r"task \d+", out) and re.search(r"panel \d+", out)


def test_inject_overflow_residency_fails_naming_gpu_and_panel(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "32",
                     "--only", "schedule",
                     "--policy", "parsec", "--cores", "2", "--gpus", "1",
                     "--inject", "overflow-residency"], capsys)
    assert code == 1
    assert "memory[parsec+overflow-residency]" in out
    assert "M402" in out
    import re

    assert re.search(r"gpu\d+ over capacity", out)
    assert re.search(r"panel \d+", out)


def test_inject_skew_flops_fails_naming_task(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "symbolic", "--inject", "skew-flops"],
                    capsys)
    assert code == 1
    assert "N504" in out
    import re

    assert re.search(r"dag-costs\[2d\+skew-flops\(task \d+\)\]", out)


def test_memory_inject_without_gpu_refused():
    with pytest.raises(SystemExit, match="needs at least one GPU"):
        main(["verify", "--matrix", "lap2d", "--size", "32", "--only",
              "schedule", "--gpus", "0", "--inject", "drop-transfer"])


def test_inject_drop_sync_event_fails(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "concurrency",
                     "--inject", "drop-sync-event"], capsys)
    assert code == 1
    assert "concurrency[unit+drop-sync-event]" in out and "C707" in out


def test_concurrency_pass_audits_the_threaded_solve(capsys):
    from repro.kernels import native

    code, out = run(["verify", "--matrix", "lap2d", "--size", "10",
                     "--only", "concurrency"], capsys)
    assert code == 0
    backend = "native" if native.availability() is None else "numpy"
    assert f"concurrency[solve, {backend}]" in out


def test_resilience_pass_runs_clean(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "12",
                     "--only", "resilience", "--policy", "native"], capsys)
    assert code == 0
    assert "resilience[native]" in out
    assert "schedule[native+faults]" in out


def test_inject_drop_recovery_fails_naming_fault(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "12",
                     "--only", "resilience", "--policy", "native",
                     "--inject", "drop-recovery"], capsys)
    assert code == 1
    assert "resilience[native+drop-recovery]" in out
    assert "R601" in out
    assert "has no matching recovery" in out


def test_inject_double_complete_fails_naming_task(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "12",
                     "--only", "resilience", "--policy", "native",
                     "--inject", "double-complete"], capsys)
    assert code == 1
    assert "resilience[native+double-complete]" in out
    assert "R602" in out
    assert "completes twice" in out


_DET_BASE = ["verify", "--matrix", "lap2d", "--size", "12",
             "--only", "determinism",
             "--policy", "native", "--cores", "2", "--gpus", "0"]


def test_determinism_pass_runs_clean(capsys):
    code, out = run(list(_DET_BASE), capsys)
    assert code == 0
    assert "determinism[native+faults]" in out
    assert "determinism[burst]" in out
    assert "rng_draws" in out


def test_inject_reorder_ties_fails(capsys):
    code, out = run(_DET_BASE + ["--inject", "reorder-ties"], capsys)
    assert code == 1
    assert "reorder-ties" in out
    assert "D802" in out and "D801" in out


def test_inject_reseed_midrun_fails(capsys):
    code, out = run(_DET_BASE + ["--inject", "reseed-midrun"], capsys)
    assert code == 1
    assert "reseed-midrun" in out
    assert "D801" in out or "D803" in out


def test_inject_drop_seq_fails(capsys):
    code, out = run(_DET_BASE + ["--inject", "drop-seq"], capsys)
    assert code == 1
    assert "drop-seq" in out
    assert "D802" in out


def test_lint_pass_includes_eventloop(capsys):
    code, out = run(["verify", "--only", "lint"], capsys)
    assert code == 0
    assert "== eventloop ==" in out and "lockdiscipline" not in out
    assert "hazards[" not in out and "health[" not in out


def test_inject_runs_its_own_pass(capsys):
    code, out = run(["verify", "--matrix", "lap2d", "--size", "12",
                     "--only", "hazards", "--inject", "drop-seq"], capsys)
    assert code == 1
    assert "hazards[2d]" in out and "determinism[parsec+faults+drop-seq]" in out


@pytest.mark.parametrize("mode", sorted(INJECTS))
def test_inject_trips_its_code(mode, capsys):
    """Every ``--inject`` mode makes its own pass exit 1 naming one of
    the codes the mode declares (``make selftest``).  The memory modes
    need a problem large enough that the scheduler offloads."""
    inj = INJECTS[mode]
    size = "32" if inj.stage == "memory" else "20"
    code, out = run(["verify", "--matrix", "lap2d", "--size", size,
                     "--only", inj.pass_name, "--inject", mode], capsys)
    assert code == 1
    assert any(c in out for c in inj.codes), out


def _fields(artifact):
    """``name -> value`` of every field a corruption could touch."""
    import dataclasses
    import inspect

    from repro.dag.tasks import TaskDAG

    if isinstance(artifact, TaskDAG):
        names = [*inspect.signature(TaskDAG).parameters, "phase"]
        return {n: getattr(artifact, n) for n in names}
    return {f.name: getattr(artifact, f.name)
            for f in dataclasses.fields(artifact)}


def _snapshot(value):
    """Comparable deep value: arrays as lists, events with their ``seq``,
    shared objects (the symbol) by identity."""
    import copy
    import dataclasses

    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [dataclasses.astuple(v) for v in value]
    if value is None or isinstance(value, (dict, int, float, str)):
        return copy.deepcopy(value)
    return id(value)


@pytest.mark.parametrize("mode", sorted(
    m for m, inj in INJECTS.items() if inj.stage != "couple-cache"))
def test_inject_changes_only_its_target(mode, capsys, monkeypatch):
    """Each trace/DAG ``--inject`` mode returns a copy that differs from
    its input in the fields the mode names and nowhere else — ``meta``
    and ``next_seq`` included — and leaves the input untouched."""
    inj = INJECTS[mode]
    seen = []

    def spy(artifact, *rest):
        before = {k: _snapshot(v) for k, v in _fields(artifact).items()}
        out = inj.corrupt(artifact, *rest)
        seen.append((artifact, before, out[0] if isinstance(out, tuple)
                     else out))
        return out

    monkeypatch.setitem(INJECTS, mode, inj._replace(corrupt=spy))
    size = "32" if inj.stage == "memory" else "20"
    code, out = run(["verify", "--matrix", "lap2d", "--size", size,
                     "--only", inj.pass_name, "--inject", mode], capsys)
    assert code == 1 and seen
    for artifact, before, corrupted in seen:
        assert corrupted is not artifact
        now = {k: _snapshot(v) for k, v in _fields(artifact).items()}
        after = {k: _snapshot(v) for k, v in _fields(corrupted).items()}
        assert now == before, "the injector edited its input"
        assert set(inj.changes) <= set(after)
        changed = {k for k in after if after[k] != before[k]}
        assert changed == set(inj.changes), (mode, changed)


def test_report_caps_findings_per_code():
    from repro.verify.report import ERROR, MAX_FINDINGS_PER_CODE, Report

    rep = Report("capped")
    n = MAX_FINDINGS_PER_CODE
    for i in range(n + 7):
        rep.add("X001", f"x {i}")
    for i in range(n + 2):
        rep.add("X002", f"y {i}")
    rep.add("X003", "z", severity="warning")
    assert [f.code for f in rep.findings].count("X001") == n
    assert [f.code for f in rep.findings].count("X002") == n
    assert rep.count(ERROR) == 2 * n + 9
    assert rep.count("warning") == 1
    text = rep.format()
    assert text.count("ERROR   [X001]") == n
    assert text.count("further") == 2
    assert "... 7 further X001 finding(s) suppressed" in text
    assert "... 2 further X002 finding(s) suppressed" in text
    assert text.endswith(
        f"-> FAILED ({2 * n + 9} error(s): X001 x{n + 7}, X002 x{n + 2})")
