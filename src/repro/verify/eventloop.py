"""Event-loop-discipline linter (RV5xx): static determinism rules for
the discrete-event simulators (AST-based, stdlib only).

The D8xx pass (:mod:`repro.verify.determinism`) convicts replay
divergence from recorded traces; this pass convicts the *source shapes*
that breed it, over the event-loop modules — the shared core
``repro.sim``, ``machine.simulator``, ``machine.streamsim``,
``distributed.simulator`` and the ``repro.resilience`` fault layer by
default.  Five rules,
suppressible like the other lints with ``# noqa: RV5xx`` on the
offending line:

* **RV501 heap push without a tie-breaker** — a ``heapq.heappush``
  whose tuple has no monotonic ``next(<counter>)`` element: two
  simultaneous events then compare by payload (or not at all), so pop
  order depends on push order, hash order, or worse.  The blessed
  shape is ``(key, next(self._seq), payload...)`` with the counter
  from :func:`repro.runtime.seq.monotonic_counter`;
* **RV502 float equality on a simulated clock** — ``==``/``!=``
  against a clock-named value (``time``/``now``/``when``/``clock``/
  ``deadline``): simulated times are sums of float durations, so
  equality is representation-dependent; order comparisons and
  tolerances are fine;
* **RV503 unordered choice feeding the event order** — iteration over
  a ``set``/``frozenset`` (literal, constructor, set-typed name, or an
  element of a set-typed container) without ``sorted()``, or a bare
  ``.pop()`` on one: set order varies with hash seeding, so whichever
  task/core/node it picks diverges between runs;
* **RV504 wall clock or unseeded RNG in a simulation step** — any
  ``time.time``/``perf_counter``/``monotonic``, ``datetime.now``,
  ``random.*`` module call, direct ``np.random.*`` legacy call, or a
  seedless ``default_rng()``: simulated runs must be a pure function
  of their inputs and one seeded RNG;
* **RV505 payload compared before the tie-breaker** — a heap tuple
  whose ``next(...)`` tie-breaker is not element 1 (or that carries a
  ``lambda``): the payload — often a callback — then participates in
  comparisons before ties are broken, and callables compare by
  identity, i.e. by registration order.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional, Sequence

from repro.verify.lint import (
    LintFinding,
    _NOQA_RE,
    _set_container_names,
    _set_typed_names,
    scope_sources,
)
from repro.verify.report import Report

__all__ = [
    "eventloop_sources",
    "eventloop_paths",
    "eventloop_report",
    "DEFAULT_SCOPE",
]

#: Terminal attribute/variable names treated as simulated-clock values.
_CLOCK_NAMES = {"time", "now", "when", "clock", "deadline"}

#: ``time`` module members that read the host's wall clock.
_WALL_CLOCK_FNS = {"time", "perf_counter", "monotonic", "process_time",
                   "clock_gettime", "time_ns", "perf_counter_ns",
                   "monotonic_ns"}


def _terminal_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` -> ``"c"``; ``name`` -> ``"name"``; else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_next_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "next")


class _FileLinter(ast.NodeVisitor):
    """Lint one simulator source file against the RV5xx rules."""

    def __init__(self, path: str, source: str,
                 findings: list[LintFinding]) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.findings = findings
        self.set_names: set[str] = set()
        self.set_container_names: set[str] = set()

    def run(self, tree: ast.Module) -> None:
        self.set_names = _set_typed_names(tree)
        self.set_container_names = _set_container_names(tree)
        self.visit(tree)

    # -- plumbing ------------------------------------------------------
    def _suppressed(self, line: int, code: str) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        m = _NOQA_RE.search(self.lines[line - 1])
        if not m:
            return False
        codes = m.group("codes")
        if codes is None:
            return True
        return code in {c.strip().upper() for c in codes.split(",")}

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self._suppressed(line, code):
            return
        self.findings.append(
            LintFinding(self.path, line,
                        getattr(node, "col_offset", 0), code, message)
        )

    # -- RV501 / RV505: heap pushes ------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in ("heappush", "heappushpop")
            and isinstance(f.value, ast.Name)
            and f.value.id == "heapq"
            and len(node.args) >= 2
        ):
            self._check_heap_item(node, node.args[1])
        self._check_wall_clock(node)
        self._check_set_pop(node)
        self.generic_visit(node)

    def _check_heap_item(self, call: ast.Call, item: ast.expr) -> None:
        if not isinstance(item, ast.Tuple):
            self._emit(
                call, "RV501",
                "heap push of a non-tuple item: simultaneous events "
                "need an explicit (key, next(<counter>), ...) shape so "
                "ties have a total, reproducible order",
            )
            return
        next_at = [i for i, el in enumerate(item.elts)
                   if _is_next_call(el)]
        if not next_at:
            self._emit(
                call, "RV501",
                "heap push without a monotonic next(<counter>) "
                "tie-breaker: simultaneous events compare by payload, "
                "so pop order depends on push/hash order "
                "(use repro.runtime.seq.monotonic_counter)",
            )
            return
        if next_at[0] != 1:
            self._emit(
                call, "RV505",
                f"heap tuple's next(...) tie-breaker is element "
                f"{next_at[0]}, not element 1: the payload before it "
                "participates in comparisons before ties are broken",
            )
        for el in item.elts:
            if isinstance(el, ast.Lambda):
                self._emit(
                    el, "RV505",
                    "lambda inside a heap tuple: callables compare by "
                    "identity, i.e. by registration order",
                )

    # -- RV502: float equality on clocks -------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        clockish = [
            operand for operand in [node.left, *node.comparators]
            if _terminal_name(operand) in _CLOCK_NAMES
        ]
        if clockish and any(isinstance(op, (ast.Eq, ast.NotEq))
                            for op in node.ops):
            name = _terminal_name(clockish[0])
            self._emit(
                node, "RV502",
                f"float equality against simulated clock value "
                f"{name!r}: simulated times are float sums; compare "
                "with an order relation or a tolerance",
            )
        self.generic_visit(node)

    # -- RV503: unordered iteration / choice ---------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node)
        self.generic_visit(node)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.Subscript):
            # ``self.idle[node]`` where ``idle`` is a container of sets.
            return _terminal_name(node.value) in self.set_container_names
        return _terminal_name(node) in self.set_names

    def _check_iter(self, itr: ast.expr) -> None:
        if self._is_set_expr(itr):
            self._emit(
                itr, "RV503",
                "iteration over an unordered set feeds the event "
                "order: wrap in sorted(...) (or use min/max)",
            )

    def _check_set_pop(self, node: ast.Call) -> None:
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr == "pop"
            and not node.args and not node.keywords
            and self._is_set_expr(f.value)
        ):
            self._emit(
                node, "RV503",
                "set.pop() takes a hash-order-dependent element: pick "
                "deterministically (min(...) then discard)",
            )

    # -- RV504: wall clocks and unseeded RNGs --------------------------
    def _check_wall_clock(self, node: ast.Call) -> None:
        f = node.func
        if not isinstance(f, ast.Attribute):
            return
        base = f.value
        if isinstance(base, ast.Name) and base.id == "time" \
                and f.attr in _WALL_CLOCK_FNS:
            self._emit(
                node, "RV504",
                f"time.{f.attr}() inside a simulation step: simulated "
                "runs must not read the host's wall clock",
            )
            return
        if f.attr == "now" and _terminal_name(base) in ("datetime", "date"):
            self._emit(
                node, "RV504",
                "datetime.now() inside a simulation step: simulated "
                "runs must not read the host's wall clock",
            )
            return
        if isinstance(base, ast.Name) and base.id == "random":
            self._emit(
                node, "RV504",
                f"random.{f.attr}() uses the global unseeded RNG: draw "
                "from the run's one seeded FaultModel/scheduler RNG",
            )
            return
        if (
            _terminal_name(base) == "random"
            and isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
            and f.attr != "default_rng"
        ):
            self._emit(
                node, "RV504",
                f"np.random.{f.attr}() uses the legacy global RNG: "
                "draw from one seeded default_rng(seed)",
            )
            return
        if f.attr == "default_rng" and not node.args and not node.keywords:
            self._emit(
                node, "RV504",
                "default_rng() without a seed: the run is no longer a "
                "function of its inputs",
            )


def eventloop_sources(sources: dict[str, str]) -> list[LintFinding]:
    """Lint a ``{path: source}`` mapping; returns sorted findings."""
    findings: list[LintFinding] = []
    for path, src in sorted(sources.items()):
        try:
            tree = ast.parse(src, filename=path)
        except SyntaxError as exc:
            findings.append(LintFinding(
                path, exc.lineno or 0, exc.offset or 0,
                "RV500", f"syntax error: {exc.msg}",
            ))
            continue
        linter = _FileLinter(path, src, findings)
        linter.run(tree)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


#: Modules the event-loop lint covers by default: the shared event core,
#: the three simulators and the fault layer whose RNG they consume.
#: (The threaded runtime legitimately reads wall clocks and is audited
#: by RV4xx/C7xx instead.)
DEFAULT_SCOPE = (
    "src/repro/sim.py",
    "src/repro/machine/simulator.py",
    "src/repro/machine/streamsim.py",
    "src/repro/distributed/simulator.py",
    "src/repro/resilience",
)


def eventloop_paths(
    paths: Optional[Sequence[str | Path]] = None,
) -> list[LintFinding]:
    """Lint ``*.py`` files under the given paths (default:
    :data:`DEFAULT_SCOPE`)."""
    return eventloop_sources(scope_sources(paths, DEFAULT_SCOPE))


def eventloop_report(
    paths: Optional[Sequence[str | Path]] = None,
) -> Report:
    """Run the RV5xx lint and wrap findings in a :class:`Report`."""
    findings = eventloop_paths(paths)
    report = Report("eventloop")
    report.stats["findings"] = float(len(findings))
    for f in findings:
        report.add(f.code, f.message, location=f.location)
    return report
