"""Lock-discipline linter (RV4xx): static concurrency rules for the
threaded runtime (AST-based, stdlib only).

The C7xx pass (:mod:`repro.verify.concurrency`) convicts publish and
wakeup bugs from recorded traces; this pass convicts the *source
shapes* that breed races, over the package that actually runs
concurrent code — ``repro.runtime`` by default (the pool's state lock
and the scheduler deques and heap).  Five rules, suppressible like the
RV3xx project lint with ``# noqa: RV4xx`` on the offending line:

* **RV401 unlocked shared write** — inside a class that owns a
  ``threading.Lock``/``RLock``/``Condition`` attribute, an augmented
  assignment (``+=`` &c., the read-modify-write shape) on a ``self``
  attribute outside any ``with self.<lock>:`` block and outside the
  single-threaded setup methods (``__init__``/``setup``/``bind``).
  Deliberate best-effort counters carry a justifying comment and a
  ``noqa``;
* **RV402 wait without predicate loop** — a ``Condition.wait()`` not
  lexically inside a ``while`` loop: condition waits can wake
  spuriously, so the predicate must be re-checked in a loop
  (``threading.Event.wait`` is exempt — it latches);
* **RV403 inconsistent lock order** — lexically nested ``with
  self.<lockA>: ... with self.<lockB>:`` acquisitions whose order
  graph, accumulated across the linted tree, contains a cycle;
* **RV404 sleep as synchronization** — any ``time.sleep(...)`` in the
  scoped modules: the runtime synchronizes with events and joins;
  sleeping for another thread's progress is a latent race and a
  wasted core;
* **RV405 unguarded read of lock-guarded state** — a ``return``
  statement (outside any ``with self.<lock>:`` block and outside the
  setup methods) that reads a *lock-guarded* attribute: one the class
  both touches inside a lock block and mutates (augmented/subscript
  assignment or a mutating container call such as ``append``/
  ``heappush``).  The classic shape is an emptiness probe like
  ``return bool(self._heap)`` racing a multi-step heap sift on another
  thread.  Deliberately lock-free probes (atomic deque length reads
  backed by a re-polling protocol) carry a memory-model justification
  and a ``noqa``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional, Sequence

from repro.verify.lint import LintFinding, _NOQA_RE, scope_sources
from repro.verify.report import Report

__all__ = [
    "lockdiscipline_sources",
    "lockdiscipline_paths",
    "lockdiscipline_report",
    "DEFAULT_SCOPE",
]

#: Methods that run before (or after) the worker threads exist.
_SETUP_METHODS = {"__init__", "setup", "bind", "__post_init__"}

#: threading constructors whose product is a mutual-exclusion object.
_LOCK_CTORS = {"Lock", "RLock", "Condition", "Semaphore",
               "BoundedSemaphore"}


def _lock_ctor_in(expr: ast.expr) -> bool:
    """Does this expression construct a threading lock (possibly inside
    a list/comprehension, the per-panel lock-table idiom)?"""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LOCK_CTORS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "threading"
        ):
            return True
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` or ``self.X[...]`` -> ``"X"``; else ``None``."""
    if isinstance(node, ast.Subscript):
        return _self_attr(node.value)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _condition_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes assigned ``threading.Condition(...)`` in ``cls``."""
    out: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            f = node.value.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "Condition"
                and isinstance(f.value, ast.Name)
                and f.value.id == "threading"
            ):
                for tgt in node.targets:
                    attr = _self_attr(tgt)
                    if attr is not None:
                        out.add(attr)
    return out


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes of ``cls`` holding a lock or a lock table."""
    out: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _lock_ctor_in(node.value):
            for tgt in node.targets:
                attr = _self_attr(tgt)
                if attr is not None:
                    out.add(attr)
    return out


#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "appendleft", "pop", "popleft", "extend", "extendleft",
    "add", "remove", "discard", "clear", "update", "setdefault",
    "insert",
}

#: ``heapq`` functions that mutate their first argument.
_HEAPQ_MUTATORS = {"heappush", "heappop", "heapify", "heappushpop",
                   "heapreplace"}


def _witnessed_attrs(lock_attrs: set[str]):
    """Probe factory: ``self`` attributes touched inside a ``with
    self.<lock>:`` body of the probed class."""

    def probe(cls: ast.ClassDef) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.With):
                continue
            if not any(
                _self_attr(item.context_expr) in lock_attrs
                for item in node.items
            ):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Attribute):
                        attr = _self_attr(sub)
                        if attr is not None:
                            out.add(attr)
        return out - lock_attrs

    return probe


def _mutated_attrs(cls: ast.ClassDef) -> set[str]:
    """``self`` attributes the class mutates anywhere (shared state):
    augmented or subscript assignment, in-place container calls, or
    ``heapq`` operations.  Plain ``self.X = ...`` rebinds are treated
    as initialisation, not mutation."""
    out: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.AugAssign):
            attr = _self_attr(node.target)
            if attr is not None:
                out.add(attr)
        elif isinstance(node, (ast.Assign, ast.Delete)):
            for tgt in node.targets:
                if isinstance(tgt, ast.Subscript):
                    attr = _self_attr(tgt)
                    if attr is not None:
                        out.add(attr)
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) \
                    and f.attr in _MUTATOR_METHODS:
                attr = _self_attr(f.value)
                if attr is not None:
                    out.add(attr)
            elif (
                isinstance(f, ast.Attribute)
                and f.attr in _HEAPQ_MUTATORS
                and isinstance(f.value, ast.Name)
                and f.value.id == "heapq"
                and node.args
            ):
                attr = _self_attr(node.args[0])
                if attr is not None:
                    out.add(attr)
    return out


class _ClassLinter:
    """Lint one class's methods against the RV401/402/403/405 rules."""

    def __init__(self, path: str, lines: list[str], cls: ast.ClassDef,
                 lock_attrs: set[str], cond_attrs: set[str],
                 findings: list[LintFinding],
                 lock_order: dict[str, set[str]],
                 guarded_attrs: Optional[set[str]] = None) -> None:
        self.path = path
        self.lines = lines
        self.cls = cls
        self.lock_attrs = lock_attrs
        self.cond_attrs = cond_attrs
        self.findings = findings
        self.lock_order = lock_order
        self.guarded_attrs = guarded_attrs or set()

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

    # ------------------------------------------------------------------
    def lint(self) -> None:
        for stmt in self.cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._lint_method(stmt)

    def _with_locks(self, node: ast.With) -> list[str]:
        """Lock attributes this ``with`` acquires (``self.X`` items)."""
        out = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in self.lock_attrs:
                out.append(attr)
        return out

    def _lint_method(self, fn) -> None:
        in_setup = fn.name in _SETUP_METHODS
        self._walk(fn.body, held=[], in_setup=in_setup, in_while=False,
                   fn_name=fn.name)

    def _walk(self, body, held: list[str], in_setup: bool,
              in_while: bool, fn_name: str) -> None:
        for stmt in body:
            if isinstance(stmt, ast.With):
                acquired = self._with_locks(stmt)
                for new in acquired:
                    for outer in held:
                        if outer != new:
                            self._note_order(stmt, outer, new)
                self._walk(stmt.body, held + acquired, in_setup,
                           in_while, fn_name)
                # Expressions in the with header still need the scans.
                for item in stmt.items:
                    self._scan_expr(item.context_expr, in_while)
                continue
            if isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, in_while=True)
                self._walk(stmt.body + stmt.orelse, held, in_setup,
                           in_while=True, fn_name=fn_name)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs (callbacks) run on unknown threads: lint
                # them as non-setup code holding nothing.
                self._walk(stmt.body, held=[], in_setup=False,
                           in_while=False, fn_name=stmt.name)
                continue
            if isinstance(stmt, ast.AugAssign) and not in_setup:
                self._check_aug(stmt, held)
            if (
                isinstance(stmt, ast.Return)
                and stmt.value is not None
                and not in_setup
                and not held
            ):
                self._check_return(stmt)
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, (ast.stmt, ast.expr)):
                    if isinstance(child, ast.expr):
                        self._scan_expr(child, in_while)
            # Recurse into compound statements (if/for/try bodies).
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub and not isinstance(stmt, (ast.With, ast.While)):
                    self._walk(sub, held, in_setup, in_while, fn_name)
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for h in handlers:
                    self._walk(h.body, held, in_setup, in_while, fn_name)

    def _note_order(self, node: ast.AST, outer: str, new: str) -> None:
        key = f"{self.cls.name}.{outer}"
        val = f"{self.cls.name}.{new}"
        self.lock_order.setdefault(key, set()).add(val)
        # Cycle check is global (lockdiscipline_sources) once all files
        # contributed; here we only record the edge.
        _ = node

    def _check_aug(self, stmt: ast.AugAssign, held: list[str]) -> None:
        attr = _self_attr(stmt.target)
        if attr is None or attr in self.lock_attrs:
            return
        if held:
            return
        self._emit(
            stmt, "RV401",
            f"read-modify-write of shared attribute self.{attr} in "
            f"lock-owning class {self.cls.name} outside any "
            "`with self.<lock>:` block",
        )

    def _check_return(self, stmt: ast.Return) -> None:
        assert stmt.value is not None
        for node in ast.walk(stmt.value):
            if not isinstance(node, ast.Attribute):
                continue
            attr = _self_attr(node)
            if attr is not None and attr in self.guarded_attrs:
                self._emit(
                    stmt, "RV405",
                    f"return reads lock-guarded attribute self.{attr} "
                    f"of {self.cls.name} without holding the lock that "
                    "elsewhere guards its mutation (torn read against "
                    "a concurrent multi-step update)",
                )
                return

    def _scan_expr(self, expr: ast.expr, in_while: bool) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "wait"
                and not in_while
            ):
                base_attr = _self_attr(f.value)
                if base_attr is not None and base_attr in self.cond_attrs:
                    self._emit(
                        node, "RV402",
                        f"self.{base_attr}.wait() outside a while "
                        "loop: condition waits wake spuriously; "
                        "re-check the predicate in a loop",
                    )


def _scan_sleeps(path: str, source: str, tree: ast.Module,
                 findings: list[LintFinding]) -> None:
    lines = source.splitlines()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sleep"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            line = getattr(node, "lineno", 0)
            if 1 <= line <= len(lines):
                m = _NOQA_RE.search(lines[line - 1])
                if m and (m.group("codes") is None or "RV404" in {
                    c.strip().upper()
                    for c in (m.group("codes") or "").split(",")
                }):
                    continue
            findings.append(LintFinding(
                path, line, getattr(node, "col_offset", 0), "RV404",
                "time.sleep() in concurrent runtime code: synchronize "
                "with events/joins, never with naps",
            ))


def lockdiscipline_sources(
    sources: dict[str, str],
) -> list[LintFinding]:
    """Lint a ``{path: source}`` mapping; returns sorted findings."""
    findings: list[LintFinding] = []
    lock_order: dict[str, set[str]] = {}
    trees: dict[str, ast.Module] = {}
    for path, src in sources.items():
        try:
            trees[path] = ast.parse(src, filename=path)
        except SyntaxError as exc:
            return [LintFinding(path, exc.lineno or 0, exc.offset or 0,
                                "RV400", f"syntax error: {exc.msg}")]
    # Resolve lock ownership through base classes named in the linted
    # set: a subclass of a lock-owning scheduler shares its discipline.
    by_name: dict[str, ast.ClassDef] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                by_name.setdefault(node.name, node)

    def _inherited(cls: ast.ClassDef, probe) -> set[str]:
        out: set[str] = set(probe(cls))
        seen = {cls.name}
        stack = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        while stack:
            name = stack.pop()
            if name in seen or name not in by_name:
                continue
            seen.add(name)
            base = by_name[name]
            out |= probe(base)
            stack.extend(b.id for b in base.bases
                         if isinstance(b, ast.Name))
        return out

    order_sites: dict[str, tuple[str, int]] = {}
    for path, tree in trees.items():
        src_lines = sources[path].splitlines()
        _scan_sleeps(path, sources[path], tree, findings)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = _inherited(node, _lock_attrs)
            conds = _inherited(node, _condition_attrs)
            if not locks and not conds:
                continue
            # RV405 guarded set: attributes the class hierarchy both
            # touches under a lock AND mutates in place somewhere.
            witnessed = _inherited(node, _witnessed_attrs(locks | conds))
            mutated = _inherited(node, _mutated_attrs)
            before = {k: set(v) for k, v in lock_order.items()}
            _ClassLinter(path, src_lines, node, locks | conds, conds,
                         findings, lock_order,
                         guarded_attrs=witnessed & mutated).lint()
            for k, v in lock_order.items():
                for dst in v - before.get(k, set()):
                    order_sites.setdefault(
                        f"{k}->{dst}", (path, node.lineno)
                    )
    # RV403: cycles in the accumulated nested-acquisition graph.
    state: dict[str, int] = {}
    cycle: list[str] = []

    def _dfs(n: str, pathstack: list[str]) -> bool:
        state[n] = 1
        pathstack.append(n)
        for nxt in sorted(lock_order.get(n, ())):
            if state.get(nxt, 0) == 1:
                cycle.extend(pathstack[pathstack.index(nxt):] + [nxt])
                return True
            if state.get(nxt, 0) == 0 and _dfs(nxt, pathstack):
                return True
        pathstack.pop()
        state[n] = 2
        return False

    for n in sorted(lock_order):
        if state.get(n, 0) == 0 and _dfs(n, []):
            edge = f"{cycle[0]}->{cycle[1]}" if len(cycle) > 1 else ""
            where = order_sites.get(edge, (next(iter(sources)), 0))
            findings.append(LintFinding(
                where[0], where[1], 0, "RV403",
                "inconsistent lock acquisition order: "
                + " -> ".join(cycle),
            ))
            break
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


#: Modules the lock-discipline lint covers by default: everything that
#: runs (or is mutated by) worker threads.
DEFAULT_SCOPE = ("src/repro/runtime",)


def lockdiscipline_paths(
    paths: Optional[Sequence[str | Path]] = None,
) -> list[LintFinding]:
    """Lint ``*.py`` files under the given paths (default:
    :data:`DEFAULT_SCOPE`, the threaded runtime)."""
    return lockdiscipline_sources(scope_sources(paths, DEFAULT_SCOPE))


def lockdiscipline_report(
    paths: Optional[Sequence[str | Path]] = None,
) -> Report:
    """Run the RV4xx lint and wrap findings in a :class:`Report`."""
    findings = lockdiscipline_paths(paths)
    report = Report("lockdiscipline")
    report.stats["findings"] = float(len(findings))
    for f in findings:
        report.add(f.code, f.message, location=f.location)
    return report
