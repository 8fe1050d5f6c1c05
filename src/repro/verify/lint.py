"""Project-invariant linter for ``src/repro`` (AST-based, stdlib only).

Seven rules encode invariants the simulation stack depends on; each has
a stable code so findings can be suppressed inline with ``# noqa: RV3xx``
(or a bare ``# noqa``) on the offending line.

* **RV301 frozen-mutation** — no attribute assignment on instances of
  the project's frozen dataclasses (``PolicyTraits``, ``Task``,
  ``TraceEvent``, ...).  ``object.__setattr__(self, ...)`` inside the
  class's own methods is the sanctioned ``__post_init__`` idiom and is
  allowed; any other ``object.__setattr__`` is flagged.
* **RV302 float-equality** — no ``==``/``!=`` between two time-like
  expressions (``time``, ``start``, ``end``, ``makespan``, ...) or
  between a time-like expression and a float literal.  Simulated times
  are accumulated floats; use a tolerance comparison.
* **RV303 policy-traits** — every concrete ``SchedulerPolicy`` subclass
  must define ``traits`` (class attribute or ``self.traits = ...``).
* **RV304 numpy-truthiness** — no boolean test directly on a call known
  to return an array (``np.flatnonzero(x)`` &c.): ambiguous for size
  != 1; test ``.size`` instead.
* **RV305 mutable-default** — no dataclass field defaulting to a shared
  mutable (``[]``, ``{}``, ``set()``, ``np.zeros(...)``, ...); use
  ``field(default_factory=...)``.  The stdlib only rejects the literal
  ``list``/``dict``/``set`` cases at runtime — an ``np.ndarray`` or
  ``OrderedDict`` default silently aliases across instances.
* **RV306 unordered-iteration** — no bare ``for``/comprehension over a
  ``set``-typed collection: set order varies across processes (hash
  randomization), so any schedule decision derived from it is
  nondeterministic.  Wrap the iterable in ``sorted(...)``.  Covers
  plain set-typed names, subscripts of containers *of* sets
  (``elems[v]`` where ``elems: list[set[int]]``, ``defaultdict(set)``
  values), and zero-argument ``.pop()`` on any of those — ``set.pop()``
  removes a hash-ordered arbitrary element; pick deterministically with
  ``min(...)`` then ``.discard(...)``.
* **RV307 unseeded-random** — no draws from hidden global RNG state
  (legacy ``np.random.<sampler>(...)`` module calls, stdlib
  ``random.<sampler>(...)``) and no RNG constructed without an explicit
  seed (``np.random.default_rng()`` / ``random.Random()`` with no
  arguments).  Every stochastic choice in the simulation stack — fault
  injection above all — must replay bit-identically from a seed.

The discovery pre-pass collects every ``@dataclass(frozen=True)`` class
in the linted tree, so new frozen types are covered automatically;
set-typed names are collected from annotations and ``set()``-valued
assignments per file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.verify.report import Report

__all__ = ["LintFinding", "lint_paths", "lint_sources", "lint_report"]

_TIME_NAMES = {
    "time", "start", "end", "makespan", "elapsed", "deadline",
    "start_time", "end_time", "last_time", "link_free", "data_ready",
    "t0", "t1", "when",
}
_TIME_RE = re.compile(r"(^|_)(time|makespan)(_|$)")

_ARRAY_RETURNING = {
    "array", "arange", "zeros", "ones", "empty", "full", "concatenate",
    "flatnonzero", "nonzero", "where", "unique", "diff", "intersect1d",
    "setdiff1d", "union1d", "argsort", "sort", "repeat", "cumsum",
    "asarray", "searchsorted", "minimum", "maximum", "isin",
}

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Constructors whose result is a shared mutable when used as a
#: dataclass default (RV305).
_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter",
}

#: Names that declare a set when they appear as an annotation base
#: (RV306): ``x: set[int]``, ``x: frozenset``, ``x: Set[str]``.
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}

#: stdlib ``random`` module-level samplers that touch the shared global
#: RNG (RV307).
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "seed", "getrandbits",
    "randbytes",
}


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnostic."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"


def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost simple name of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_time_like(node: ast.expr) -> bool:
    """Heuristic: does this expression name a simulation time?"""
    terminal: str | None = None
    if isinstance(node, ast.Name):
        terminal = node.id
    elif isinstance(node, ast.Attribute):
        terminal = node.attr
    elif isinstance(node, ast.Subscript):
        return _is_time_like(node.value)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            terminal = func.attr
    if terminal is None:
        return False
    low = terminal.lower()
    return low in _TIME_NAMES or bool(_TIME_RE.search(low))


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


def _is_mutable_default(node: ast.expr) -> bool:
    """Would this dataclass-field default alias across instances?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in _MUTABLE_CALLS:
            return True
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in ("np", "numpy")
            and f.attr in _ARRAY_RETURNING
        ):
            return True
    return False


def _annotation_is_set(ann: ast.expr | None) -> bool:
    if ann is None:
        return False
    if isinstance(ann, ast.Subscript):
        return _annotation_is_set(ann.value)
    if isinstance(ann, ast.Name):
        return ann.id in _SET_ANNOTATIONS
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_ANNOTATIONS
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.split("[", 1)[0].strip() in _SET_ANNOTATIONS
    return False


def _annotation_contains_set(ann: ast.expr | None) -> bool:
    """Any set base anywhere inside the annotation (``list[set[int]]``)."""
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return any(
            tok in _SET_ANNOTATIONS
            for tok in re.split(r"[^A-Za-z_.]+", ann.value) if tok
        )
    for node in ast.walk(ann):
        if isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _SET_ANNOTATIONS:
            return True
    return False


def _set_container_names(tree: ast.Module) -> set[str]:
    """Names holding containers *of* sets (RV306 subscript checks).

    ``idle: list[set[int]]``, ``valid: dict[int, set[str]]`` and
    ``defaultdict(set)`` assignments all qualify: subscripting one
    yields a set, so iterating (or ``.pop()``-ing) the element is
    hash-ordered even though the container itself is ordered.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.AnnAssign):
            if (
                _annotation_contains_set(node.annotation)
                and not _annotation_is_set(node.annotation)
            ):
                targets = [node.target]
        elif isinstance(node, ast.Assign):
            v = node.value
            if (
                isinstance(v, ast.Call)
                and isinstance(v.func, ast.Name)
                and v.func.id == "defaultdict"
                and v.args
                and isinstance(v.args[0], ast.Name)
                and v.args[0].id in ("set", "frozenset")
            ):
                targets = list(node.targets)
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
            elif isinstance(t, ast.Attribute):
                names.add(t.attr)
    return names


def _set_typed_names(tree: ast.Module) -> set[str]:
    """Variable/attribute names declared or assigned as sets (RV306)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.AnnAssign):
            if _annotation_is_set(node.annotation):
                targets = [node.target]
        elif isinstance(node, ast.Assign):
            v = node.value
            if isinstance(v, (ast.Set, ast.SetComp)) or (
                isinstance(v, ast.Call)
                and isinstance(v.func, ast.Name)
                and v.func.id in ("set", "frozenset")
            ):
                targets = list(node.targets)
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
            elif isinstance(t, ast.Attribute):
                names.add(t.attr)
    return names


def _frozen_dataclasses(trees: Iterable[ast.Module]) -> set[str]:
    """Names of every ``@dataclass(frozen=True)`` class in the trees."""
    out: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                if (
                    isinstance(dec, ast.Call)
                    and isinstance(dec.func, ast.Name)
                    and dec.func.id == "dataclass"
                ):
                    for kw in dec.keywords:
                        if (
                            kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            out.add(node.name)
    return out


class _FileLinter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        source: str,
        frozen: set[str],
        set_names: set[str] | None = None,
        set_container_names: set[str] | None = None,
    ) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.frozen = frozen
        self.set_names = set_names or set()
        self.set_container_names = set_container_names or set()
        self.findings: list[LintFinding] = []
        #: var name -> frozen class name, per enclosing function scope.
        self._scopes: list[dict[str, str]] = []
        self._class_stack: list[ast.ClassDef] = []

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
            LintFinding(self.path, line, getattr(node, "col_offset", 0),
                        code, message)
        )

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        scope: dict[str, str] = {}
        # Parameters annotated with a frozen dataclass type participate.
        args = node.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ann = a.annotation
            if isinstance(ann, ast.Name) and ann.id in self.frozen:
                scope[a.arg] = ann.id
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str) \
                    and ann.value in self.frozen:
                scope[a.arg] = ann.value
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        self._check_policy_traits(node)
        self._check_mutable_defaults(node)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- RV301 frozen mutation ----------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        # Track `x = FrozenClass(...)` constructions.
        if (
            self._scopes
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in self.frozen
        ):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self._scopes[-1][tgt.id] = node.value.func.id
        for tgt in node.targets:
            self._check_frozen_target(tgt)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_frozen_target(node.target)
        self.generic_visit(node)

    def _check_frozen_target(self, tgt: ast.expr) -> None:
        if not isinstance(tgt, ast.Attribute):
            return
        base = tgt.value
        if isinstance(base, ast.Name) and self._scopes:
            cls = self._scopes[-1].get(base.id)
            if cls is not None:
                self._emit(
                    tgt, "RV301",
                    f"attribute assignment on frozen dataclass {cls} "
                    f"instance `{base.id}` (dataclasses.replace() instead)",
                )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            first = node.args[0] if node.args else None
            is_self = isinstance(first, ast.Name) and first.id == "self"
            if not (is_self and self._class_stack):
                self._emit(
                    node, "RV301",
                    "object.__setattr__ outside a frozen class's own "
                    "methods bypasses immutability",
                )
        self._check_unseeded_random(node)
        self._check_set_pop(node)
        self.generic_visit(node)

    # -- RV307 unseeded randomness ------------------------------------
    def _check_unseeded_random(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
        ):
            # np.random.<something>(...)
            if func.attr == "default_rng":
                if not node.args and not node.keywords:
                    self._emit(
                        node, "RV307",
                        "np.random.default_rng() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
            elif func.attr[:1].islower():
                self._emit(
                    node, "RV307",
                    f"legacy np.random.{func.attr}(...) draws from hidden "
                    "global state; use a seeded np.random.default_rng(seed)",
                )
        elif isinstance(base, ast.Name) and base.id == "random":
            # stdlib random.<something>(...)
            if func.attr == "Random":
                if not node.args:
                    self._emit(
                        node, "RV307",
                        "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
            elif func.attr in _STDLIB_RANDOM_FNS:
                self._emit(
                    node, "RV307",
                    f"module-level random.{func.attr}(...) uses the shared "
                    "global RNG; use a seeded generator instead",
                )

    # -- RV302 float equality -----------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            lt, rt = _is_time_like(lhs), _is_time_like(rhs)
            if (lt and rt) or (lt and _is_float_literal(rhs)) \
                    or (rt and _is_float_literal(lhs)):
                self._emit(
                    node, "RV302",
                    "==/!= between floating-point simulation times; "
                    "compare with a tolerance (abs(a - b) <= tol)",
                )
        self.generic_visit(node)

    # -- RV303 policy traits ------------------------------------------
    def _check_policy_traits(self, node: ast.ClassDef) -> None:
        base_names = {
            b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
            for b in node.bases
        }
        if "SchedulerPolicy" not in base_names:
            return
        if "ABC" in base_names:
            return
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == "traits":
                        return
                    if (
                        isinstance(tgt, ast.Attribute)
                        and tgt.attr == "traits"
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        return
            if isinstance(stmt, ast.AnnAssign):
                tgt = stmt.target
                if stmt.value is not None and (
                    (isinstance(tgt, ast.Name) and tgt.id == "traits")
                    or (isinstance(tgt, ast.Attribute) and tgt.attr == "traits")
                ):
                    return
        self._emit(
            node, "RV303",
            f"SchedulerPolicy subclass {node.name} never defines `traits`",
        )

    # -- RV305 mutable dataclass defaults -----------------------------
    def _check_mutable_defaults(self, node: ast.ClassDef) -> None:
        if not any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (
                isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass"
            )
            for dec in node.decorator_list
        ):
            return
        for stmt in node.body:
            value = None
            fname = "?"
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                value, fname = stmt.value, stmt.target.id
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                value, fname = stmt.value, stmt.targets[0].id
            if value is not None and _is_mutable_default(value):
                self._emit(
                    stmt, "RV305",
                    f"dataclass field `{fname}` defaults to a shared "
                    "mutable; use field(default_factory=...)",
                )

    # -- RV306 unordered set iteration --------------------------------
    def _check_iteration_order(self, itr: ast.expr) -> None:
        if isinstance(itr, (ast.Set, ast.SetComp)):
            self._emit(
                itr, "RV306",
                "iteration over a set literal is hash-ordered; wrap in "
                "sorted(...) before deriving schedule decisions",
            )
            return
        if (
            isinstance(itr, ast.Call)
            and isinstance(itr.func, ast.Name)
            and itr.func.id in ("set", "frozenset")
        ):
            self._emit(
                itr, "RV306",
                f"iteration over {itr.func.id}(...) is hash-ordered; "
                "wrap in sorted(...)",
            )
            return
        if isinstance(itr, ast.Subscript):
            base = _terminal_name(itr.value)
            if base is not None and base in self.set_container_names:
                self._emit(
                    itr, "RV306",
                    f"iteration over set-valued element `{base}[...]` is "
                    "hash-ordered; wrap in sorted(...) before deriving "
                    "schedule decisions",
                )
            return
        name = _terminal_name(itr)
        if name is not None and name in self.set_names:
            self._emit(
                itr, "RV306",
                f"iteration over set `{name}` is hash-ordered; wrap in "
                "sorted(...) before deriving schedule decisions",
            )

    def _check_set_pop(self, node: ast.Call) -> None:
        f = node.func
        if not (
            isinstance(f, ast.Attribute)
            and f.attr == "pop"
            and not node.args
            and not node.keywords
        ):
            return
        recv = f.value
        is_set = False
        label = "set"
        if isinstance(recv, ast.Subscript):
            base = _terminal_name(recv.value)
            if base is not None and base in self.set_container_names:
                is_set, label = True, f"{base}[...]"
        elif (
            isinstance(recv, ast.Call)
            and isinstance(recv.func, ast.Name)
            and recv.func.id in ("set", "frozenset")
        ):
            is_set, label = True, f"{recv.func.id}(...)"
        else:
            name = _terminal_name(recv)
            if name is not None and name in self.set_names:
                is_set, label = True, name
        if is_set:
            self._emit(
                node, "RV306",
                f"`{label}.pop()` removes a hash-ordered arbitrary "
                "element; pick deterministically (min(...) then "
                ".discard(...))",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration_order(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration_order(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iteration_order(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- RV304 numpy truthiness ---------------------------------------
    def _check_bool_context(self, expr: ast.expr) -> None:
        if not isinstance(expr, ast.Call):
            return
        func = expr.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and func.attr in _ARRAY_RETURNING
        ):
            self._emit(
                expr, "RV304",
                f"truth value of np.{func.attr}(...) is ambiguous for "
                "arrays; test `.size` explicitly",
            )

    def visit_If(self, node: ast.If) -> None:
        self._check_bool_context(node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_bool_context(node.test)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._check_bool_context(node.test)
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._check_bool_context(node.test)
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        for value in node.values:
            self._check_bool_context(value)
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not):
            self._check_bool_context(node.operand)
        self.generic_visit(node)


def lint_sources(sources: dict[str, str]) -> list[LintFinding]:
    """Lint a ``{path: source}`` mapping; returns sorted findings."""
    trees: dict[str, ast.Module] = {}
    for path, src in sources.items():
        try:
            trees[path] = ast.parse(src, filename=path)
        except SyntaxError as exc:
            return [LintFinding(path, exc.lineno or 0, exc.offset or 0,
                                "RV300", f"syntax error: {exc.msg}")]
    frozen = _frozen_dataclasses(trees.values())
    findings: list[LintFinding] = []
    for path, tree in trees.items():
        linter = _FileLinter(path, sources[path], frozen,
                             _set_typed_names(tree),
                             _set_container_names(tree))
        linter.visit(tree)
        findings.extend(linter.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def lint_paths(paths: Sequence[str | Path]) -> list[LintFinding]:
    """Lint every ``*.py`` file under the given files/directories."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    sources = {str(f): f.read_text() for f in files}
    return lint_sources(sources)


def scope_sources(
    paths: Sequence[str | Path] | None, scope: Sequence[str],
) -> dict[str, str]:
    """``{path: source}`` of every ``*.py`` file under ``paths``, or by
    default under ``scope``: ``src/repro/...`` entries resolved against
    the imported package (so any CWD works, including an installed
    tree).  Missing paths are skipped."""
    if paths is None:
        import repro

        pkg = Path(repro.__file__).resolve().parent
        targets = [pkg / Path(p).relative_to("src/repro") for p in scope]
    else:
        targets = [Path(p) for p in paths]
    files: list[Path] = []
    for p in targets:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.exists():
            files.append(p)
    return {str(f): f.read_text() for f in files}


def lint_report(paths: Sequence[str | Path]) -> Report:
    """Run the linter and wrap findings in a :class:`Report`."""
    findings = lint_paths(paths)
    report = Report("lint")
    report.stats["files"] = len({f.path for f in findings}) if findings else 0
    report.stats["findings"] = len(findings)
    for f in findings:
        report.add(f.code, f.message, location=f.location)
    return report
