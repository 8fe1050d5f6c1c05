"""Project lint engine (AST-based, stdlib only): one parse per file, one
``# noqa`` path, two rule families.

A family is registered under its code prefix as ``(report name,
default scope, check)``; the check walks the parsed files of its scope and emits
findings through :meth:`_File.emit`, which honours ``# noqa`` (bare) or
``# noqa: RVxxx[, ...]`` on the offending line.  A file that does not
parse yields ``RVx00`` and the other files are still linted.

**RV3xx — project invariants** (scope: the whole ``repro`` package).

* **RV301 frozen-mutation** — no attribute assignment on instances of
  the project's frozen dataclasses (``PolicyTraits``, ``Task``,
  ``TraceEvent``, ...; every ``@dataclass(frozen=True)`` in the linted
  tree is discovered first).  ``object.__setattr__(self, ...)`` inside a
  class's own methods is the sanctioned ``__post_init__`` idiom; any
  other ``object.__setattr__`` is flagged.
* **RV302 float-equality** — no ``==``/``!=`` between two time-like
  expressions (``time``, ``start``, ``end``, ``makespan``, ...) or
  between a time-like expression and a float literal.
* **RV303 policy-traits** — every concrete ``SchedulerPolicy`` subclass
  defines ``traits`` (class attribute or ``self.traits = ...``).
* **RV304 numpy-truthiness** — no boolean test directly on a call known
  to return an array (``np.flatnonzero(x)`` &c.); test ``.size``.
* **RV305 mutable-default** — no dataclass field defaulting to a shared
  mutable (``[]``, ``{}``, ``set()``, ``np.zeros(...)``, ...); use
  ``field(default_factory=...)``.
* **RV306 unordered-iteration** — no ``for``/``async for``/
  comprehension over a set (literal, ``set(...)``, a set-typed name, an
  element of a container of sets such as ``defaultdict(set)``) and no
  zero-argument ``.pop()`` on one: set order follows hash seeding.
* **RV307 unseeded-random** — no legacy ``np.random.<sampler>(...)`` or
  stdlib ``random.<sampler>(...)`` module draws, and no
  ``np.random.default_rng()`` / ``random.Random()`` without a seed.

**RV5xx — event-loop discipline** (scope: the shared event core, the
three simulators and the fault layer; the static side of the D8xx
replay audit).

* **RV501 heap push without a tie-breaker** — a ``heapq.heappush``
  whose item is not a tuple holding ``next(<counter>)``.
* **RV502 float equality on a simulated clock** — ``==``/``!=``
  against a ``time``/``now``/``when``/``clock``/``deadline`` value.
* **RV503 unordered choice feeding the event order** — RV306's shape.
* **RV504 wall clock or unseeded RNG in a simulation step** —
  ``time.time``/``perf_counter``/..., ``datetime.now``, any stdlib
  ``random.*`` or legacy ``np.random.*`` call, a seedless
  ``default_rng()``.
* **RV505 payload compared before the tie-breaker** — a heap tuple
  whose ``next(...)`` is not element 1, or that carries a ``lambda``.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.verify.report import Report

__all__ = ["LintFinding", "Family", "FAMILIES", "lint_sources",
           "lint_paths", "lint_report"]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


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


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@functools.lru_cache
def _parse(source: str) -> ast.Module | SyntaxError:
    """Parse once per distinct source text, so the families linting one
    file in a run share its tree (every rule only reads it; the cache's
    128 entries hold the whole package)."""
    try:
        return ast.parse(source)
    except SyntaxError as exc:
        return exc


class _File:
    """One parsed source file and the one emit path every rule uses."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 findings: list[LintFinding]) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self.findings = findings

    def emit_at(self, line: int, col: int, code: str, message: str) -> None:
        if 1 <= line <= len(self.lines):
            m = _NOQA_RE.search(self.lines[line - 1])
            if m and (m.group("codes") is None or code in {
                c.strip().upper() for c in m.group("codes").split(",")
            }):
                return
        self.findings.append(LintFinding(self.path, line, col, code, message))

    def emit(self, node: ast.AST, code: str, message: str) -> None:
        self.emit_at(getattr(node, "lineno", 0),
                     getattr(node, "col_offset", 0), code, message)

    @functools.cached_property
    def set_names(self) -> set[str]:
        return _set_typed_names(self.tree)

    @functools.cached_property
    def set_containers(self) -> set[str]:
        return _set_container_names(self.tree)


@dataclass(frozen=True)
class Family:
    """A rule family: its report name, default scope (``src/repro/...``
    entries, resolved against the imported package) and the check run
    over the parsed files."""

    name: str
    scope: tuple[str, ...]
    check: Callable[[list[_File]], None]


#: Registered families by code prefix.
FAMILIES: dict[str, Family] = {}


def _family(prefix: str, name: str, scope: tuple[str, ...]):
    def register(check: Callable[[list[_File]], None]):
        FAMILIES[prefix] = Family(name, scope, check)
        return check
    return register


def lint_sources(sources: dict[str, str],
                 family: str = "RV3") -> list[LintFinding]:
    """Lint a ``{path: source}`` mapping with one family; returns the
    findings sorted by location."""
    findings: list[LintFinding] = []
    files = []
    for path, src in sources.items():
        tree = _parse(src)
        if isinstance(tree, SyntaxError):
            findings.append(LintFinding(path, tree.lineno or 0,
                                        tree.offset or 0, f"{family}00",
                                        f"syntax error: {tree.msg}"))
        else:
            files.append(_File(path, src, tree, findings))
    FAMILIES[family].check(files)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def _read(paths: Optional[Sequence[str | Path]],
          family: str) -> dict[str, str]:
    """``{path: source}`` of every ``*.py`` file under ``paths``, by
    default under the family's scope.  A missing path raises."""
    if paths is None:
        import repro

        pkg = Path(repro.__file__).parent
        paths = [pkg / Path(p).relative_to("src/repro")
                 for p in FAMILIES[family].scope]
    files: list[Path] = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return {str(f): f.read_text() for f in files}


def lint_paths(paths: Optional[Sequence[str | Path]] = None,
               family: str = "RV3") -> list[LintFinding]:
    """Lint every ``*.py`` file under the given files/directories
    (default: the family's scope)."""
    return lint_sources(_read(paths, family), family)


def lint_report(paths: Optional[Sequence[str | Path]] = None,
                family: str = "RV3") -> Report:
    """Run one family and wrap its findings in a :class:`Report`."""
    sources = _read(paths, family)
    findings = lint_sources(sources, family)
    report = Report(FAMILIES[family].name)
    report.stats["files"] = len(sources)
    report.stats["findings"] = len(findings)
    for f in findings:
        report.add(f.code, f.message, location=f.location)
    return report


# ----------------------------------------------------------------------
# Shared predicates
# ----------------------------------------------------------------------
#: Names that declare a set when they appear as an annotation base.
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}


def _terminal_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` -> ``"c"``; ``name`` -> ``"name"``; else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


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


def _assigned_names(tree: ast.Module, annotated: Callable[[ast.expr], bool],
                    assigned: Callable[[ast.expr], bool]) -> set[str]:
    """Names (or attribute names) whose annotation satisfies
    ``annotated`` or whose assigned value satisfies ``assigned``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.AnnAssign):
            if annotated(node.annotation):
                targets = [node.target]
        elif isinstance(node, ast.Assign) and assigned(node.value):
            targets = list(node.targets)
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
            elif isinstance(t, ast.Attribute):
                names.add(t.attr)
    return names


def _calls(node: ast.expr, names: Iterable[str]) -> bool:
    """``node`` is ``<name>(...)`` for one of ``names``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def _set_typed_names(tree: ast.Module) -> set[str]:
    """Names declared or assigned as sets."""
    return _assigned_names(
        tree, _annotation_is_set,
        lambda v: isinstance(v, (ast.Set, ast.SetComp))
        or _calls(v, ("set", "frozenset")))


def _set_container_names(tree: ast.Module) -> set[str]:
    """Names holding containers *of* sets: ``idle: list[set[int]]``,
    ``valid: dict[int, set[str]]``, ``defaultdict(set)`` — subscripting
    one yields a set, so its element is hash-ordered."""
    return _assigned_names(
        tree,
        lambda a: _annotation_contains_set(a) and not _annotation_is_set(a),
        lambda v: _calls(v, ("defaultdict",)) and bool(v.args)
        and isinstance(v.args[0], ast.Name)
        and v.args[0].id in ("set", "frozenset"))


def _set_choice(node: ast.expr, f: _File) -> Optional[tuple[str, str]]:
    """Is ``node`` a hash-ordered set (RV306 / RV503)?  Returns ``(kind,
    label)``: kind ``literal`` (``{...}``, a set comprehension),
    ``ctor`` (``set(...)``), ``element`` (an element of a container of
    sets) or ``name`` (a set-typed name); the label names it."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "literal", "set literal"
    if _calls(node, ("set", "frozenset")):
        return "ctor", f"{node.func.id}(...)"
    if isinstance(node, ast.Subscript):
        base = _terminal_name(node.value)
        return ("element", f"{base}[...]") \
            if base in f.set_containers else None
    name = _terminal_name(node)
    return ("name", name) if name in f.set_names else None


def _is_bare_pop(node: ast.Call) -> bool:
    return (isinstance(node.func, ast.Attribute) and node.func.attr == "pop"
            and not node.args and not node.keywords)


def _rng_call(node: ast.Call) -> Optional[tuple[str, str]]:
    """``("np", member)`` for ``np.random.<member>(...)``, ``("random",
    member)`` for the stdlib module's ``random.<member>(...)`` (RV307 /
    RV504); else ``None``."""
    f = node.func
    if not isinstance(f, ast.Attribute):
        return None
    base = f.value
    if isinstance(base, ast.Name) and base.id == "random":
        return "random", f.attr
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "random"
        and isinstance(base.value, ast.Name)
        and base.value.id in ("np", "numpy")
    ):
        return "np", f.attr
    return None


def _module_call(node: ast.AST, module: str, names: Iterable[str]) -> bool:
    """``node`` is ``<module>.<name>(...)`` for one of ``names``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    )


class _Rules(ast.NodeVisitor):
    """Per-file visitor base: hands every ``for`` / ``async for`` /
    comprehension iterable to :meth:`iterates`."""

    def __init__(self, f: _File) -> None:
        self.f = f

    def iterates(self, itr: ast.expr) -> None:
        raise NotImplementedError

    def visit_For(self, node) -> None:
        self.iterates(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self.iterates(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


# ----------------------------------------------------------------------
# RV3xx: project invariants
# ----------------------------------------------------------------------
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

#: Constructors whose result is a shared mutable as a dataclass default.
_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter",
}

#: stdlib ``random`` module-level samplers on the shared global RNG.
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "seed", "getrandbits",
    "randbytes",
}

_RV306_ITERATION = {
    "literal": "iteration over a set literal is hash-ordered; wrap in "
               "sorted(...) before deriving schedule decisions",
    "ctor": "iteration over {} is hash-ordered; wrap in sorted(...)",
    "element": "iteration over set-valued element `{}` is hash-ordered; "
               "wrap in sorted(...) before deriving schedule decisions",
    "name": "iteration over set `{}` is hash-ordered; wrap in "
            "sorted(...) before deriving schedule decisions",
}


def _is_np_array_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in _ARRAY_RETURNING
    )


def _is_time_like(node: ast.expr) -> bool:
    """Heuristic: does this expression name a simulation time?"""
    if isinstance(node, ast.Subscript):
        return _is_time_like(node.value)
    if isinstance(node, ast.Call):
        terminal = node.func.attr \
            if isinstance(node.func, ast.Attribute) else None
    else:
        terminal = _terminal_name(node)
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
    return _calls(node, _MUTABLE_CALLS) or _is_np_array_call(node)


def _frozen_dataclasses(trees: Iterable[ast.Module]) -> set[str]:
    """Names of every ``@dataclass(frozen=True)`` class in the trees."""
    out: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                _calls(dec, ("dataclass",)) and any(
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords
                )
                for dec in node.decorator_list
            ):
                out.add(node.name)
    return out


class _ProjectRules(_Rules):
    def __init__(self, f: _File, frozen: set[str]) -> None:
        super().__init__(f)
        self.frozen = frozen
        #: var name -> frozen class name, per enclosing function scope.
        self._scopes: list[dict[str, str]] = []
        self._class_stack: list[ast.ClassDef] = []

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node) -> None:
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

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        self._check_policy_traits(node)
        self._check_mutable_defaults(node)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- RV301 frozen mutation ----------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        # Track `x = FrozenClass(...)` constructions.
        if self._scopes and _calls(node.value, self.frozen):
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
                self.f.emit(
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
                self.f.emit(
                    node, "RV301",
                    "object.__setattr__ outside a frozen class's own "
                    "methods bypasses immutability",
                )
        self._check_unseeded_random(node)
        if _is_bare_pop(node):
            choice = _set_choice(node.func.value, self.f)
            if choice and choice[0] != "literal":
                self.f.emit(
                    node, "RV306",
                    f"`{choice[1]}.pop()` removes a hash-ordered arbitrary "
                    "element; pick deterministically (min(...) then "
                    ".discard(...))",
                )
        self.generic_visit(node)

    # -- RV307 unseeded randomness ------------------------------------
    def _check_unseeded_random(self, node: ast.Call) -> None:
        rng = _rng_call(node)
        if rng is None:
            return
        module, member = rng
        if module == "np" and member == "default_rng":
            if not node.args and not node.keywords:
                self.f.emit(
                    node, "RV307",
                    "np.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
        elif module == "np" and member[:1].islower():
            self.f.emit(
                node, "RV307",
                f"legacy np.random.{member}(...) draws from hidden "
                "global state; use a seeded np.random.default_rng(seed)",
            )
        elif module == "random" and member == "Random":
            if not node.args:
                self.f.emit(
                    node, "RV307",
                    "random.Random() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
        elif module == "random" and member in _STDLIB_RANDOM_FNS:
            self.f.emit(
                node, "RV307",
                f"module-level random.{member}(...) uses the shared "
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
                self.f.emit(
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
        if "SchedulerPolicy" not in base_names or "ABC" in base_names:
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
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                    and _terminal_name(stmt.target) == "traits":
                return
        self.f.emit(
            node, "RV303",
            f"SchedulerPolicy subclass {node.name} never defines `traits`",
        )

    # -- RV305 mutable dataclass defaults -----------------------------
    def _check_mutable_defaults(self, node: ast.ClassDef) -> None:
        if not any((isinstance(dec, ast.Name) and dec.id == "dataclass")
                   or _calls(dec, ("dataclass",))
                   for dec in node.decorator_list):
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
                self.f.emit(
                    stmt, "RV305",
                    f"dataclass field `{fname}` defaults to a shared "
                    "mutable; use field(default_factory=...)",
                )

    # -- RV306 unordered set iteration --------------------------------
    def iterates(self, itr: ast.expr) -> None:
        choice = _set_choice(itr, self.f)
        if choice:
            self.f.emit(itr, "RV306",
                        _RV306_ITERATION[choice[0]].format(choice[1]))

    # -- RV304 numpy truthiness ---------------------------------------
    def _check_bool_context(self, expr: ast.expr) -> None:
        if _is_np_array_call(expr):
            self.f.emit(
                expr, "RV304",
                f"truth value of np.{expr.func.attr}(...) is ambiguous for "
                "arrays; test `.size` explicitly",
            )

    def _visit_test(self, node) -> None:
        self._check_bool_context(node.test)
        self.generic_visit(node)

    visit_If = visit_While = visit_Assert = visit_IfExp = _visit_test

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        for value in node.values:
            self._check_bool_context(value)
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not):
            self._check_bool_context(node.operand)
        self.generic_visit(node)


@_family("RV3", "lint", ("src/repro",))
def _project_rules(files: list[_File]) -> None:
    frozen = _frozen_dataclasses(f.tree for f in files)
    for f in files:
        _ProjectRules(f, frozen).visit(f.tree)


# ----------------------------------------------------------------------
# RV5xx: event-loop discipline
# ----------------------------------------------------------------------
#: Terminal attribute/variable names treated as simulated-clock values.
_CLOCK_NAMES = {"time", "now", "when", "clock", "deadline"}

#: ``time`` module members that read the host's wall clock.
_WALL_CLOCK_FNS = {"time", "perf_counter", "monotonic", "process_time",
                   "clock_gettime", "time_ns", "perf_counter_ns",
                   "monotonic_ns"}


class _EventLoopRules(_Rules):
    # -- RV501 / RV505: heap pushes ------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if _module_call(node, "heapq", ("heappush", "heappushpop")) \
                and len(node.args) >= 2:
            self._check_heap_item(node, node.args[1])
        self._check_wall_clock(node)
        if _is_bare_pop(node) and _set_choice(node.func.value, self.f):
            self.f.emit(
                node, "RV503",
                "set.pop() takes a hash-order-dependent element: pick "
                "deterministically (min(...) then discard)",
            )
        self.generic_visit(node)

    def _check_heap_item(self, call: ast.Call, item: ast.expr) -> None:
        if not isinstance(item, ast.Tuple):
            self.f.emit(
                call, "RV501",
                "heap push of a non-tuple item: simultaneous events "
                "need an explicit (key, next(<counter>), ...) shape so "
                "ties have a total, reproducible order",
            )
            return
        next_at = [i for i, el in enumerate(item.elts)
                   if _calls(el, ("next",))]
        if not next_at:
            self.f.emit(
                call, "RV501",
                "heap push without a monotonic next(<counter>) "
                "tie-breaker: simultaneous events compare by payload, "
                "so pop order depends on push/hash order "
                "(use repro.runtime.seq.monotonic_counter)",
            )
            return
        if next_at[0] != 1:
            self.f.emit(
                call, "RV505",
                f"heap tuple's next(...) tie-breaker is element "
                f"{next_at[0]}, not element 1: the payload before it "
                "participates in comparisons before ties are broken",
            )
        for el in item.elts:
            if isinstance(el, ast.Lambda):
                self.f.emit(
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
            self.f.emit(
                node, "RV502",
                f"float equality against simulated clock value "
                f"{name!r}: simulated times are float sums; compare "
                "with an order relation or a tolerance",
            )
        self.generic_visit(node)

    # -- RV503: unordered iteration ------------------------------------
    def iterates(self, itr: ast.expr) -> None:
        if _set_choice(itr, self.f):
            self.f.emit(
                itr, "RV503",
                "iteration over an unordered set feeds the event "
                "order: wrap in sorted(...) (or use min/max)",
            )

    # -- RV504: wall clocks and unseeded RNGs --------------------------
    def _check_wall_clock(self, node: ast.Call) -> None:
        f = node.func
        if not isinstance(f, ast.Attribute):
            return
        rng = _rng_call(node)
        if _module_call(node, "time", _WALL_CLOCK_FNS):
            message = (f"time.{f.attr}() inside a simulation step: "
                       "simulated runs must not read the host's wall clock")
        elif f.attr == "now" and _terminal_name(f.value) in ("datetime",
                                                             "date"):
            message = ("datetime.now() inside a simulation step: simulated "
                       "runs must not read the host's wall clock")
        elif rng and rng[0] == "random":
            message = (f"random.{f.attr}() uses the global unseeded RNG: "
                       "draw from the run's one seeded FaultModel/"
                       "scheduler RNG")
        elif rng and rng[1] != "default_rng":
            message = (f"np.random.{f.attr}() uses the legacy global RNG: "
                       "draw from one seeded default_rng(seed)")
        elif f.attr == "default_rng" and not node.args \
                and not node.keywords:
            message = ("default_rng() without a seed: the run is no longer "
                       "a function of its inputs")
        else:
            return
        self.f.emit(node, "RV504", message)


@_family("RV5", "eventloop", (
    # The shared event core, the three simulators and the fault layer
    # whose RNG they consume.  (The threaded runtime legitimately reads
    # wall clocks and is audited by C7xx instead.)
    "src/repro/sim.py",
    "src/repro/machine/simulator.py",
    "src/repro/machine/streamsim.py",
    "src/repro/distributed/simulator.py",
    "src/repro/resilience",
))
def _eventloop_rules(files: list[_File]) -> None:
    for f in files:
        _EventLoopRules(f).visit(f.tree)
