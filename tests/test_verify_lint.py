"""AST-linter tests: each rule on synthetic snippets, plus a clean run
over the real package (the linter gates tier-1, so ``src/repro`` itself
must lint clean)."""

from pathlib import Path

import pytest

from repro.verify import lint_paths, lint_report, lint_sources

FROZEN_PRELUDE = """
from dataclasses import dataclass

@dataclass(frozen=True)
class PolicyTraits:
    name: str
"""


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# RV301: frozen-dataclass mutation.
# ----------------------------------------------------------------------
def test_rv301_local_variable_mutation():
    src = FROZEN_PRELUDE + """
def f():
    t = PolicyTraits("a")
    t.name = "b"
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV301"]
    assert "PolicyTraits" in found[0].message
    assert found[0].line == src.splitlines().index('    t.name = "b"') + 1


def test_rv301_annotated_parameter_mutation():
    src = FROZEN_PRELUDE + """
def f(tr: PolicyTraits):
    tr.name = "b"
    tr.name += "c"
"""
    assert codes(lint_sources({"x.py": src})) == ["RV301", "RV301"]


def test_rv301_object_setattr():
    src = FROZEN_PRELUDE + """
def f():
    t = PolicyTraits("a")
    object.__setattr__(t, "name", "b")
"""
    assert codes(lint_sources({"x.py": src})) == ["RV301"]


def test_rv301_object_setattr_on_self_allowed():
    # The sanctioned __post_init__ idiom.
    src = FROZEN_PRELUDE + """
@dataclass(frozen=True)
class Other:
    x: int

    def __post_init__(self):
        object.__setattr__(self, "x", 2 * self.x)
"""
    assert lint_sources({"x.py": src}) == []


def test_rv301_cross_file_discovery():
    # The frozen class is defined in one file, mutated in another.
    use = """
from defs import PolicyTraits

def f():
    t = PolicyTraits("a")
    t.name = "b"
"""
    found = lint_sources({"defs.py": FROZEN_PRELUDE, "use.py": use})
    assert codes(found) == ["RV301"]
    assert found[0].path == "use.py"


def test_rv301_unfrozen_dataclass_untouched():
    src = """
from dataclasses import dataclass

@dataclass
class Mutable:
    x: int

def f():
    m = Mutable(1)
    m.x = 2
"""
    assert lint_sources({"x.py": src}) == []


# ----------------------------------------------------------------------
# RV302: float equality between simulation times.
# ----------------------------------------------------------------------
def test_rv302_time_vs_time_and_literal():
    src = """
def f(start, end, makespan, count):
    a = start == end
    b = makespan != 0.0
    c = count == 3          # int-ish: fine
    d = start == 3          # int literal: fine
    e = abs(start - end) <= 1e-9   # the sanctioned idiom
    return a, b, c, d, e
"""
    assert codes(lint_sources({"x.py": src})) == ["RV302", "RV302"]


def test_rv302_attributes_and_chained():
    src = """
def f(ev, other):
    if ev.start == other.end:
        pass
    if ev.start == other.end == 0.0:
        pass
"""
    found = lint_sources({"x.py": src})
    # The chained compare holds two flagged comparisons.
    assert codes(found) == ["RV302", "RV302", "RV302"]


def test_rv302_runtime_is_not_time_like():
    # "runtime" contains "time" as a substring but is not a time name.
    src = """
def f(runtime):
    return runtime == "starpu"
"""
    assert lint_sources({"x.py": src}) == []


# ----------------------------------------------------------------------
# RV303: SchedulerPolicy subclasses define traits.
# ----------------------------------------------------------------------
def test_rv303_missing_traits():
    src = """
class SchedulerPolicy:
    pass

class Bad(SchedulerPolicy):
    def __init__(self):
        self.other = 1
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV303"]
    assert "Bad" in found[0].message


def test_rv303_satisfied_variants():
    src = """
from abc import ABC

class SchedulerPolicy:
    pass

class ViaInit(SchedulerPolicy):
    def __init__(self):
        self.traits = 1

class ViaClassAttr(SchedulerPolicy):
    traits = 1

class ViaAnnotated(SchedulerPolicy):
    traits: int = 1

class StillAbstract(SchedulerPolicy, ABC):
    pass
"""
    assert lint_sources({"x.py": src}) == []


# ----------------------------------------------------------------------
# RV304: numpy-array truthiness.
# ----------------------------------------------------------------------
def test_rv304_boolean_contexts():
    src = """
import numpy as np

def f(x):
    if np.flatnonzero(x):
        pass
    while np.where(x):
        break
    assert np.unique(x)
    y = 1 if np.diff(x) else 2
    z = bool(x) and np.nonzero(x)
    w = not np.intersect1d(x, x)
    return y, z, w
"""
    assert codes(lint_sources({"x.py": src})) == ["RV304"] * 6


def test_rv304_size_test_is_clean():
    src = """
import numpy as np

def f(x):
    if np.flatnonzero(x).size:
        pass
    arr = np.flatnonzero(x)
    if len(arr):
        pass
"""
    assert lint_sources({"x.py": src}) == []


# ----------------------------------------------------------------------
# Suppression, syntax errors, path/report wrappers.
# ----------------------------------------------------------------------
def test_noqa_suppression():
    src = FROZEN_PRELUDE + """
def f(tr: PolicyTraits):
    tr.name = "a"  # noqa
    tr.name = "b"  # noqa: RV301
    tr.name = "c"  # noqa: RV999
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV301"]  # only the mismatched code survives
    assert found[0].line == src.splitlines().index(
        '    tr.name = "c"  # noqa: RV999') + 1


def test_syntax_error_reported_not_raised():
    found = lint_sources({"x.py": "def broken(:\n"})
    assert codes(found) == ["RV300"]


@pytest.mark.parametrize("family, snippet, code", [
    ("RV3", FROZEN_PRELUDE + "def f(tr: PolicyTraits):\n    tr.name = 1\n",
     "RV301"),
    ("RV5", "import time\nt = time.time()\n", "RV504"),
])
def test_syntax_error_does_not_hide_other_files(family, snippet, code):
    found = lint_sources({"a.py": "def broken(:\n", "b.py": snippet}, family)
    assert [(f.path, f.code) for f in found] == [
        ("a.py", f"{family}00"), ("b.py", code)]


def test_lint_paths_and_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(FROZEN_PRELUDE + """
def f():
    t = PolicyTraits("a")
    t.name = "b"
""")
    (tmp_path / "sub").mkdir()
    good = tmp_path / "sub" / "good.py"
    good.write_text("x = 1\n")
    found = lint_paths([tmp_path])
    assert codes(found) == ["RV301"]
    assert found[0].location == f"{bad}:{found[0].line}"
    rep = lint_report([tmp_path])
    assert not rep.ok
    assert rep.stats["findings"] == 1
    rep_good = lint_report([good])
    assert rep_good.ok and rep_good.stats["findings"] == 0


def test_report_counts_files_linted(tmp_path):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text("x = 1\n")
    rep = lint_report([tmp_path])
    assert rep.ok and rep.stats["files"] == 2


def test_repro_package_lints_clean():
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    rep = lint_report([root])
    assert rep.ok, rep.format()


# ----------------------------------------------------------------------
# RV305: mutable dataclass defaults.
# ----------------------------------------------------------------------
def test_rv305_mutable_defaults_flagged():
    src = """
from dataclasses import dataclass, field
from collections import defaultdict

@dataclass
class Config:
    items: list = []
    table: dict = {}
    seen: set = set()
    by_key = defaultdict(list)
    squares: list = [i * i for i in range(4)]
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV305"] * 5
    assert "items" in found[0].message
    assert "field(default_factory=" in found[0].message


def test_rv305_field_and_immutable_defaults_clean():
    src = """
from dataclasses import dataclass, field

@dataclass
class Config:
    items: list = field(default_factory=list)
    count: int = 0
    name: str = "x"
    pair: tuple = (1, 2)
    anything = None
"""
    assert lint_sources({"x.py": src}) == []


def test_rv305_non_dataclass_untouched():
    # Class-level mutables on a plain class are a deliberate idiom
    # (shared registries); only @dataclass fields are flagged.
    src = """
class Registry:
    entries: list = []
    table = {}
"""
    assert lint_sources({"x.py": src}) == []


def test_rv305_frozen_dataclass_also_checked():
    src = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Frozen:
    deps: list = []
"""
    assert codes(lint_sources({"x.py": src})) == ["RV305"]


# ----------------------------------------------------------------------
# RV306: iteration over unordered sets.
# ----------------------------------------------------------------------
def test_rv306_direct_set_iteration():
    src = """
def f(items):
    for x in set(items):
        print(x)
    for y in {1, 2, 3}:
        print(y)
    return [z for z in frozenset(items)]
"""
    assert codes(lint_sources({"x.py": src})) == ["RV306"] * 3


def test_rv306_set_typed_names():
    src = """
def f():
    ready: set[int] = set()
    for t in ready:
        print(t)

def g(pending):
    waiting = {1, 2}
    total = sum(w for w in waiting)
    return total
"""
    assert codes(lint_sources({"x.py": src})) == ["RV306"] * 2


def test_rv306_sorted_iteration_clean():
    src = """
def f(items):
    ready: set[int] = set()
    for x in sorted(set(items)):
        print(x)
    for t in sorted(ready):
        print(t)
    for y in [1, 2, 3]:
        print(y)
"""
    assert lint_sources({"x.py": src}) == []


def test_rv306_noqa_suppression():
    src = """
def f(items):
    for x in set(items):  # noqa: RV306
        print(x)
"""
    assert lint_sources({"x.py": src}) == []


# ----------------------------------------------------------------------
# RV307: unseeded randomness.
# ----------------------------------------------------------------------
def test_rv307_legacy_numpy_sampler():
    src = """
import numpy as np

def f():
    return np.random.random(4)
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV307"]
    assert "np.random" in found[0].message


def test_rv307_argless_default_rng():
    src = """
import numpy as np

def f():
    return np.random.default_rng()
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV307"]


def test_rv307_stdlib_random_sampler():
    src = """
import random

def f():
    return random.choice([1, 2, 3])
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV307"]


def test_rv307_argless_random_instance():
    src = """
import random

def f():
    return random.Random()
"""
    found = lint_sources({"x.py": src})
    assert codes(found) == ["RV307"]


def test_rv307_seeded_randomness_clean():
    src = """
import numpy as np
import random

def f(seed):
    rng = np.random.default_rng(seed)
    r = random.Random(seed)
    return rng.random(4), rng.standard_normal(3), r.random()
"""
    assert lint_sources({"x.py": src}) == []


def test_rv307_noqa_suppression():
    src = """
import random

def f():
    return random.random()  # noqa: RV307
"""
    assert lint_sources({"x.py": src}) == []
