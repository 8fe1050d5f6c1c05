"""Uniform findings container for the verification passes.

Every pass (:mod:`repro.verify.hazards`, :mod:`repro.verify.schedule`,
:mod:`repro.verify.lint`) returns a :class:`Report` holding zero or more
:class:`Finding` records, so the CLI and the tests can aggregate, count,
and render results the same way regardless of which pass produced them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["Finding", "Report", "ERROR", "WARNING", "INFO"]

ERROR = "error"
WARNING = "warning"
INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a verification pass.

    ``code`` is a stable machine-readable identifier (``H1xx`` hazards,
    ``S2xx`` schedule, ``RV3xx`` lint); ``tasks`` names the offending
    task pair (or tuple) when the finding concerns DAG tasks;
    ``location`` is ``file:line`` for lint findings.
    """

    code: str
    message: str
    severity: str = ERROR
    tasks: tuple[int, ...] = ()
    location: str = ""

    def render(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"[{self.code}] {where}{self.message}"


@dataclass
class Report:
    """Outcome of one verification pass."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def add(
        self,
        code: str,
        message: str,
        *,
        severity: str = ERROR,
        tasks: tuple[int, ...] = (),
        location: str = "",
    ) -> None:
        self.findings.append(Finding(code, message, severity, tasks, location))

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding was recorded."""
        return not self.errors()

    def count(self, severity: str = ERROR) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    # ------------------------------------------------------------------
    def format(self, *, max_findings: int = 25, verbose: bool = False) -> str:
        """Human-readable summary; errors first, then warnings/infos."""
        lines = [f"== {self.name} =="]
        for key, val in sorted(self.stats.items()):
            if isinstance(val, float) and not val.is_integer():
                lines.append(f"   {key:<24}: {val:.4g}")
            else:
                lines.append(f"   {key:<24}: {int(val)}")
        ranked = sorted(
            self.findings,
            key=lambda f: {ERROR: 0, WARNING: 1, INFO: 2}.get(f.severity, 3),
        )
        if not verbose:
            ranked = [f for f in ranked if f.severity != INFO]
        shown = ranked[:max_findings]
        for f in shown:
            lines.append(f"   {f.severity.upper():<7} {f.render()}")
        hidden = len(ranked) - len(shown)
        if hidden > 0:
            lines.append(f"   ... and {hidden} more finding(s)")
        # The verdict names every error code, even past max_findings.
        per_code = Counter(f.code for f in self.errors())
        verdict = "OK" if self.ok else (
            f"FAILED ({self.count()} error(s): "
            + ", ".join(f"{c} x{n}" for c, n in sorted(per_code.items()))
            + ")")
        lines.append(f"   -> {verdict}")
        return "\n".join(lines)
