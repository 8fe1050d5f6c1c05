"""Uniform findings container for the verification passes.

Every pass (:mod:`repro.verify.hazards`, :mod:`repro.verify.schedule`,
:mod:`repro.verify.lint`) returns a :class:`Report` holding zero or more
:class:`Finding` records, so the CLI and the tests can aggregate, count,
and render results the same way regardless of which pass produced them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["Finding", "Report", "ERROR", "WARNING", "INFO",
           "MAX_FINDINGS_PER_CODE"]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Findings one report stores per code (:meth:`Report.add`).
MAX_FINDINGS_PER_CODE = 25


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
    """Outcome of one verification pass.

    :meth:`add` stores at most :data:`MAX_FINDINGS_PER_CODE` findings per
    code; past that it only counts them in ``suppressed``, so
    :meth:`count`, :meth:`format`'s per-code suppressed lines and its
    verdict still report true totals.
    """

    name: str
    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    #: ``(code, severity) -> n`` findings counted past the cap.
    suppressed: Counter = field(default_factory=Counter)
    _stored: Counter = field(default_factory=Counter, repr=False)

    def add(
        self,
        code: str,
        message: str,
        *,
        severity: str = ERROR,
        tasks: tuple[int, ...] = (),
        location: str = "",
    ) -> None:
        if self._stored[code] >= MAX_FINDINGS_PER_CODE:
            self.suppressed[code, severity] += 1
            return
        self._stored[code] += 1
        self.findings.append(Finding(code, message, severity, tasks, location))

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding was recorded."""
        return not self.errors()

    def count(self, severity: str = ERROR) -> int:
        """Findings of ``severity``, suppressed ones included."""
        return (sum(1 for f in self.findings if f.severity == severity)
                + sum(n for (_, sev), n in self.suppressed.items()
                      if sev == severity))

    # ------------------------------------------------------------------
    def format(self, *, verbose: bool = False) -> str:
        """Human-readable summary; errors first, then warnings/infos."""
        lines = [f"== {self.name} =="]
        for key, val in sorted(self.stats.items()):
            if isinstance(val, float) and not val.is_integer():
                lines.append(f"   {key:<24}: {val:.4g}")
            else:
                lines.append(f"   {key:<24}: {int(val)}")
        rank = {ERROR: 0, WARNING: 1, INFO: 2}
        shown = sorted((f for f in self.findings
                        if verbose or f.severity != INFO),
                       key=lambda f: rank.get(f.severity, 3))
        for f in shown:
            lines.append(f"   {f.severity.upper():<7} {f.render()}")
        for (code, sev), n in sorted(self.suppressed.items()):
            if verbose or sev != INFO:
                lines.append(f"   ... {n} further {code} finding(s) suppressed")
        per_code = Counter(f.code for f in self.errors())
        per_code.update({code: n for (code, sev), n in self.suppressed.items()
                         if sev == ERROR})
        verdict = "OK" if self.ok else (
            f"FAILED ({self.count()} error(s): "
            + ", ".join(f"{c} x{n}" for c, n in sorted(per_code.items()))
            + ")")
        lines.append(f"   -> {verdict}")
        return "\n".join(lines)
