"""Verification report rendering.

A ReportDocument collects informational values plus measured-vs-expected
checks; every check states measured value, expected value, tolerance and
pass/fail.  Text format is for people; machine format is stable
'key=value' lines meant for scripts, with floats at %.17g, and
byte-identical across runs with equal inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    key: str
    label: str
    measured: float
    expected: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.expected) <= self.tol


@dataclass(frozen=True)
class Info:
    key: str
    label: str
    value: object


@dataclass
class ReportDocument:
    title: str
    notes: list[str] = field(default_factory=list)
    entries: list[Check | Info] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def info(self, key: str, label: str, value) -> None:
        self.entries.append(Info(key, label, value))

    def check(self, key: str, label: str, measured: float, expected: float, tol: float) -> None:
        self.entries.append(Check(key, label, float(measured), float(expected), float(tol)))

    @property
    def checks(self) -> list[Check]:
        return [e for e in self.entries if isinstance(e, Check)]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _measured_str(v: float) -> str:
    if v == 0.0 or 1e-4 <= abs(v) < 1e7:
        return f"{v:.6f}"
    return f"{v:.6e}"


def emit_report(doc: ReportDocument, machine: bool) -> int:
    """Render the machine or the text form to stdout and return the exit status."""
    out = sys.stdout
    if machine:
        for e in doc.entries:
            if isinstance(e, Check):
                out.write(f"{e.key}={e.measured:.17g}\n")
                out.write(f"{e.key}.expected={e.expected:.17g}\n")
                out.write(f"{e.key}.tol={e.tol:.17g}\n")
                out.write(f"{e.key}.status={'PASS' if e.passed else 'FAIL'}\n")
            else:
                out.write(f"{e.key}={e.value:.17g}\n" if isinstance(e.value, float) else f"{e.key}={e.value}\n")
        out.write(f"result={'PASS' if doc.passed else 'FAIL'}\n")
    else:
        out.write(f"== {doc.title} ==\n")
        for note in doc.notes:
            out.write(f"{note}\n")
        for e in doc.entries:
            if isinstance(e, Check):
                status = "PASS" if e.passed else "FAIL"
                out.write(
                    f"{e.label}={_measured_str(e.measured)} expected {e.expected:g} ±{e.tol:g} {status}\n"
                )
            else:
                out.write(f"{e.label}={e.value}\n")
        n_checks = len(doc.checks)
        n_pass = sum(c.passed for c in doc.checks)
        out.write(f"checks: {n_pass}/{n_checks} passed\n")
    return 0 if doc.passed else 1
