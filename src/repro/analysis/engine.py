"""Orchestration: scan sources, run rules, apply suppressions/baseline.

:func:`run_lint` is the one entry point the CLI, CI, and the test
suite's self-check all share. Every run parses the scanned tree and
runs each active rule once; suppressions and the baseline are applied
to the deduplicated findings afterwards.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable

from repro.analysis.baseline import Baseline, BaselineEntry, line_suppresses
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project
from repro.analysis.rules import Rule, all_rules


@dataclasses.dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]            #: live, unbaselined, unsuppressed
    baselined: list[Finding]           #: matched a baseline entry
    suppressed: list[Finding]          #: silenced by an inline comment
    stale_baseline: list[BaselineEntry]
    modules_scanned: int

    @property
    def blocking(self) -> list[Finding]:
        """The findings that should fail the run."""
        return [f for f in self.findings if f.blocking]

    @property
    def ok(self) -> bool:
        """True when nothing blocks (warnings/info may remain)."""
        return not self.blocking

    def counts(self) -> dict[str, int]:
        """Per-severity totals over the live findings."""
        out = {s.value: 0 for s in Severity}
        for finding in self.findings:
            out[finding.severity.value] += 1
        return out


def _dedupe(raw: list[Finding]) -> list[Finding]:
    """Fingerprint-level dedupe, keeping the lowest line per identity.

    The fingerprint is deliberately line-independent, so the same
    finding reported at two lines (e.g. a dict literal flagged per
    value) is *one* finding — previously the key included the line and
    such findings rendered twice.
    """
    best: dict[str, Finding] = {}
    for finding in raw:
        current = best.get(finding.fingerprint)
        if current is None or finding.line < current.line:
            best[finding.fingerprint] = finding
    deduped = list(best.values())
    deduped.sort(key=lambda f: (f.path, f.line, f.rule, f.key))
    return deduped


def run_lint(paths: Iterable[Path | str],
             rules: list[Rule] | None = None,
             baseline: Baseline | None = None,
             only: tuple[str, ...] = ()) -> LintResult:
    """Scan ``paths``, run the rule catalogue, fold in the baseline."""
    active = rules if rules is not None else all_rules(only)
    baseline = baseline if baseline is not None else Baseline()
    project = Project.scan(paths)

    raw: list[Finding] = []
    for failure in project.failures:
        raw.append(Finding(
            rule="TEE000", severity=Severity.ERROR,
            path=failure.relpath, line=failure.line,
            key=f"parse:{failure.relpath}",
            message=f"cannot parse: {failure.message}",
            fix_hint="teelint needs parseable sources"))
    for rule in active:
        raw.extend(rule.check(project))
    deduped = _dedupe(raw)

    lines_by_rel = {m.relpath: m.lines for m in project.modules}
    lines_by_rel.update((f.relpath, f.lines) for f in project.failures)
    live: list[Finding] = []
    suppressed: list[Finding] = []
    baselined: list[Finding] = []
    for finding in deduped:
        lines = lines_by_rel.get(finding.path, [])
        source_line = (lines[finding.line - 1]
                       if 1 <= finding.line <= len(lines) else "")
        if line_suppresses(source_line, finding.rule):
            suppressed.append(finding)
        elif baseline.matches(finding):
            baselined.append(finding)
        else:
            live.append(finding)

    return LintResult(
        findings=live, baselined=baselined, suppressed=suppressed,
        stale_baseline=baseline.stale_entries(deduped),
        modules_scanned=len(project))
