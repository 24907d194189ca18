"""TEE012 — fault-point coverage: every point fires and is chaos-tested.

TEE005 proves that every injector consultation names a *declared*
fault point and warns about declared-but-unconsulted entries. This
rule closes the other half of the loop, as two blocking checks per
``FAULT_POINTS`` entry:

* **unfired** — no ``fires``/``magnitude``/``fires_each`` consultation
  anywhere in the scanned sources names the point: a chaos plan
  targeting it injects nothing, so the catalogue over-promises
  coverage;
* **untested** — no chaos test references the point by name: the
  injection site exists but nothing ever exercises it, so a
  regression in the failure path ships silently.

The chaos corpus is discovered structurally: walking up from the plan
module's directory to the nearest ``tests/`` sibling (the repo layout
``src/repro/faults/plan.py`` -> ``tests/``; fixture corpora mimic it),
then reading every ``test_*.py`` beneath it. A missing corpus is a
WARNING, not silence — the rule cannot vouch for coverage it cannot
see.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project
from repro.analysis.rules import register
from repro.analysis.rules.registry import (
    CONSULT_METHODS,
    PLAN_MODULE,
    _first_str_arg,
    fault_points,
)

#: How many directory levels to climb looking for the ``tests/`` dir.
_CORPUS_CLIMB = 6

FIX_HINT = ("consult the point at the modelled component and add a "
            "chaos test naming it (see tests/faults/), or drop the "
            "catalogue entry")


def chaos_corpus(plan_path: Path) -> list[Path] | None:
    """``test_*.py`` files under the nearest ``tests/`` ancestor sibling."""
    current = plan_path.parent
    for _ in range(_CORPUS_CLIMB):
        tests = current / "tests"
        if tests.is_dir():
            return sorted(tests.rglob("test_*.py"))
        if current.parent == current:
            break
        current = current.parent
    return None


@register
class FaultCoverageRule:
    """Declared fault points that never fire or are never chaos-tested."""

    id = "TEE012"
    title = "fault coverage: every point fires and has a chaos test"

    def check(self, project: Project) -> Iterator[Finding]:
        """Cross-check the catalogue against sources and chaos tests."""
        plan = project.by_name.get(PLAN_MODULE)
        if plan is None:
            return
        points = fault_points(plan)
        if points is None:
            return

        consulted: set[str] = set()
        for module in project:
            if module.name == PLAN_MODULE:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in CONSULT_METHODS:
                    got = _first_str_arg(node)
                    if got is not None:
                        consulted.add(got[0])

        for point, line in points.items():
            if point not in consulted:
                yield Finding(
                    rule=self.id, severity=Severity.ERROR,
                    path=plan.relpath, line=line,
                    key=f"unfired-point:{point}",
                    message=(f"fault point {point!r} is declared but "
                             f"nothing in the scanned sources "
                             f"consults it; chaos plans naming it "
                             f"inject nothing"),
                    fix_hint=FIX_HINT)

        corpus = chaos_corpus(plan.path)
        if corpus is None:
            yield Finding(
                rule=self.id, severity=Severity.WARNING,
                path=plan.relpath, line=1,
                key="no-chaos-corpus",
                message=("no tests/ directory found near the fault "
                         "plan; chaos coverage cannot be verified"),
                fix_hint=("keep the fault plan inside a tree with a "
                          "tests/ sibling (src/repro/faults/plan.py "
                          "-> tests/)"))
            return
        blob = "\n".join(self._read(path) for path in corpus)
        for point, line in points.items():
            if point not in blob:
                yield Finding(
                    rule=self.id, severity=Severity.ERROR,
                    path=plan.relpath, line=line,
                    key=f"untested-point:{point}",
                    message=(f"no chaos test references fault point "
                             f"{point!r}; its failure path ships "
                             f"unexercised"),
                    fix_hint=FIX_HINT)

    @staticmethod
    def _read(path: Path) -> str:
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return ""
