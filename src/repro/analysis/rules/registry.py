"""TEE005 — registry consistency: fault points and metric names resolve.

Two registries anchor the runtime's by-name plumbing:

* the fault-point catalogue ``FAULT_POINTS`` in ``repro/faults/plan.py``
  — an injector consultation (``fires``/``magnitude``/``fires_each``)
  or a ``FaultRule(point=...)`` naming an unknown point is a silent
  no-op: the chaos test *believes* it injected weather that never fired;
* the metric families registered through ``counter``/``gauge``/
  ``histogram`` — the same name declared at two sites is either a
  collision or a drifted copy.

This rule cross-checks every string-literal call site against the
declarations, and reports catalogue entries nothing consults (a dead
fault point means lost chaos coverage, not safety).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, SourceModule
from repro.analysis.rules import register

#: Where the fault-point catalogue lives.
PLAN_MODULE = "repro.faults.plan"

#: Injector methods whose first argument is a fault-point name.
CONSULT_METHODS = frozenset({"fires", "magnitude", "fires_each"})

#: Registry methods whose first argument declares a metric family.
DECLARE_METHODS = frozenset({"counter", "gauge", "histogram"})


def _first_str_arg(node: ast.Call) -> tuple[str, ast.AST] | None:
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value, node.args[0]
    return None


def fault_points(plan: SourceModule) -> dict[str, int] | None:
    """Parse ``FAULT_POINTS`` from the plan module: name -> lineno.

    Shared with TEE012 (fault-point coverage), which closes the loop
    this rule only half-checks.
    """
    for node in plan.tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            value = node.value
            if any(isinstance(t, ast.Name) and t.id == "FAULT_POINTS"
                   for t in targets) and isinstance(value, ast.Dict):
                return {
                    key.value: key.lineno
                    for key in value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)}
    return None


@register
class RegistryConsistencyRule:
    """Unknown / dead fault points and duplicate metric declarations."""

    id = "TEE005"
    title = "registry consistency: fault points and metric names resolve"

    def check(self, project: Project) -> Iterator[Finding]:
        """Cross-check fault-point and metric names against declarations."""
        known_points = self._fault_points(project)
        consulted: set[str] = set()
        metric_sites: dict[str, list[tuple[SourceModule, ast.AST]]] = {}

        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_point_site(
                    module, node, known_points, consulted)
                self._collect_metric(module, node, metric_sites)

        yield from self._dead_points(project, known_points, consulted)
        yield from self._duplicate_metrics(metric_sites)

    # -- fault points --------------------------------------------------------

    def _fault_points(self, project: Project) -> dict[str, int] | None:
        plan = project.by_name.get(PLAN_MODULE)
        if plan is None:
            return None
        return fault_points(plan)

    def _check_point_site(self, module: SourceModule, node: ast.Call,
                          known: dict[str, int] | None,
                          consulted: set[str]) -> Iterator[Finding]:
        point: str | None = None
        site: ast.AST = node
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in CONSULT_METHODS:
            got = _first_str_arg(node)
            if got is not None:
                point, site = got
                consulted.add(point)
        elif (isinstance(func, ast.Name) and func.id == "FaultRule") or (
                isinstance(func, ast.Attribute)
                and func.attr == "FaultRule"):
            for kw in node.keywords:
                if kw.arg == "point" and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    point, site = kw.value.value, kw.value
            got = _first_str_arg(node)
            if point is None and got is not None:
                point, site = got
        if point is None or known is None:
            return
        if module.name == PLAN_MODULE:
            return
        if point not in known:
            yield Finding(
                rule=self.id, severity=Severity.ERROR,
                path=module.relpath, line=site.lineno,
                col=site.col_offset, key=f"unknown-point:{point}",
                message=(f"fault point {point!r} is not in "
                         f"{PLAN_MODULE}.FAULT_POINTS; this consultation "
                         f"is a silent no-op"),
                fix_hint=("fix the typo or add the point to FAULT_POINTS "
                          "with a magnitude description"))

    def _dead_points(self, project: Project,
                     known: dict[str, int] | None,
                     consulted: set[str]) -> Iterator[Finding]:
        if known is None:
            return
        plan = project.by_name[PLAN_MODULE]
        for point, line in known.items():
            if point not in consulted:
                yield Finding(
                    rule=self.id, severity=Severity.WARNING,
                    path=plan.relpath, line=line,
                    key=f"dead-point:{point}",
                    message=(f"fault point {point!r} is declared but "
                             f"never consulted; chaos plans naming it "
                             f"inject nothing"),
                    fix_hint=("wire an injector consultation at the "
                              "modelled component or drop the entry"))

    # -- metric families -----------------------------------------------------

    def _collect_metric(self, module: SourceModule, node: ast.Call,
                        sites: dict[str, list[tuple[SourceModule, ast.AST]]]
                        ) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in DECLARE_METHODS):
            return
        got = _first_str_arg(node)
        if got is None or not got[0].startswith("hypertee_"):
            return
        sites.setdefault(got[0], []).append((module, got[1]))

    def _duplicate_metrics(
            self, sites: dict[str, list[tuple[SourceModule, ast.AST]]]
    ) -> Iterator[Finding]:
        for name, declared in sites.items():
            if len(declared) < 2:
                continue
            first = declared[0]
            for module, node in declared[1:]:
                yield Finding(
                    rule=self.id, severity=Severity.ERROR,
                    path=module.relpath, line=node.lineno,
                    col=node.col_offset, key=f"dup-metric:{name}",
                    message=(f"metric family {name!r} is declared more "
                             f"than once (first at "
                             f"{first[0].relpath}:{first[1].lineno}); "
                             f"one registry name, one declaration"),
                    fix_hint=("share the existing family via the "
                              "Observability facade instead of "
                              "re-registering the name"))
