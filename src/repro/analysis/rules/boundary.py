"""TEE001 — the decoupling boundary.

The Computing Subsystem (``repro.cs``) and the Enclave Management
Subsystem (``repro.ems``) model separate hardware domains joined only
by the mailbox (paper Section III). In code that means:

* no direct import edge between ``repro.cs.*`` and ``repro.ems.*`` in
  either direction — cross-subsystem *types* go through ``repro.common``
  (wire dataclasses, type-only Protocols) and *control* goes through
  EMCall packets or the ``repro.core`` facade;
* no *transitive* path between them either, excluding paths through
  ``repro.core`` (the composition root legitimately holds both ends) —
  a shared helper that imports EMS internals quietly re-couples every
  CS module that uses it;
* ``repro.attacks`` models the adversary, who by definition sits on
  the CS side: it may not import EMS internals.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, SourceModule
from repro.analysis.rules import register

#: Subsystems whose modules may import both sides: the composition
#: root wires cs and ems together by design, and the runtime sanitizer
#: layer (teesan) observes both domains from outside either — its
#: drivers build whole platforms and seed cross-shard violations.
MEDIATORS = ("core", "sanitize")

#: (importer subsystem, imported subsystem) pairs that are forbidden
#: as *direct* edges.
FORBIDDEN_EDGES = {
    ("cs", "ems"), ("ems", "cs"), ("attacks", "ems"),
}


def _subsystem_of_target(target: str) -> str:
    parts = target.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return ""


@register
class BoundaryRule:
    """Direct and transitive cs <-> ems (and attacks -> ems) imports."""

    id = "TEE001"
    title = "decoupling boundary: cs and ems may never import each other"

    def check(self, project: Project) -> Iterator[Finding]:
        """Report forbidden direct edges, then transitive paths."""
        edges = project.import_edges()
        direct_hits: set[tuple[str, str]] = set()
        for module in project:
            sub = module.subsystem
            for edge in edges.get(module.name, ()):
                tsub = _subsystem_of_target(edge.target)
                if (sub, tsub) in FORBIDDEN_EDGES:
                    direct_hits.add((module.name, edge.target))
                    yield Finding(
                        rule=self.id, severity=Severity.ERROR,
                        path=module.relpath, line=edge.line, col=edge.col,
                        end_line=edge.end_line, end_col=edge.end_col,
                        key=f"{module.name}->{edge.target}",
                        message=(
                            f"{sub} module imports {tsub} internals "
                            f"({edge.target}); the decoupling boundary "
                            f"admits only mailbox packets"),
                        fix_hint=(
                            "move the shared type into repro.common (a "
                            "wire dataclass or type-only Protocol) or go "
                            "through the repro.core facade"))
        yield from self._transitive(project, direct_hits)

    def _transitive(self, project: Project,
                    direct_hits: set[tuple[str, str]]) -> Iterator[Finding]:
        adj = project.graph(exclude_subsystems=MEDIATORS)
        for src_sub, dst_sub in (("cs", "ems"), ("ems", "cs")):
            goals = {m.name for m in project if m.subsystem == dst_sub}
            if not goals:
                continue
            for module in project:
                if module.subsystem != src_sub:
                    continue
                path = project.shortest_path(module.name, goals, adj)
                if path is None or len(path) < 3:
                    continue  # len 2 is a direct edge, reported above
                if (path[0], path[1]) in direct_hits:
                    continue
                yield self._path_finding(project.by_name[module.name],
                                         path, dst_sub)

    def _path_finding(self, module: SourceModule, path: list[str],
                      dst_sub: str) -> Finding:
        chain = " -> ".join(path)
        return Finding(
            rule=self.id, severity=Severity.ERROR,
            path=module.relpath, line=1,
            key=f"transitive:{path[0]}->{path[1]}~>{path[-1]}",
            message=(
                f"{module.subsystem} module reaches {dst_sub} internals "
                f"transitively: {chain}"),
            fix_hint=(
                "break the chain at its first shared link: move the "
                "boundary-crossing types into repro.common"))
