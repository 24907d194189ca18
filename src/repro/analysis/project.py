"""Source discovery, module naming, and the repo-wide import graph.

A :class:`Project` is the parsed view of one or more source trees that
every rule shares: one parse per file, one import graph per run. Module
names are derived structurally — a file belongs to the package chain of
``__init__.py``-bearing parents — so the scanner works identically on
``src/repro`` and on fixture corpora that mimic the package layout.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator


@dataclasses.dataclass
class ImportEdge:
    """One import statement, resolved to a dotted module target."""

    target: str      #: dotted module the import reaches
    line: int
    col: int
    end_line: int = 0    #: 1-based last line of the import statement
    end_col: int = 0     #: 0-based column past the statement's end


@dataclasses.dataclass
class SourceModule:
    """One parsed source file."""

    path: Path            #: absolute path on disk
    relpath: str          #: path relative to the scan root, posix style
    name: str             #: dotted module name (``repro.ems.runtime``)
    tree: ast.Module
    lines: list[str]      #: source split into lines (for suppressions)

    @property
    def subsystem(self) -> str:
        """The top-level package component below ``repro``.

        ``repro.ems.runtime`` -> ``ems``; ``repro.errors`` -> ``""``
        (repo-root modules belong to no subsystem).
        """
        parts = self.name.split(".")
        if len(parts) >= 3 and parts[0] == "repro":
            return parts[1]
        return ""

    def source_line(self, lineno: int) -> str:
        """The 1-based source line, or ``""`` out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def module_name_for(path: Path) -> str:
    """Dotted name from the ``__init__.py``-bearing parent chain."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclasses.dataclass
class ParseFailure:
    """A file the scanner could not parse (reported as TEE000)."""

    relpath: str
    line: int
    message: str
    lines: list[str]      #: source split into lines (for suppressions)


class Project:
    """The parsed modules of one scan, plus the import graph."""

    def __init__(self, modules: list[SourceModule],
                 failures: list[ParseFailure] | None = None) -> None:
        self.modules = modules
        self.failures = failures or []
        self.by_name: dict[str, SourceModule] = {m.name: m for m in modules}
        self._edges: dict[str, list[ImportEdge]] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def scan(cls, roots: Iterable[Path | str]) -> "Project":
        """Parse every ``*.py`` under the given roots."""
        modules: list[SourceModule] = []
        failures: list[ParseFailure] = []
        seen: set[Path] = set()
        for root in roots:
            root = Path(root).resolve()
            candidates = [root] if root.is_file() else sorted(
                root.rglob("*.py"))
            for path in candidates:
                if "__pycache__" in path.parts or path in seen:
                    continue
                seen.add(path)
                rel = (path.relative_to(root) if root.is_dir()
                       else Path(path.name))
                relpath = (Path(root.name) / rel).as_posix()
                text = path.read_text(encoding="utf-8")
                try:
                    tree = ast.parse(text, filename=str(path))
                except SyntaxError as exc:
                    failures.append(ParseFailure(
                        relpath, exc.lineno or 1,
                        exc.msg or "syntax error", text.splitlines()))
                    continue
                modules.append(SourceModule(
                    path=path, relpath=relpath,
                    name=module_name_for(path), tree=tree,
                    lines=text.splitlines()))
        return cls(modules, failures)

    # -- the import graph ---------------------------------------------------

    def import_edges(self) -> dict[str, list[ImportEdge]]:
        """Module name -> every import it makes, resolved to modules.

        ``from pkg.mod import name`` resolves to ``pkg.mod.name`` when
        that is a scanned module (a submodule import), else ``pkg.mod``.
        Relative imports resolve against the importing module's package.
        """
        if self._edges is not None:
            return self._edges
        edges: dict[str, list[ImportEdge]] = {}
        for module in self.modules:
            out: list[ImportEdge] = []
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        out.append(ImportEdge(
                            alias.name, node.lineno, node.col_offset,
                            node.end_lineno or 0,
                            node.end_col_offset or 0))
                elif isinstance(node, ast.ImportFrom):
                    base = self._resolve_from(module, node)
                    if base is None:
                        continue
                    for alias in node.names:
                        candidate = f"{base}.{alias.name}"
                        target = (candidate if candidate in self.by_name
                                  else base)
                        out.append(ImportEdge(
                            target, node.lineno, node.col_offset,
                            node.end_lineno or 0,
                            node.end_col_offset or 0))
            edges[module.name] = out
        self._edges = edges
        return edges

    @staticmethod
    def _resolve_from(module: SourceModule,
                      node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # Relative import: climb ``level`` packages from the module. A
        # package ``__init__`` is itself the first anchor level.
        parts = module.name.split(".")
        if module.path.stem == "__init__":
            anchor = parts[:len(parts) - node.level + 1]
        else:
            anchor = parts[:len(parts) - node.level]
        if not anchor:
            return node.module
        return ".".join(anchor + ([node.module] if node.module else []))

    def graph(self, *, exclude_subsystems: tuple[str, ...] = ()) \
            -> dict[str, set[str]]:
        """Adjacency over *scanned* modules only, optionally dropping
        mediator subsystems (e.g. ``core``, which legitimately composes
        both sides of the boundary)."""
        adj: dict[str, set[str]] = {}
        for name, out in self.import_edges().items():
            module = self.by_name[name]
            if module.subsystem in exclude_subsystems:
                continue
            adj[name] = set()
            for edge in out:
                target = self._to_scanned(edge.target)
                if target is None:
                    continue
                tmod = self.by_name[target]
                if tmod.subsystem in exclude_subsystems:
                    continue
                adj[name].add(target)
        return adj

    def _to_scanned(self, dotted: str) -> str | None:
        """Longest scanned-module prefix of a dotted import target."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            name = ".".join(parts[:end])
            if name in self.by_name:
                return name
        return None

    def shortest_path(self, start: str, goals: set[str],
                      adj: dict[str, set[str]]) -> list[str] | None:
        """BFS from ``start`` to any goal module; the path, or ``None``."""
        frontier = [[start]]
        visited = {start}
        while frontier:
            next_frontier: list[list[str]] = []
            for path in frontier:
                for neighbor in sorted(adj.get(path[-1], ())):
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    new_path = path + [neighbor]
                    if neighbor in goals:
                        return new_path
                    next_frontier.append(new_path)
            frontier = next_frontier
        return None

    # -- iteration helpers --------------------------------------------------

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)
