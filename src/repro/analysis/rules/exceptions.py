"""TEE007 — exception safety: fault paths degrade loudly, with status.

PR 2 made every fault path *typed*: an EMCall that exhausts its
retries raises :class:`~repro.errors.EMCallTimeout` or returns a
:class:`~repro.cs.emcall.DegradedResult`; an EMS handler that fails
returns a ``PrimitiveResponse`` carrying an explicit
``ResponseStatus``. A ``try``/``except`` that swallows those signals
silently re-introduces the unbounded-hang bug class this repo already
fixed once. This rule flags:

* a **bare** ``except:`` or an over-broad handler (``Exception``,
  ``BaseException``, ``HyperTEEError``, ``EMCallError``) — or one that
  names ``EMCallTimeout`` explicitly — whose body neither re-raises
  nor produces a typed outcome. "Typed outcome" means constructing or
  returning a ``DegradedResult`` / ``*Response`` / ``*Result`` /
  ``*Error`` value (or calling a ``*degrade*`` helper): the caller can
  still see that something went wrong. ``pass``, logging, or
  ``return None`` cannot;
* an EMS handler return path that **skips the status code**: a
  ``PrimitiveResponse(...)`` constructed without its second positional
  argument, a ``status=`` keyword, or a ``**kwargs`` splat.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, SourceModule
from repro.analysis.rules import register

#: Exception names too broad to swallow without a typed outcome.
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException",
                              "HyperTEEError", "EMCallError"})

#: Fault-path signals that must never be silently dropped.
FAULT_SIGNALS = frozenset({"EMCallTimeout"})

#: A constructed value that counts as a typed outcome.
_TYPED_OUTCOME = re.compile(
    r"(^DegradedResult$)|(Response$)|(Result$)|(Error$)|(degrade)")

FIX_HINT = ("re-raise, narrow the except to the errors this code can "
            "actually handle, or return a typed DegradedResult/"
            "PrimitiveResponse so the caller sees the failure")


def _exception_names(node: ast.expr | None) -> frozenset[str]:
    """The caught exception names; empty set means a bare ``except:``."""
    if node is None:
        return frozenset()
    if isinstance(node, ast.Tuple):
        out: set[str] = set()
        for element in node.elts:
            out |= _exception_names(element)
        return frozenset(out)
    if isinstance(node, ast.Name):
        return frozenset({node.id})
    if isinstance(node, ast.Attribute):
        return frozenset({node.attr})
    return frozenset()


def _body_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes in a handler body, skipping nested function scopes."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield from ast.walk(stmt)


def _produces_typed_outcome(body: list[ast.stmt]) -> bool:
    """Does the handler re-raise or build a typed failure value?"""
    for node in _body_nodes(body):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if _TYPED_OUTCOME.search(name):
                return True
    return False


@register
class ExceptionSafetyRule:
    """Swallowed fault signals and status-less EMS responses."""

    id = "TEE007"
    title = "exception safety: fault paths degrade loudly, with status"

    def check(self, project: Project) -> Iterator[Finding]:
        """Scan every handler and every response construction."""
        for module in project:
            yield from self._check_scope(module, module.tree.body,
                                         "<module>")

    def _check_scope(self, module: SourceModule, body: list[ast.stmt],
                     scope: str) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(module, stmt.body, stmt.name)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_scope(module, stmt.body, scope)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Try):
                    for handler in node.handlers:
                        yield from self._check_handler(module, scope,
                                                       handler)
                elif isinstance(node, ast.Call):
                    yield from self._check_response(module, scope, node)

    def _check_handler(self, module: SourceModule, scope: str,
                       handler: ast.ExceptHandler) -> Iterator[Finding]:
        names = _exception_names(handler.type)
        bare = handler.type is None
        broad = bare or bool(names & BROAD_EXCEPTIONS)
        signal = bool(names & FAULT_SIGNALS)
        if not (broad or signal):
            return
        if _produces_typed_outcome(handler.body):
            return
        caught = "bare except" if bare else ", ".join(sorted(
            names & (BROAD_EXCEPTIONS | FAULT_SIGNALS)))
        yield Finding(
            rule=self.id, severity=Severity.ERROR, path=module.relpath,
            line=handler.lineno, col=handler.col_offset,
            key=f"swallow:{scope}:{caught}",
            message=(f"{caught} swallowed in {scope} without re-raising "
                     f"or returning a typed DegradedResult/Response; "
                     f"the fault path goes silent"),
            fix_hint=FIX_HINT)

    def _check_response(self, module: SourceModule, scope: str,
                        node: ast.Call) -> Iterator[Finding]:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name != "PrimitiveResponse":
            return
        if len(node.args) >= 2:
            return
        if any(kw.arg == "status" or kw.arg is None
               for kw in node.keywords):
            return
        yield Finding(
            rule=self.id, severity=Severity.ERROR, path=module.relpath,
            line=node.lineno, col=node.col_offset,
            key=f"missing-status:{scope}",
            message=(f"PrimitiveResponse built in {scope} without a "
                     f"status code; every EMS return path must carry "
                     f"an explicit ResponseStatus"),
            fix_hint=("pass ResponseStatus.OK/ERROR explicitly as the "
                      "second argument or the status= keyword"))
