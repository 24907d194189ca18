"""TEE008 — secret-dependent timing: tainted branches cost equally.

The paper's timing-channel defense makes enclave-internal work
invisible to the CS by charging *calibrated* cycle costs at the
boundary. That defense evaporates if the model itself branches on key
material and the two arms charge different costs: the CS-visible cycle
accounting becomes a secret oracle. This is the static analogue —
built on the shared taint engine (:mod:`repro.analysis.taint`):

* a branch is **secret-conditioned** when its ``if`` test carries the
  :data:`~repro.analysis.taint.SECRET` label (directly, through
  assignments, or through an interprocedural summary);
* each arm gets a **cost signature** — the set of calibration-flavoured
  identifiers it references (``*_cycles``, ``*_instr*``, cost keyword
  arguments, cost accumulator writes), nested statements included;
* differing signatures are an ERROR: one arm does observable work the
  other does not, keyed on a line-independent hash of the condition.

Branching on a *sanitized* value (``len(key)``, digests) is fine —
sanitizers erase the label, matching TEE004's contract.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project
from repro.analysis.rules import register
from repro.analysis.rules.cycles import is_cost_name
from repro.analysis.taint import TaintedBranch, engine_for

FIX_HINT = ("charge the same calibrated cost on both arms (or hoist "
            "the charge above the branch); secret-dependent cycle "
            "accounting is a CS-visible timing oracle")


def cost_signature(body: list[ast.stmt]) -> frozenset[str]:
    """Every calibration-flavoured reference an arm makes."""
    out: set[str] = set()
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and is_cost_name(node.id):
                prefix = ("acc:" if isinstance(node.ctx,
                                               (ast.Store, ast.Del))
                          else "ref:")
                out.add(f"{prefix}{node.id}")
            elif isinstance(node, ast.Attribute) \
                    and is_cost_name(node.attr):
                prefix = ("acc:" if isinstance(node.ctx,
                                               (ast.Store, ast.Del))
                          else "ref:")
                out.add(f"{prefix}{node.attr}")
            elif isinstance(node, ast.keyword) and node.arg \
                    and is_cost_name(node.arg):
                out.add(f"kw:{node.arg}")
    return frozenset(out)


@register
class TimingRule:
    """Secret-conditioned branches whose arms charge different costs."""

    id = "TEE008"
    title = "secret-dependent timing: tainted branches cost equally"

    def check(self, project: Project) -> Iterator[Finding]:
        """Compare arm cost signatures of every tainted branch."""
        engine = engine_for(project)
        for branch in engine.tainted_branches():
            yield from self._check_branch(branch)

    def _check_branch(self, branch: TaintedBranch) -> Iterator[Finding]:
        node = branch.node
        then_sig = cost_signature(node.body)
        else_sig = cost_signature(node.orelse)
        if then_sig == else_sig:
            return
        function = branch.function
        condition = ast.unparse(node.test)
        cond_hash = hashlib.sha256(
            ast.dump(node.test).encode()).hexdigest()[:8]
        only_then = sorted(then_sig - else_sig)
        only_else = sorted(else_sig - then_sig)
        detail = []
        if only_then:
            detail.append(f"then-arm touches {', '.join(only_then)}")
        if only_else:
            detail.append(f"else-arm touches {', '.join(only_else)}")
        yield Finding(
            rule=self.id, severity=Severity.ERROR,
            path=function.module.relpath,
            line=node.lineno, col=node.col_offset,
            key=f"timing:{function.node.name}:{cond_hash}",
            message=(f"branch on secret-tainted `{condition}` in "
                     f"{function.node.name}() charges asymmetric "
                     f"costs ({'; '.join(detail)}); cycle accounting "
                     f"becomes a secret oracle"),
            fix_hint=FIX_HINT)
