"""TEE006 — lifecycle typestate: enclave transitions happen in order.

The EMS state machine (``repro/ems/lifecycle.py``) enforces the
paper's create → load → measure → attest → run → destroy protocol at
runtime; the CS-side facade (``repro.core.api.Enclave``) mirrors it.
This rule catches protocol violations *statically*, at the call sites
the SDK/OS/examples actually write:

* a receiver assigned from ``launch_enclave(...)`` (or ``launch``)
  starts **MEASURED** — launched, attested, not yet entered;
* ``enter()`` requires MEASURED (→ RUNNING); ``resume()`` requires
  SUSPENDED (→ RUNNING); ``exit()`` requires RUNNING (→ SUSPENDED);
* entered-only operations — ``attest``, ``ealloc``/``efree`` (and the
  ``_many`` batches), ``read``/``write``, shared-memory and sealing
  calls — require RUNNING;
* ``destroy()`` is legal from any live state but never twice
  (→ DESTROYED); nothing is legal after DESTROYED;
* ``with recv.running():`` enters for the block and exits after it
  (RUNNING inside, SUSPENDED after).

The checker is an abstract interpreter over one function body with
branch joins: ``if``/``try`` arms are interpreted separately and the
receiver state is joined (disagreement ⇒ UNKNOWN, never a false
positive). Receivers whose provenance is unknown (parameters, ``self``
attributes) start UNKNOWN and are only flagged once a definite state
is established by the code itself (e.g. ``destroy()`` then ``enter()``).

A locally-launched enclave that reaches the end of the function still
RUNNING — never exited, destroyed, or handed off — earns a WARNING:
the EMS slot stays occupied forever.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, SourceModule
from repro.analysis.rules import register

#: Call names whose result is a freshly-launched (MEASURED) enclave.
LAUNCH_CALLS = frozenset({"launch_enclave", "launch"})

#: Abstract states. UNKNOWN is the lattice top: no claims, no findings.
UNKNOWN = "unknown"
MEASURED = "measured"
RUNNING = "running"
SUSPENDED = "suspended"
DESTROYED = "destroyed"

#: method -> (states it is legal from, state it moves to).
TRANSITIONS: dict[str, tuple[frozenset[str], str]] = {
    "enter": (frozenset({MEASURED}), RUNNING),
    "resume": (frozenset({SUSPENDED}), RUNNING),
    "exit": (frozenset({RUNNING}), SUSPENDED),
    "destroy": (frozenset({MEASURED, RUNNING, SUSPENDED}), DESTROYED),
}

#: Operations legal only while entered (RUNNING); state is unchanged.
ENTERED_OPS = frozenset({
    "attest", "remote_attest", "local_report_for", "local_verify",
    "ealloc", "efree", "ealloc_many", "efree_many", "read", "write",
    "seal", "unseal", "create_shared_region", "share_with", "attach",
    "detach", "grant_device",
})

FIX_HINT = ("follow the lifecycle: launch -> enter (or `with "
            "e.running():`) -> operate -> exit/destroy; see "
            "repro/ems/lifecycle.py for the authoritative machine")


@dataclasses.dataclass
class _Env:
    """Receiver name -> abstract state, plus escape tracking."""

    states: dict[str, str] = dataclasses.field(default_factory=dict)
    #: receivers handed off (returned, yielded, passed, stored) — not
    #: ours to demand a terminal state from.
    escaped: set[str] = dataclasses.field(default_factory=set)
    #: receivers this function launched itself (eligible for the
    #: left-running warning).
    local: set[str] = dataclasses.field(default_factory=set)

    def copy(self) -> "_Env":
        return _Env(dict(self.states), set(self.escaped),
                    set(self.local))

    def join(self, other: "_Env") -> None:
        """Meet of two branch outcomes: disagreement ⇒ UNKNOWN."""
        for name in set(self.states) | set(other.states):
            mine = self.states.get(name, UNKNOWN)
            theirs = other.states.get(name, UNKNOWN)
            self.states[name] = mine if mine == theirs else UNKNOWN
        self.escaped |= other.escaped
        self.local |= other.local


@register
class LifecycleRule:
    """Out-of-order or missing enclave lifecycle transitions."""

    id = "TEE006"
    title = "lifecycle typestate: enclave transitions happen in order"

    def check(self, project: Project) -> Iterator[Finding]:
        """Interpret every function body against the state machine."""
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield from self._check_function(module, node)

    def _check_function(self, module: SourceModule,
                        func: ast.FunctionDef) -> Iterator[Finding]:
        env = _Env()
        findings: list[Finding] = []
        self._interpret(module, func, func.body, env, findings)
        for name in sorted(env.local - env.escaped):
            if env.states.get(name) == RUNNING:
                findings.append(Finding(
                    rule=self.id, severity=Severity.WARNING,
                    path=module.relpath, line=func.lineno,
                    col=func.col_offset,
                    key=f"left-running:{func.name}:{name}",
                    message=(f"enclave {name!r} launched in "
                             f"{func.name}() is still entered at "
                             f"function exit; the EMS slot never "
                             f"frees"),
                    fix_hint=FIX_HINT))
        yield from findings

    # -- the interpreter -----------------------------------------------------

    def _interpret(self, module: SourceModule, func: ast.FunctionDef,
                   body: list[ast.stmt], env: _Env,
                   findings: list[Finding]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                then_env = env.copy()
                else_env = env.copy()
                self._interpret(module, func, stmt.body, then_env,
                                findings)
                self._interpret(module, func, stmt.orelse, else_env,
                                findings)
                then_env.join(else_env)
                env.states = then_env.states
                env.escaped = then_env.escaped
                env.local = then_env.local
                continue
            if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
                # The body may run zero times: interpret once on a
                # copy, join with the fall-through state.
                loop_env = env.copy()
                self._visit_expr_children(module, func, stmt, env,
                                          findings)
                self._interpret(module, func, stmt.body, loop_env,
                                findings)
                self._interpret(module, func, stmt.orelse, loop_env,
                                findings)
                env.join(loop_env)
                continue
            if isinstance(stmt, ast.Try):
                # The handler path may observe any prefix of the try
                # body: interpret the body on a copy, join back, then
                # run handlers/orelse/finally on the joined state.
                try_env = env.copy()
                self._interpret(module, func, stmt.body, try_env,
                                findings)
                env.join(try_env)
                for handler in stmt.handlers:
                    self._interpret(module, func, handler.body, env,
                                    findings)
                self._interpret(module, func, stmt.orelse, env, findings)
                self._interpret(module, func, stmt.finalbody, env,
                                findings)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._enter_with(module, func, stmt, env, findings)
                self._interpret(module, func, stmt.body, env, findings)
                self._exit_with(stmt, env)
                continue
            self._visit_statement(module, func, stmt, env, findings)

    # -- with-blocks ---------------------------------------------------------

    @staticmethod
    def _running_receiver(item: ast.withitem) -> str | None:
        """``with <recv>.running():`` -> the receiver name."""
        ctx = item.context_expr
        if isinstance(ctx, ast.Call) and isinstance(ctx.func,
                                                    ast.Attribute) \
                and ctx.func.attr == "running":
            return LifecycleRule._receiver_name(ctx.func.value)
        return None

    def _enter_with(self, module: SourceModule, func: ast.FunctionDef,
                    stmt: ast.With, env: _Env,
                    findings: list[Finding]) -> None:
        for item in stmt.items:
            recv = self._running_receiver(item)
            if recv is None:
                self._visit_expr(module, func, item.context_expr, env,
                                 findings)
                continue
            state = env.states.get(recv, UNKNOWN)
            if state in (RUNNING, DESTROYED):
                findings.append(self._violation(
                    module, func, item.context_expr, recv, "running()",
                    state, allowed=frozenset({MEASURED, SUSPENDED})))
            env.states[recv] = RUNNING

    def _exit_with(self, stmt: ast.With, env: _Env) -> None:
        for item in stmt.items:
            recv = self._running_receiver(item)
            if recv is not None:
                env.states[recv] = SUSPENDED

    # -- plain statements ----------------------------------------------------

    def _visit_statement(self, module: SourceModule,
                         func: ast.FunctionDef, stmt: ast.stmt,
                         env: _Env, findings: list[Finding]) -> None:
        if isinstance(stmt, ast.Assign):
            launched = self._launch_state(stmt.value)
            if launched is not None:
                for target in stmt.targets:
                    name = self._receiver_name(target)
                    if name is not None:
                        env.states[name] = launched
                        if launched == MEASURED \
                                and isinstance(target, ast.Name):
                            env.local.add(name)
                self._visit_expr(module, func, stmt.value, env, findings,
                                 skip_launch=True)
                return
        if isinstance(stmt, (ast.Return, ast.Expr)) \
                and isinstance(getattr(stmt, "value", None), ast.Name):
            env.escaped.add(stmt.value.id)
        self._visit_expr_children(module, func, stmt, env, findings)

    def _launch_state(self, value: ast.expr) -> str | None:
        """The post-state of an assignment RHS, when it launches."""
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if name in LAUNCH_CALLS:
                return MEASURED
        return None

    def _visit_expr_children(self, module: SourceModule,
                             func: ast.FunctionDef, stmt: ast.AST,
                             env: _Env,
                             findings: list[Finding]) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(module, func, child, env, findings)

    def _visit_expr(self, module: SourceModule, func: ast.FunctionDef,
                    expr: ast.expr, env: _Env, findings: list[Finding],
                    skip_launch: bool = False) -> None:
        # Names used as method receivers are lifecycle uses, not
        # hand-offs; every other Load reference escapes the receiver.
        receiver_ids = {
            id(node.func.value) for node in ast.walk(expr)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)}
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                if isinstance(node, ast.Name) \
                        and node.id in env.states \
                        and isinstance(node.ctx, ast.Load) \
                        and id(node) not in receiver_ids:
                    # Bare reference outside a lifecycle call: the
                    # receiver escapes (argument, container, return).
                    env.escaped.add(node.id)
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            recv = self._receiver_name(callee.value)
            if recv is None:
                continue
            method = callee.attr
            if method in TRANSITIONS:
                allowed, after = TRANSITIONS[method]
                state = env.states.get(recv, UNKNOWN)
                if state != UNKNOWN and state not in allowed:
                    findings.append(self._violation(
                        module, func, node, recv, f"{method}()", state,
                        allowed))
                env.states[recv] = after
            elif method in ENTERED_OPS:
                state = env.states.get(recv, UNKNOWN)
                if state not in (UNKNOWN, RUNNING):
                    findings.append(self._violation(
                        module, func, node, recv, f"{method}()", state,
                        allowed=frozenset({RUNNING})))

    @staticmethod
    def _receiver_name(node: ast.expr) -> str | None:
        """Track plain names; ``self.x`` tracks as ``self.x``."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return f"self.{node.attr}"
        return None

    def _violation(self, module: SourceModule, func: ast.FunctionDef,
                   node: ast.AST, recv: str, op: str, state: str,
                   allowed: frozenset[str]) -> Finding:
        want = "/".join(sorted(allowed))
        return Finding(
            rule=self.id, severity=Severity.ERROR, path=module.relpath,
            line=node.lineno, col=node.col_offset,
            key=f"typestate:{func.name}:{recv}.{op}:{state}",
            message=(f"{recv}.{op} in {func.name}() while the enclave "
                     f"is {state}; legal only from {want}"),
            fix_hint=FIX_HINT)
