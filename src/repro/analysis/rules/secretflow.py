"""TEE004 — secret flow: key material never reaches observable sinks.

The observability layer (PR 1) is *out-of-band by contract*: metrics,
span args, and logs are CS-visible surfaces. Enclave key material —
sealing keys, signing keys, attestation keys, derived session keys —
must never flow into them, nor into CS-visible packet fields. This
rule reports the flow events of the shared taint engine
(:mod:`repro.analysis.taint`):

* **sources** — names matching the secret patterns (``*_secret``,
  ``sealing_key``, ``signing_key``, ``session_key``, ``privkey``,
  ``key_material``, ...) and calls to key-deriving providers (any
  ``*.something_key(...)`` method, e.g. ``KeyManager.sealing_key``,
  or functions from ``repro.crypto.keys``);
* **propagation** — assignment from a tainted expression taints the
  target in statement order, *and* — new in this PR — taint crosses
  function boundaries: per-function summaries record which parameters
  flow to the return value or to a sink, the call graph
  (:mod:`repro.analysis.callgraph`) resolves ``module.func`` /
  ``self.method`` / facade re-exports, and summaries propagate to
  fixpoint. A helper that formats a key plus a caller that logs the
  result is one flow, even across ``crypto/`` → ``ems/`` → ``obs/``;
* **sinks** — ``print``, ``*.labels(...)``, ``*.add_span(...)``,
  obs probes (``*.record_*``), logging methods, ``str.format`` /
  f-strings, and CS-visible packet constructors
  (``PrimitiveRequest`` / ``PrimitiveResponse`` / ``BatchRequest`` /
  ``BatchResponse``).

Hashes *of* secrets (``keyed_mac(key, ...)`` results bound to
non-secret names) do not taint: only the named secret itself does.

Direct flows keep the PR-4 finding key ``flow:{func}->{sink}``;
interprocedural flows are keyed ``flow:{func}->{callee}~>{sink}`` so
a baseline entry pins exactly one call chain.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project
from repro.analysis.rules import register
from repro.analysis.taint import (  # noqa: F401  (re-exported contract)
    LOG_METHODS,
    PACKET_CONSTRUCTORS,
    SANITIZER_CALLS,
    SECRET_NAME_PATTERNS,
    SOURCE_CALL_PATTERNS,
    FlowEvent,
    engine_for,
)

FIX_HINT = ("export a digest or redacted identifier instead; raw key "
            "material must never reach metrics, traces, logs, or "
            "CS-visible packet fields")


@register
class SecretFlowRule:
    """Interprocedural taint from key material to observable sinks."""

    id = "TEE004"
    title = "secret flow: key material stays out of observable sinks"

    def check(self, project: Project) -> Iterator[Finding]:
        """Report every secret-to-sink flow event in the project."""
        engine = engine_for(project)
        for event in engine.flow_events():
            yield self._finding(event)

    def _finding(self, event: FlowEvent) -> Finding:
        func_name = event.function.node.name
        if event.via:
            key = f"flow:{func_name}->{event.via}~>{event.sink}"
            message = (f"key material passed to {event.via}() in "
                       f"{func_name}() reaches {event.sink} inside the "
                       f"callee; observability and packet surfaces are "
                       f"CS-visible")
        else:
            key = f"flow:{func_name}->{event.sink}"
            message = (f"key material flows into {event.sink} in "
                       f"{func_name}(); observability and packet "
                       f"surfaces are CS-visible")
        return Finding(
            rule=self.id, severity=Severity.ERROR,
            path=event.function.module.relpath,
            line=event.node_line, col=event.node_col,
            end_line=event.node_end_line, end_col=event.node_end_col,
            key=key, message=message, fix_hint=FIX_HINT)
