"""teesan — the runtime sanitizer suite (dynamic teelint).

Where ``repro.analysis`` (teelint) proves TEE invariants *statically*
over the source, ``repro.sanitize`` re-proves them *dynamically* over a
live modelled platform, with ASan-style diagnostics:

* **SECRET** — byte-granular secret shadow memory (dynamic TEE004):
  key material is tainted at mint time and no tainted byte may cross
  the CS<->EMS wire unencrypted, land on the raw DRAM bus, reach an
  observable surface (logs, metrics, flight recorder, codec output),
  or survive in a freed or regranted frame.
* **OWN** — fleet-wide ownership epoch checking (the runtime check of
  the cross-shard transfer protocol): double-grants across shard
  tables, raw writes inside a transfer prepare/commit window, and
  unverified-manifest mutations.

Sanitizers are strictly opt-in (``HyperTEESystem.enable_sanitizers``)
and observe-only: with them disabled the platform is bit-identical.
"""

from repro.sanitize.manager import (
    SANITIZERS,
    SanitizerManager,
    SanitizeStats,
    SanitizeViolationError,
    parse_sanitizer_list,
)
from repro.sanitize.report import Violation, format_violation, redact
from repro.sanitize.shadow import ShadowMap, TaintHit, TaintRegistry

__all__ = [
    "SANITIZERS",
    "SanitizerManager",
    "SanitizeStats",
    "SanitizeViolationError",
    "ShadowMap",
    "TaintHit",
    "TaintRegistry",
    "Violation",
    "format_violation",
    "parse_sanitizer_list",
    "redact",
]
