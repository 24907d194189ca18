"""ASan-style diagnostics for teesan.

A violation renders as::

    ERROR: TeeSan SECRET-LEAK: sealing-key#1f2e3d4c crossed the CS<->EMS
    boundary unencrypted (mailbox request ESEAL, request_id=7)
        #0 [event 181] wire.request primitive=ESEAL request_id=7
        #1 [event 180] secret.mint label=sealing-key#1f2e3d4c bytes=32
        ...
    SUMMARY: TeeSan: 2 violations (secret=1 own=1), 412 events

The trail is the manager's recent structured-event ring (newest first),
the dynamic sibling of the flight recorder's black box. Secret *values*
never appear anywhere in a report: every reference to key material goes
through :func:`redact`, which renders a truncated digest — the same
discipline teelint's TEE004 enforces statically on these formatting
functions (they are registered sinks).
"""

from __future__ import annotations

import dataclasses
import hashlib


def redact(value: bytes) -> str:
    """A short, safe-to-print identity for key material."""
    return hashlib.sha256(bytes(value)).hexdigest()[:8]


@dataclasses.dataclass(frozen=True)
class Violation:
    """One sanitizer finding, with the event trail that led to it."""

    sanitizer: str            #: ``secret`` / ``own``
    kind: str                 #: e.g. ``SECRET-LEAK``, ``DOUBLE-GRANT``
    message: str              #: one-sentence diagnosis (pre-redacted)
    event: int                #: manager clock when the check fired
    trail: tuple[str, ...]    #: recent events, newest first

    def to_dict(self) -> dict:
        """JSON-ready form (the CI artifact schema)."""
        return {
            "sanitizer": self.sanitizer,
            "kind": self.kind,
            "message": self.message,
            "event": self.event,
            "trail": list(self.trail),
        }


def format_violation(violation: Violation) -> str:
    """The ASan-style block for one violation."""
    lines = [f"ERROR: TeeSan {violation.kind}: {violation.message}"]
    for index, entry in enumerate(violation.trail):
        lines.append(f"    #{index} {entry}")
    return "\n".join(lines)


def format_summary(counts: dict[str, int], events: int) -> str:
    """The closing SUMMARY line."""
    total = sum(counts.values())
    noun = "violation" if total == 1 else "violations"
    detail = " ".join(f"{name}={count}"
                      for name, count in sorted(counts.items()))
    return f"SUMMARY: TeeSan: {total} {noun} ({detail}), {events} events"
