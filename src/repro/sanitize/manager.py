"""The teesan hook hub: one manager, two sanitizers, one event trail.

Instrumented components carry a ``san`` attribute (``None`` by default,
exactly like the ``obs``/``faults`` hooks) and call the manager's
``on_*`` methods at the interesting edges. The manager:

* keeps the logical event clock and the recent-event ring that becomes
  a violation's trail;
* owns the shared :class:`~repro.sanitize.shadow.TaintRegistry` and
  :class:`~repro.sanitize.shadow.ShadowMap`;
* dispatches each hook to whichever sanitizers are enabled (disabled
  sanitizers cost one attribute check);
* collects :class:`~repro.sanitize.report.Violation`s instead of
  raising mid-simulation, so one leak cannot mask a second one;
  :meth:`check_clean` raises at the checkpoint.

Non-interference: no hook mutates modelled state, draws from the
system RNG, or changes a cycle count — a system with sanitizers
attached produces bit-identical results to one without
(tests/sanitize/test_noninterference.py).
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any

from repro.sanitize.report import (
    Violation,
    format_summary,
    format_violation,
    redact,
)
from repro.sanitize.shadow import ShadowMap, TaintRegistry

#: Sanitizer names accepted by the CLI and the attach helpers.
SANITIZERS = ("secret", "own")

#: Trail depth kept per manager (mirrors the flight recorder's ring).
_TRAIL_DEPTH = 64


class SanitizeViolationError(AssertionError):
    """Raised by :meth:`SanitizerManager.check_clean` on violations."""


def parse_sanitizer_list(spec: str) -> tuple[str, ...]:
    """``"secret,own"`` -> ``("secret", "own")``, validated."""
    names = tuple(name.strip() for name in spec.split(",") if name.strip())
    for name in names:
        if name not in SANITIZERS:
            raise ValueError(
                f"unknown sanitizer {name!r} (choose from {SANITIZERS})")
    return names


@dataclasses.dataclass
class SanitizeStats:
    """Work counters, surfaced through the obs metrics registry."""

    events: int = 0
    secrets_registered: int = 0
    wire_packets_scanned: int = 0
    raw_writes_scanned: int = 0
    frames_scanned: int = 0
    observable_scans: int = 0
    claims_checked: int = 0
    #: per-sanitizer violation totals, zeros included.
    violations: dict[str, int] = dataclasses.field(
        default_factory=lambda: dict.fromkeys(SANITIZERS, 0))


class SanitizerManager:
    """Hook hub + violation collector for one platform."""

    def __init__(self, sanitizers: tuple[str, ...] = ("secret", "own"),
                 *, obs=None) -> None:
        for name in sanitizers:
            if name not in SANITIZERS:
                raise ValueError(
                    f"unknown sanitizer {name!r} "
                    f"(choose from {SANITIZERS})")
        self.enabled = tuple(dict.fromkeys(sanitizers))
        self.registry = TaintRegistry()
        self.shadow = ShadowMap()
        self.stats = SanitizeStats()
        self.violations: list[Violation] = []
        self.obs = obs
        self._trail: collections.deque[str] = collections.deque(
            maxlen=_TRAIL_DEPTH)
        self._clock = 0
        from repro.sanitize.own import OwnSanitizer
        from repro.sanitize.secret import SecretSanitizer

        self.secret = (SecretSanitizer(self)
                       if "secret" in self.enabled else None)
        self.own = OwnSanitizer(self) if "own" in self.enabled else None

    # -- trail & reporting -------------------------------------------------------

    def event(self, kind: str, **fields: Any) -> int:
        """Advance the clock and remember one structured trail entry."""
        self._clock += 1
        self.stats.events += 1
        detail = " ".join(f"{key}={value}"
                          for key, value in fields.items())
        self._trail.append(f"[event {self._clock}] {kind} {detail}".rstrip())
        return self._clock

    def report_violation(self, sanitizer: str, kind: str,
                         message: str) -> Violation:
        """Record one finding with the current trail (newest first)."""
        violation = Violation(
            sanitizer=sanitizer, kind=kind, message=message,
            event=self._clock, trail=tuple(reversed(self._trail)))
        self.violations.append(violation)
        self.stats.violations[sanitizer] += 1
        if self.obs is not None and self.obs.enabled:
            self.obs.trip_flightrec(f"teesan-{sanitizer}",
                                    kind=kind, message=message)
        return violation

    def ok(self) -> bool:
        """True while no sanitizer has fired."""
        return not self.violations

    def violation_counts(self) -> dict[str, int]:
        """Per-sanitizer violation totals (zeros included)."""
        return dict(self.stats.violations)

    def report_text(self) -> str:
        """Every violation block plus the SUMMARY line."""
        blocks = [format_violation(v) for v in self.violations]
        blocks.append(format_summary(self.violation_counts(),
                                     self.stats.events))
        return "\n".join(blocks)

    def to_dict(self) -> dict:
        """JSON-ready run report (the CI artifact schema)."""
        return {
            "schema": "hypertee.teesan/1",
            "sanitizers": list(self.enabled),
            "ok": self.ok(),
            "violations": [v.to_dict() for v in self.violations],
            "counts": self.violation_counts(),
            "stats": dataclasses.asdict(self.stats),
        }

    def check_clean(self, label: str = "teesan") -> None:
        """Raise with the full report if any sanitizer fired."""
        if self.violations:
            raise SanitizeViolationError(
                f"{label}: {len(self.violations)} sanitizer violation(s)\n"
                + self.report_text())

    def stats_snapshot(self) -> dict:
        """Metrics-registry source (registered as ``sanitize``)."""
        return dataclasses.asdict(self.stats)

    # -- SECRET intake -----------------------------------------------------------

    def register_secret(self, value: bytes, label: str) -> None:
        """Taint key material at mint time (key-manager hooks)."""
        if self.registry.register(value, f"{label}#{redact(value)}"):
            self.stats.secrets_registered += 1
            self.event("secret.mint", label=label, bytes=len(value))

    # -- hook dispatch (called by instrumented components) -----------------------

    def on_wire_packet(self, packet: Any, direction: str) -> None:
        """A packet entered a mailbox queue (CS<->EMS boundary)."""
        if self.secret is not None:
            self.secret.check_wire_packet(packet, direction)

    def on_raw_write(self, memory, paddr: int, data: bytes) -> None:
        """Bytes landed on the DRAM bus (post-engine)."""
        if self.secret is not None:
            self.secret.check_raw_write(memory, paddr, data)
        if self.own is not None:
            self.own.check_raw_write(paddr, len(data))

    def on_zero_frame(self, frame: int) -> None:
        """A frame was scrubbed; its shadow is clean by definition."""
        if self.secret is not None:
            self.secret.note_zero_frame(frame)

    def on_pool_take(self, memory, frames: list[int], owner: Any) -> None:
        """Frames left a pool for an enclave (grant edge)."""
        if self.secret is not None:
            self.secret.check_granted_frames(memory, frames)
        if self.own is not None:
            self.own.note_pool_take(frames, owner)

    def on_pool_return(self, memory, frames: list[int],
                       owner: Any) -> None:
        """Frames came back zeroed (EFREE / EDESTROY / EWB reclaim)."""
        if self.secret is not None:
            self.secret.check_freed_frames(memory, frames, "pool return")

    def on_pool_surrender(self, memory, frames: list[int]) -> None:
        """Frames left enclave memory for the CS OS (EWB swap-out)."""
        if self.secret is not None:
            self.secret.check_freed_frames(memory, frames, "EWB surrender")

    def on_observable(self, surface: str, fields: dict) -> None:
        """Values reached an observability payload (flightrec, ...)."""
        if self.secret is not None:
            self.secret.check_observable(surface, fields)

    def on_codec_encode(self, name: str, data: bytes) -> None:
        """An artifact was encoded for the host (sealed blob, quote)."""
        if self.secret is not None:
            self.secret.check_codec(name, data)

    def on_seal(self, nbytes: int) -> None:
        """The sealing service encrypted a payload (trail context)."""
        self.event("crypto.seal", bytes=nbytes)

    def on_unseal(self, nbytes: int) -> None:
        """The sealing service verified + decrypted a blob."""
        self.event("crypto.unseal", bytes=nbytes)

    def on_crypto_op(self, op: str, nbytes: int) -> None:
        """The crypto engine ran one bulk operation (trail context)."""
        self.event("crypto.op", op=op, bytes=nbytes)

    def on_key_programmed(self, keyid: int) -> None:
        """The encryption engine gained a KeyID slot."""
        self.event("engine.program_key", keyid=keyid)

    def on_key_released(self, keyid: int) -> None:
        """A KeyID slot was released (its ciphertext is now garbage)."""
        self.event("engine.release_key", keyid=keyid)

    def on_claim(self, table, frames: list[int], owner: Any) -> None:
        """An ownership table recorded frames for ``owner``."""
        if self.own is not None:
            self.own.check_claim(table, frames, owner)

    def on_release(self, table, frames: list[int], owner: Any) -> None:
        """An ownership table dropped frames held by ``owner``."""
        if self.own is not None:
            self.own.check_release(table, frames, owner)

    def on_transfer_prepare(self, enclave_id: int, frames: list[int],
                            src: int, dst: int) -> None:
        """A sealed transfer manifest was minted (prepare phase)."""
        if self.own is not None:
            self.own.note_prepare(enclave_id, frames, src, dst)

    def on_transfer_manifest_verified(self, enclave_id: int) -> None:
        """The destination authenticated the manifest (unseal passed)."""
        if self.own is not None:
            self.own.note_manifest_verified(enclave_id)

    def on_transfer_commit(self, enclave_id: int, src: int,
                           dst: int) -> None:
        """Ownership moved; the prepare window closed."""
        if self.own is not None:
            self.own.note_commit(enclave_id, src, dst)

    def on_transfer_abort(self, enclave_id: int) -> None:
        """The transfer died between prepare and commit (no mutation)."""
        if self.own is not None:
            self.own.note_abort(enclave_id)

    def on_invocation(self, primitive: str, status: str,
                      cs_cycles: int) -> None:
        """One EMCall invocation completed on the CS side (trail context)."""
        self.event("emcall.invoke", primitive=primitive, status=status,
                   cs_cycles=cs_cycles)

    def on_ems_dispatch(self, primitive: str, status: str,
                        service_cycles: int) -> None:
        """The EMS runtime served one primitive (trail context)."""
        self.event("ems.dispatch", primitive=primitive, status=status,
                   service_cycles=service_cycles)
