"""The flight recorder: a ring buffer of recent events, dumped on crash.

A failing ``CHAOS_SEEDS=25`` run used to leave nothing but a pytest
traceback; the weather that killed it — which faults fired, which
retries were burning, how deep the mailbox was — was gone. The flight
recorder keeps the last ``capacity`` structured events in a fixed-size
ring at O(1) per event, and on a **trip** (an :class:`EMCallTimeout`,
a chaos invariant violation, or an explicit
``python -m repro flightrec dump``) freezes a self-contained JSON
"black box" of them.

Event kinds recorded by the probe facade (:mod:`repro.obs.probes`):
completed roots (``invocation``/``batch``), fault-point fires (``fault``),
retry/timeout/degraded transitions, and mailbox rejects including
queue-full backpressure (``reject``).

Dumps are versioned (:data:`SCHEMA`) and written to
``$REPRO_FLIGHTREC_DIR`` when set (the chaos CI job sets it and uploads
the directory as a workflow artifact on failure); the latest dump is
always kept on :attr:`FlightRecorder.last_dump` regardless.

Determinism contract: no wall clock, no ambient entropy (TEE002) — the
event clock is the facade's cycle clock and the sequence counter, and
trip filenames derive from the trip counter, so two identically-seeded
runs produce bit-identical dumps.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from typing import Any

#: Dump document version; bump on any field change.
SCHEMA = "hypertee.flightrec/1"

#: Default ring size: enough to hold the full retry/fault history of a
#: stuck invocation (deadline polls x attempts) plus surrounding traffic.
DEFAULT_CAPACITY = 512

#: File-write budget per recorder: a chaos run tripping on every
#: degraded invocation must not flood the artifact directory.
MAX_TRIP_FILES = 8

#: Environment variable naming the dump directory (unset = no files).
DUMP_DIR_ENV = "REPRO_FLIGHTREC_DIR"

_SLUG = re.compile(r"[^a-z0-9]+")


def _slug(reason: str) -> str:
    return _SLUG.sub("-", reason.lower()).strip("-") or "trip"


class FlightRecorder:
    """Fixed-size ring of structured events with crash-dump freezing."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self.recorded_total = 0
        self.trips = 0
        #: The most recent trip's dump document (None until a trip).
        self.last_dump: dict[str, Any] | None = None
        #: Paths written for trips (capped at MAX_TRIP_FILES).
        self.dump_paths: list[str] = []
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded_total - len(self._events)

    # -- recording (O(1) per event) ------------------------------------------

    def record(self, kind: str, clock: float, **fields: Any) -> None:
        """Append one structured event to the ring."""
        self._seq += 1
        self.recorded_total += 1
        event: dict[str, Any] = {"seq": self._seq, "clock": clock,
                                 "kind": kind}
        event.update(fields)
        self._events.append(event)
        if self.san is not None:
            # The ring lands verbatim in crash-dump artifacts: nothing
            # recorded here may contain key material (dynamic TEE004).
            self.san.on_observable(f"flightrec.{kind}", fields)

    # -- dumping -------------------------------------------------------------

    def snapshot(self, reason: str = "snapshot",
                 detail: dict[str, Any] | None = None) -> dict[str, Any]:
        """The current ring as a self-contained, versioned document."""
        return {
            "schema": SCHEMA,
            "reason": reason,
            "detail": detail or {},
            "capacity": self.capacity,
            "recorded_total": self.recorded_total,
            "dropped": self.dropped,
            "trips": self.trips,
            "events": list(self._events),
        }

    def trip(self, reason: str,
             detail: dict[str, Any] | None = None) -> dict[str, Any]:
        """Freeze a black-box dump; write it out if a dump dir is set."""
        self.trips += 1
        dump = self.snapshot(reason=reason, detail=detail)
        dump["trips"] = self.trips
        self.last_dump = dump
        directory = os.environ.get(DUMP_DIR_ENV)
        if directory and len(self.dump_paths) < MAX_TRIP_FILES:
            path = os.path.join(
                directory, f"flightrec-{self.trips:03d}-{_slug(reason)}.json")
            try:
                os.makedirs(directory, exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(dump, fh, indent=1, sort_keys=True, default=str)
                    fh.write("\n")
            except OSError:
                # Best-effort: a read-only artifact dir must not turn a
                # diagnostic into a second failure; the in-memory dump
                # on last_dump still carries the evidence.
                return dump
            self.dump_paths.append(path)
        return dump

    def write(self, path: str, reason: str = "manual-dump") -> dict[str, Any]:
        """Explicit dump to ``path`` (the CLI's ``flightrec dump``)."""
        dump = self.snapshot(reason=reason)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1, sort_keys=True, default=str)
            fh.write("\n")
        return dump
