"""Span tracer keyed on the model's cycle clock.

A :class:`Tracer` records the full lifecycle of each primitive as nested
spans on a virtual timeline measured in **CS-core cycles** — the same
unit the timing model reports. Probe points call :meth:`Tracer.add_span`
with explicit start/duration (the cycle model already knows both, so no
wall-clock sampling is ever involved); roots start at the probe facade's
cycle clock (``Observability.clock``), which each root advances.

Recording is opt-in: ``HyperTEESystem.enable_observability()`` attaches
the probes with the tracer off, and span trees are built only while
``Tracer.enabled`` is set (``repro trace`` sets it for its scenario).

The recorded timeline exports as Chrome ``trace_event`` JSON
(:meth:`export_chrome`): complete ``"X"`` events whose timestamps are
cycles converted to microseconds at the CS core frequency. Load the file
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; events on
one track nest by time containment, so the SDK call -> EMCall gate ->
mailbox transfer -> EMS handler -> response poll decomposition reads as a
flame graph.

Out-of-band guarantee: the tracer is pure bookkeeping. It never draws
from the model RNG, never adds cycles to any modelled latency, and the
attacker-visible state of the system is identical with tracing on or off
(enforced by ``tests/obs/test_noninterference.py``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterator

from repro.common.constants import CS_CORE_FREQ_HZ


@dataclasses.dataclass
class Span:
    """One timed phase of a primitive's lifecycle."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_cycle: float
    duration_cycles: float
    track: str = "cs0"
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def end_cycle(self) -> float:
        return self.start_cycle + self.duration_cycles


class Tracer:
    """Collects spans on a cycle-denominated timeline."""

    def __init__(self, enabled: bool = False,
                 max_spans: int = 1_000_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self._spans: list[Span] = []
        self._next_id = 1
        self.dropped = 0

    # -- recording ---------------------------------------------------------------

    def add_span(self, name: str, category: str, start_cycle: float,
                 duration_cycles: float, parent: Span | None = None,
                 track: str = "cs0", **attrs: Any) -> Span | None:
        """Record one span; returns None when disabled or at capacity."""
        if not self.enabled:
            return None
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return None
        span = Span(span_id=self._next_id,
                    parent_id=parent.span_id if parent else None,
                    name=name, category=category,
                    start_cycle=start_cycle,
                    duration_cycles=duration_cycles,
                    track=track, attrs=attrs)
        self._next_id += 1
        self._spans.append(span)
        return span

    # -- inspection --------------------------------------------------------------

    def spans(self) -> list[Span]:
        """A copy of every recorded span, in recording order."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def find(self, name_prefix: str = "", category: str | None = None) -> list[Span]:
        """Spans whose name starts with the prefix (and category, if given)."""
        return [s for s in self._spans
                if s.name.startswith(name_prefix)
                and (category is None or s.category == category)]

    def children_of(self, span: Span) -> list[Span]:
        """Direct child spans of ``span``."""
        return [s for s in self._spans if s.parent_id == span.span_id]

    def clear(self) -> None:
        """Drop all spans and the dropped-span count."""
        self._spans.clear()
        self.dropped = 0

    # -- Chrome trace_event export -------------------------------------------------

    def export_chrome(self, freq_hz: float = CS_CORE_FREQ_HZ) -> dict:
        """The ``trace_event`` document Perfetto / chrome://tracing load.

        Cycles convert to microseconds at ``freq_hz``; each distinct
        track becomes a thread with a ``thread_name`` metadata record.
        """
        us_per_cycle = 1e6 / freq_hz
        tracks: dict[str, int] = {}
        events: list[dict] = []
        for span in self._spans:
            tid = tracks.setdefault(span.track, len(tracks) + 1)
            args = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_cycle * us_per_cycle,
                "dur": span.duration_cycles * us_per_cycle,
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        metadata = [{
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": track},
        } for track, tid in tracks.items()]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ns",
            "otherData": {
                "exporter": "repro.obs.trace",
                "clock": "cs-cycles",
                "cs_freq_hz": freq_hz,
                "dropped_spans": self.dropped,
            },
        }

    def export_chrome_json(self, freq_hz: float = CS_CORE_FREQ_HZ) -> str:
        """The trace_event document serialized to a JSON string."""
        return json.dumps(self.export_chrome(freq_hz), indent=1)

    def write_chrome_json(self, path: str,
                          freq_hz: float = CS_CORE_FREQ_HZ) -> None:
        """Write the trace_event JSON to ``path`` (Perfetto-loadable)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_chrome_json(freq_hz))


def walk_roots(spans: list[Span]) -> Iterator[Span]:
    """Yield the root spans (no parent) in timeline order."""
    for span in sorted(spans, key=lambda s: (s.start_cycle, s.span_id)):
        if span.parent_id is None:
            yield span
