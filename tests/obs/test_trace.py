"""Tracer mechanics and the Chrome trace_event export."""

from __future__ import annotations

import json

from repro.obs.trace import Tracer, walk_roots


def _record_one_invocation(tracer: Tracer, start: float = 0.0) -> None:
    root = tracer.add_span("EALLOC", "primitive", start, 1000)
    tracer.add_span("emcall.gate", "emcall", start, 350, parent=root)
    tracer.add_span("mailbox.request", "mailbox", start + 350, 60,
                    parent=root)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.add_span("x", "cat", 0, 10) is None
    _record_one_invocation(tracer)
    assert len(tracer) == 0 and tracer.spans() == []


def test_span_tree_and_queries():
    tracer = Tracer(enabled=True)
    _record_one_invocation(tracer)
    _record_one_invocation(tracer, start=1000)
    assert len(tracer) == 6
    roots = list(walk_roots(tracer.spans()))
    assert [r.name for r in roots] == ["EALLOC", "EALLOC"]
    assert roots[1].start_cycle == 1000  # the second invocation's start
    kids = tracer.children_of(roots[0])
    assert [k.name for k in kids] == ["emcall.gate", "mailbox.request"]
    assert kids[1].end_cycle == 410
    assert tracer.find("mailbox.", category="mailbox")
    assert not tracer.find("mailbox.", category="emcall")


def test_capacity_drops_are_counted():
    tracer = Tracer(enabled=True, max_spans=2)
    for _ in range(4):
        tracer.add_span("s", "c", 0, 1)
    assert len(tracer) == 2 and tracer.dropped == 2


def test_clear_resets_everything():
    tracer = Tracer(enabled=True, max_spans=2)
    _record_one_invocation(tracer)
    assert tracer.dropped == 1
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


def test_chrome_export_shape(tmp_path):
    tracer = Tracer(enabled=True)
    _record_one_invocation(tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome_json(str(path))
    doc = json.loads(path.read_text())

    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(events) == 3
    assert meta and meta[0]["name"] == "thread_name"
    assert doc["otherData"]["clock"] == "cs-cycles"

    # Cycle -> microsecond conversion at the CS clock (2.5 GHz default).
    root = next(e for e in events if e["name"] == "EALLOC")
    assert root["ts"] == 0 and root["dur"] == 1000 * 1e6 / 2.5e9
    gate = next(e for e in events if e["name"] == "emcall.gate")
    assert gate["args"]["parent_id"] == root["args"]["span_id"]
    # Children nest inside the root by time containment.
    assert root["ts"] <= gate["ts"]
    assert gate["ts"] + gate["dur"] <= root["ts"] + root["dur"] + 1e-9
