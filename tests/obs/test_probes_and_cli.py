"""End-to-end probes: the instrumented scenario, export surfaces, CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main, run_instrumented_scenario
from repro.obs.export import render_json, render_prometheus
from repro.obs.trace import walk_roots

#: Span names every primitive invocation decomposes into, in order.
LIFECYCLE = ["emcall.gate", "mailbox.request", "ems.service",
             "mailbox.response", "emcall.poll"]


@pytest.fixture(scope="module")
def traced_tee():
    """One instrumented scenario, shared by the read-only assertions."""
    return run_instrumented_scenario(seed=7)


def test_invocations_and_latency_populate(traced_tee):
    obs = traced_tee.system.obs
    inv = obs.metrics.get("hypertee_primitive_invocations_total")
    by_primitive = {labels["primitive"]: c.value for labels, c in inv.samples()}
    for prim in ("ECREATE", "EALLOC", "EENTER", "EATTEST", "EWB", "EDESTROY"):
        assert by_primitive.get(prim, 0) >= 1, prim
    rows = obs.primitive_latency_table()
    assert rows and all(r["p50"] <= r["p90"] <= r["p99"] <= r["max"]
                        for r in rows)
    # Every CS-visible latency includes at least gate + two transfers.
    assert all(r["p50"] >= 350 + 2 * 60 for r in rows)


def test_span_tree_decomposes_each_primitive(traced_tee):
    tracer = traced_tee.system.obs.tracer
    roots = list(walk_roots(tracer.spans()))
    assert len(roots) >= 10
    cursor = 0.0
    for root in roots:
        kids = sorted(tracer.children_of(root), key=lambda s: s.start_cycle)
        assert [k.name for k in kids] == LIFECYCLE
        # Children tile the root exactly: no gaps, no overlap.
        assert kids[0].start_cycle == root.start_cycle
        for a, b in zip(kids, kids[1:]):
            assert a.end_cycle == b.start_cycle
        assert kids[-1].end_cycle == root.end_cycle
        # Roots are laid end to end on the cycle timeline.
        assert root.start_cycle == cursor
        cursor = root.end_cycle
    # The EMS handler nests inside at least one service span.
    handlers = tracer.find("ems.handler:")
    assert handlers
    parents = {s.span_id: s for s in tracer.spans()}
    assert all(parents[h.parent_id].name == "ems.service" for h in handlers)


def test_subsystem_probes_fired(traced_tee):
    reg = traced_tee.system.obs.metrics
    mailbox = {labels["event"]: c.value
               for labels, c in reg.get("hypertee_mailbox_events_total").samples()}
    assert mailbox["request_pushed"] == mailbox["response_pushed"]
    assert mailbox["requests_fetched"] == mailbox["request_pushed"]
    assert reg.get("hypertee_ems_pump_batch_size").labels().count > 0
    # The boot-time refill predates enable_observability(); the take and
    # give-back probes keep the occupancy gauges current afterwards.
    assert reg.get("hypertee_pool_free_frames").labels("0").value > 0
    assert reg.get("hypertee_swap_surrendered_pages").labels().count == 1
    crypto = {labels["op"]: c.value
              for labels, c in reg.get("hypertee_crypto_ops_total").samples()}
    assert crypto.get("hash", 0) > 0  # measurement during launch
    walks = sum(c.value for _, c in reg.get("hypertee_ptw_walks_total").samples())
    assert walks > 0


def test_prometheus_rendering(traced_tee):
    text = render_prometheus(traced_tee.system.obs.metrics)
    assert "# TYPE hypertee_primitive_invocations_total counter" in text
    assert "# TYPE hypertee_slo_operation_latency histogram" in text
    assert 'operation="EALLOC"' in text
    assert 'le="+Inf"' in text
    # One value per sample line, no blank lines inside the exposition.
    for line in text.strip().splitlines():
        assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2


def test_json_rendering(traced_tee):
    doc = json.loads(render_json(traced_tee.system.obs.metrics))
    lat = doc["metrics"]["hypertee_slo_operation_latency"]
    assert lat["kind"] == "histogram"
    series = {s["labels"]["operation"]: s["value"] for s in lat["series"]}
    assert series["EALLOC"]["count"] >= 1
    assert {"p50", "p95", "p99", "buckets"} <= set(series["EALLOC"])
    assert set(doc["subsystems"]) == {"ems", "mailbox", "fabric", "pool",
                                      "emcall", "tlb", "interrupts", "faults"}


def test_cli_metrics_table(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert "p50" in out and "p99" in out and "EALLOC" in out
    assert "Subsystem counters" in out


def test_cli_metrics_prom(capsys):
    assert main(["metrics", "--format", "prom"]) == 0
    assert "# HELP hypertee_primitive_invocations_total" in capsys.readouterr().out


def test_cli_trace_writes_valid_chrome_json(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    assert main(["trace", "--out", str(out_path)]) == 0
    assert "spans" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"emcall.gate", "mailbox.request", "ems.service"} <= names


def test_cli_bare_artifact_names_still_regenerate(capsys):
    assert main(["table4"]) == 0
    assert "Table IV" in capsys.readouterr().out
