"""Prometheus exposition hardening: hostile labels, quantile digests."""

from __future__ import annotations

import json

from repro.obs.export import (
    registry_as_dict,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def test_hostile_label_values_cannot_corrupt_the_scrape():
    registry = MetricsRegistry()
    counter = registry.counter("hypertee_hostile_total",
                               "hostile labels", ("name",))
    hostile = 'evil"} 1\nhypertee_forged_total{x="y'
    counter.labels(hostile).inc()
    counter.labels("back\\slash").inc()
    text = render_prometheus(registry)

    # One sample line per child; the newline/quote payload is escaped,
    # not emitted raw — no forged series appears.
    assert "hypertee_forged_total 1" not in text
    assert '\\"} 1\\n' in text
    assert 'name="back\\\\slash"' in text
    # Every non-comment line still splits into exactly name{...} value.
    for line in text.strip().splitlines():
        assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2


def test_help_text_newlines_and_backslashes_are_escaped():
    registry = MetricsRegistry()
    registry.counter("hypertee_multiline_total",
                     "line one\nline two \\ done")
    text = render_prometheus(registry)
    assert ("# HELP hypertee_multiline_total "
            "line one\\nline two \\\\ done") in text
    assert text.count("\n# TYPE") == 1


def test_quantile_histogram_exposes_bucket_sum_count():
    registry = MetricsRegistry()
    digest = registry.histogram("hypertee_q_latency", "digest",
                                ("operation",), base=2 ** 0.25,
                                exact_limit=512)
    for value in (10, 100, 1000):
        digest.labels("EALLOC").observe(value)
    text = render_prometheus(registry)

    assert "# TYPE hypertee_q_latency histogram" in text
    assert 'hypertee_q_latency_bucket{operation="EALLOC",le="+Inf"} 3' in text
    assert 'hypertee_q_latency_sum{operation="EALLOC"} 1110' in text
    assert 'hypertee_q_latency_count{operation="EALLOC"} 3' in text
    # Bucket lines are cumulative and end at the total.
    bucket_counts = [int(line.rsplit(" ", 1)[1])
                     for line in text.splitlines()
                     if line.startswith("hypertee_q_latency_bucket")]
    assert bucket_counts == sorted(bucket_counts)
    assert bucket_counts[-1] == 3


def test_json_export_carries_quantiles_for_the_new_kind():
    registry = MetricsRegistry()
    digest = registry.histogram("hypertee_q_latency", "digest",
                                base=2 ** 0.25, exact_limit=512)
    for value in range(1, 11):
        digest.observe(value)
    doc = registry_as_dict(registry)
    series = doc["metrics"]["hypertee_q_latency"]["series"][0]["value"]
    assert series["count"] == 10
    assert series["exact"] is True
    assert {"p50", "p95", "p99", "p999", "buckets"} <= set(series)
    json.loads(render_json(registry))  # round-trips
