"""The SLO engine: quantile digests, target table, budget arithmetic."""

from __future__ import annotations

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import (
    BATCH_OPERATION,
    DEFAULT_SLO_TABLE,
    QUANTILES,
    SLOEngine,
    load_slo_table,
)


# -- the digest: a quarter-octave Histogram with an exact limit ---------------

def _digest(exact_limit: int = 512) -> Histogram:
    """A digest configured as the SLO engine registers its family."""
    return Histogram(base=2 ** 0.25, exact_limit=exact_limit)


def test_small_samples_are_exact_order_statistics():
    hist = _digest()
    for value in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
        hist.observe(value)
    assert hist.exact_mode
    assert hist.percentile(0.50) == 50
    assert hist.percentile(0.99) == 100
    assert hist.percentile(0.999) == 100
    assert hist.quantiles() == {"p50": 50, "p95": 100, "p99": 100,
                                "p999": 100}


def test_overflow_switches_to_log_buckets_with_bounded_error():
    hist = _digest(exact_limit=64)
    values = [1000 + 13 * i for i in range(500)]
    for value in values:
        hist.observe(value)
    assert not hist.exact_mode
    assert hist.count == 500
    ordered = sorted(values)
    for p in (0.50, 0.95, 0.99):
        exact = ordered[max(1, int(p * 500)) - 1]
        estimate = hist.percentile(p)
        # Quarter-octave buckets bound the relative quantile error ~9%.
        assert abs(estimate - exact) / exact < 0.10, (p, exact, estimate)


def test_buckets_are_maintained_in_both_modes():
    exact = _digest(exact_limit=512)
    bucketed = _digest(exact_limit=4)
    for value in [5, 50, 500, 5000, 50000, 500000]:
        exact.observe(value)
        bucketed.observe(value)
    assert exact.exact_mode and not bucketed.exact_mode
    # The Prometheus-facing bucket shape never depends on the mode.
    assert exact.buckets() == bucketed.buckets()
    assert sum(count for _, count in exact.buckets()) == 6


def test_min_max_mean_track_every_observation():
    hist = _digest(exact_limit=2)
    for value in (8, 2, 14):
        hist.observe(value)
    assert (hist.min, hist.max) == (2, 14)
    assert hist.mean == pytest.approx(8.0)


# -- the declarative table ---------------------------------------------------

def test_default_table_loads_and_covers_the_batch_series():
    targets = load_slo_table(DEFAULT_SLO_TABLE)
    assert BATCH_OPERATION in targets
    assert targets["EALLOC"].percentile in QUANTILES
    assert targets["EALLOC"].error_budget == pytest.approx(0.001)


@pytest.mark.parametrize("row,message", [
    ({"operation": "X", "percentile": "p42", "threshold": 1,
      "objective": 0.9}, "percentile"),
    ({"operation": "X", "percentile": "p99", "threshold": 1,
      "objective": 0.0}, "objective"),
    ({"operation": "X", "percentile": "p99", "threshold": 0,
      "objective": 0.9}, "threshold"),
])
def test_bad_rows_are_rejected(row, message):
    with pytest.raises(ValueError, match=message):
        load_slo_table([row])


def test_duplicate_operations_are_rejected():
    row = {"operation": "X", "percentile": "p99", "threshold": 1,
           "objective": 0.9}
    with pytest.raises(ValueError, match="duplicate"):
        load_slo_table([row, dict(row)])


# -- the engine --------------------------------------------------------------

def _engine(table):
    return SLOEngine(MetricsRegistry(), table=table)


def test_compliant_operation_reports_zero_burn():
    engine = _engine([{"operation": "OP", "percentile": "p99",
                       "threshold": 100.0, "objective": 0.99}])
    for _ in range(50):
        engine.record("OP", 10)
    (row,) = engine.report()
    assert row["operation"] == "OP"
    assert row["compliant"] is True
    assert row["burn_rate"] == 0.0
    assert row["attained"] == 10


def test_violations_burn_the_error_budget():
    engine = _engine([{"operation": "OP", "percentile": "p50",
                       "threshold": 100.0, "objective": 0.90}])
    # 80 good, 20 over threshold: violating fraction 0.2, budget 0.1.
    for _ in range(80):
        engine.record("OP", 10)
    for _ in range(20):
        engine.record("OP", 500)
    (row,) = engine.report()
    assert row["burn_rate"] == pytest.approx(2.0)
    assert row["compliant"] is False


def test_zero_budget_objective_burns_infinitely_on_one_violation():
    engine = _engine([{"operation": "OP", "percentile": "p50",
                       "threshold": 100.0, "objective": 1.0}])
    engine.record("OP", 10)
    engine.record("OP", 500)
    (row,) = engine.report()
    assert row["burn_rate"] == float("inf")


def test_untargeted_operations_still_report_quantiles():
    engine = _engine([])
    engine.record("FREEFORM", 42)
    (row,) = engine.report()
    assert row["p50"] == 42
    assert row["threshold"] is None
    assert row["compliant"] is None


def test_report_sorts_targeted_operations_first():
    engine = _engine([{"operation": "ZZZ", "percentile": "p99",
                       "threshold": 100.0, "objective": 0.99}])
    engine.record("AAA", 1)
    engine.record("ZZZ", 1)
    assert [r["operation"] for r in engine.report()] == ["ZZZ", "AAA"]


def test_digest_and_operations_surface_the_series():
    engine = _engine([])
    assert engine.operations() == []
    assert engine.digest("OP") is None
    engine.record("OP", 7)
    assert engine.operations() == ["OP"]
    assert engine.digest("OP").count == 1
