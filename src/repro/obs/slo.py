"""The SLO engine: live latency percentiles, targets, error budgets.

The ROADMAP's multi-EMS scale-out work needs "SLO percentiles from
``repro.obs``": a per-operation latency distribution good enough to
answer *is the p99 of EALLOC inside its target, and how much error
budget is left*. This module provides exactly that, out-of-band:

* every operation gets a streaming
  :class:`~repro.obs.metrics.Histogram` digest (exact order statistics
  up to 512 samples, quarter-octave log buckets past that) registered as
  one labelled family in the metrics registry, so the series also rides
  the Prometheus/JSON export surfaces;
* SLO targets come from a **declarative table** (:data:`DEFAULT_SLO_TABLE`,
  or any iterable of rows in the same shape) — operation, target
  percentile, latency threshold, and the objective fraction of requests
  that must meet it;
* :meth:`SLOEngine.report` computes, per targeted operation, the live
  quantiles, compliance, and the error-budget arithmetic: with objective
  ``0.999`` the budget is the ``0.1%`` of requests allowed over
  threshold, and the **burn rate** is the fraction of that budget the
  run has consumed (``1.0`` = exactly at budget, ``>1`` = SLO violated).

Operations are fed by the probe facade (:mod:`repro.obs.probes`): every
Table IV primitive via ``record_invocation`` (so lifecycle, memory, shm,
and attestation primitives each get a live percentile series), batch
envelopes as ``emcall.batch``, and mailbox enqueue->drain residency as
``mailbox.wait`` (measured in probe-event ticks — the model has no
global clock on the mailbox path, so residency counts how many mailbox
events elapsed while queued; on the clean synchronous path this is
exactly 1).

Everything here is registry bookkeeping: no model RNG draws, no modelled
cycle mutation (``tests/obs/test_noninterference.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry

#: The quantile columns every SLO surface reports, in display order.
QUANTILES = ("p50", "p95", "p99", "p999")

#: Operation name for the batched-envelope series.
BATCH_OPERATION = "emcall.batch"

#: Operation name for mailbox enqueue->drain residency.
MAILBOX_WAIT_OPERATION = "mailbox.wait"


@dataclasses.dataclass(frozen=True)
class SLOTarget:
    """One row of the SLO table, validated."""

    operation: str
    #: Which quantile the threshold constrains ("p50"/"p95"/"p99"/"p999").
    percentile: str
    #: Latency bound, in the operation's unit (CS cycles for primitives).
    threshold: float
    #: Fraction of requests that must land at or under the threshold.
    objective: float
    #: Unit label for reports ("cs_cycles" unless stated otherwise).
    unit: str = "cs_cycles"

    @property
    def error_budget(self) -> float:
        """The allowed violating fraction (1 - objective)."""
        return 1.0 - self.objective


#: The default declarative SLO table. Thresholds are generous
#: steady-state bounds calibrated against the quickstart scenario on the
#: modelled cycle costs (eval/calibration.py): a compliant run is the
#: expected state, and a regression that blows a primitive's tail shows
#: up as budget burn, not as flapping. ``unit`` is CS cycles throughout
#: except mailbox.wait (probe-event ticks, see module docstring).
DEFAULT_SLO_TABLE: tuple[dict[str, Any], ...] = (
    {"operation": "ECREATE", "percentile": "p99",
     "threshold": 80_000.0, "objective": 0.999},
    {"operation": "EADD", "percentile": "p99",
     "threshold": 60_000.0, "objective": 0.999},
    {"operation": "EMEAS", "percentile": "p99",
     "threshold": 2_000_000.0, "objective": 0.999},
    {"operation": "EENTER", "percentile": "p99",
     "threshold": 40_000.0, "objective": 0.999},
    {"operation": "EEXIT", "percentile": "p99",
     "threshold": 40_000.0, "objective": 0.999},
    {"operation": "EDESTROY", "percentile": "p99",
     "threshold": 120_000.0, "objective": 0.999},
    {"operation": "EALLOC", "percentile": "p99",
     "threshold": 60_000.0, "objective": 0.999},
    {"operation": "EFREE", "percentile": "p99",
     "threshold": 60_000.0, "objective": 0.999},
    {"operation": "EWB", "percentile": "p99",
     "threshold": 200_000.0, "objective": 0.99},
    {"operation": "EATTEST", "percentile": "p99",
     "threshold": 80_000_000.0, "objective": 0.999},
    {"operation": BATCH_OPERATION, "percentile": "p95",
     "threshold": 400_000.0, "objective": 0.99},
    {"operation": MAILBOX_WAIT_OPERATION, "percentile": "p999",
     "threshold": 16.0, "objective": 0.999, "unit": "events"},
)


def load_slo_table(rows: Iterable[Mapping[str, Any]]) -> dict[str, SLOTarget]:
    """Validate declarative rows into an operation -> target map."""
    targets: dict[str, SLOTarget] = {}
    for row in rows:
        target = SLOTarget(
            operation=str(row["operation"]),
            percentile=str(row["percentile"]),
            threshold=float(row["threshold"]),
            objective=float(row["objective"]),
            unit=str(row.get("unit", "cs_cycles")))
        if target.percentile not in QUANTILES:
            raise ValueError(
                f"SLO row {target.operation!r}: percentile must be one of "
                f"{QUANTILES}, got {target.percentile!r}")
        if not 0.0 < target.objective <= 1.0:
            raise ValueError(
                f"SLO row {target.operation!r}: objective must be in (0, 1]")
        if target.threshold <= 0:
            raise ValueError(
                f"SLO row {target.operation!r}: threshold must be positive")
        if target.operation in targets:
            raise ValueError(
                f"duplicate SLO row for operation {target.operation!r}")
        targets[target.operation] = target
    return targets


class SLOEngine:
    """Per-operation latency digests plus the error-budget arithmetic."""

    def __init__(self, registry: MetricsRegistry,
                 table: Iterable[Mapping[str, Any]] | None = None) -> None:
        self.targets = load_slo_table(
            DEFAULT_SLO_TABLE if table is None else table)
        # Quarter-octave buckets bound the quantile error at ~9%, an order
        # of magnitude tighter than base 2, which is what makes p999 mean
        # something; a run's small series stay exact.
        self._latency = registry.histogram(
            "hypertee_slo_operation_latency",
            "Per-operation latency digest behind the SLO report "
            "(CS cycles for primitives; see docs/observability.md)",
            ("operation",), base=2 ** 0.25, exact_limit=512)
        self._within = registry.counter(
            "hypertee_slo_within_target_total",
            "Samples at or under the operation's SLO threshold",
            ("operation",))

    def record(self, operation: str, value: float) -> None:
        """One completed operation took ``value`` (its unit's) latency."""
        self._latency.labels(operation).observe(value)
        target = self.targets.get(operation)
        if target is not None and value <= target.threshold:
            self._within.labels(operation).inc()

    # -- queries -------------------------------------------------------------

    def operations(self) -> list[str]:
        """Every operation with at least one recorded sample."""
        return [labels["operation"]
                for labels, digest in self._latency.samples()
                if digest.count]

    def digest(self, operation: str):
        """The live quantile digest for one operation (or ``None``)."""
        for labels, digest in self._latency.samples():
            if labels["operation"] == operation and digest.count:
                return digest
        return None

    def report(self) -> list[dict[str, Any]]:
        """One row per recorded operation: quantiles + budget arithmetic.

        Rows for operations without an SLO table entry carry the
        quantiles with ``target`` fields ``None`` — every series is
        visible, targeted or not. Rows are sorted targeted-first, then
        by operation name, so the CLI table leads with the contract.
        """
        rows = []
        for labels, digest in self._latency.samples():
            if not digest.count:
                continue
            operation = labels["operation"]
            row: dict[str, Any] = {"operation": operation,
                                   "count": digest.count,
                                   "mean": digest.mean,
                                   "exact": digest.exact_mode}
            row.update(digest.quantiles())
            target = self.targets.get(operation)
            if target is None:
                row.update({"percentile": None, "threshold": None,
                            "objective": None, "unit": None,
                            "attained": None, "compliant": None,
                            "error_budget": None, "burn_rate": None})
            else:
                attained = row[target.percentile]
                within = self._within.labels(operation).value
                violating = 1.0 - within / digest.count
                budget = target.error_budget
                row.update({
                    "percentile": target.percentile,
                    "threshold": target.threshold,
                    "objective": target.objective,
                    "unit": target.unit,
                    "attained": attained,
                    "compliant": (attained <= target.threshold
                                  and violating <= budget),
                    "error_budget": budget,
                    # Fraction of the budget consumed; with a zero budget
                    # (objective 1.0) any violation burns infinitely.
                    "burn_rate": (violating / budget if budget > 0
                                  else (0.0 if violating == 0 else float("inf"))),
                })
            rows.append(row)
        rows.sort(key=lambda r: (r["threshold"] is None, r["operation"]))
        return rows
