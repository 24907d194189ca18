"""Export surfaces for the metrics registry.

Two formats:

* :func:`render_prometheus` — the text exposition format Prometheus
  scrapes (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/
  ``_count`` series for histograms with cumulative ``le`` buckets).
  Label values and HELP text are escaped per the exposition format:
  ``\\`` -> ``\\\\`` and newline -> ``\\n`` in both, plus ``"`` ->
  ``\\"`` inside label values — a hostile enclave name cannot corrupt
  the scrape.
* :func:`render_json` — one JSON document with every instrument, the
  histogram percentiles pre-computed, and the federated per-subsystem
  ``*Stats`` snapshot — the machine-readable twin of
  ``HyperTEESystem.stats_summary()``.

Every :class:`~repro.obs.metrics.Histogram` exposes the same
``_bucket`` series whether or not it still holds exact samples (the SLO
digests' exact mode is a query-side detail scrapers do not see); its
JSON twin carries ``exact`` and the p50/p95/p99/p999 quantiles.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format spec."""
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


def _escape_help(text: str) -> str:
    """Escape HELP text (backslash and newline only, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_str(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(str(v))}"'
                     for k, v in merged.items())
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in family.samples():
            if isinstance(child, (Counter, Gauge)):
                lines.append(f"{family.name}{_label_str(labels)} "
                             f"{_fmt_value(child.value)}")
            elif isinstance(child, Histogram):
                cumulative = 0
                for upper, count in child.buckets():
                    cumulative += count
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_label_str(labels, {'le': _fmt_value(upper)})} "
                        f"{cumulative}")
                lines.append(f"{family.name}_bucket"
                             f"{_label_str(labels, {'le': '+Inf'})} "
                             f"{child.count}")
                lines.append(f"{family.name}_sum{_label_str(labels)} "
                             f"{_fmt_value(child.sum)}")
                lines.append(f"{family.name}_count{_label_str(labels)} "
                             f"{child.count}")
    return "\n".join(lines) + "\n"


def _instrument_json(child: Any) -> Any:
    if isinstance(child, (Counter, Gauge)):
        return child.value
    if isinstance(child, Histogram):
        if not child.count:
            return {"count": 0}
        doc = {
            "count": child.count,
            "sum": child.sum,
            "min": child.min,
            "max": child.max,
            "mean": child.mean,
            "exact": child.exact_mode,
            "buckets": child.buckets(),
        }
        doc.update(child.quantiles())
        return doc
    raise TypeError(f"unknown instrument {type(child).__name__}")


def registry_as_dict(registry: MetricsRegistry) -> dict:
    """The registry as one nested dict (instruments + federated stats)."""
    metrics: dict[str, Any] = {}
    for family in registry.families():
        series = []
        for labels, child in family.samples():
            series.append({"labels": labels,
                           "value": _instrument_json(child)})
        metrics[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "series": series,
        }
    return {"metrics": metrics,
            "subsystems": registry.federated_snapshot()}


def render_json(registry: MetricsRegistry, indent: int = 1) -> str:
    """The registry dict serialized as JSON."""
    return json.dumps(registry_as_dict(registry), indent=indent, default=str)
