"""CLI coverage for the observability surfaces: slo, flightrec, and
metrics/trace exit codes."""

from __future__ import annotations

import json

import pytest

from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.obs import cli
from repro.obs.slo import QUANTILES


# -- slo ---------------------------------------------------------------------

def test_slo_table_leads_with_targets_and_exits_zero(capsys):
    assert cli.main(["slo"]) == 0
    out = capsys.readouterr().out
    assert "SLO report" in out
    assert "EALLOC" in out
    assert "p99<=" in out


def test_slo_json_rows_carry_the_budget_schema(capsys):
    assert cli.main(["slo", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows, "an instrumented run must produce SLO rows"
    targeted = [r for r in rows if r["threshold"] is not None]
    assert targeted, "the default table must match recorded operations"
    for row in rows:
        assert {"operation", "count", "mean", "exact", "percentile",
                "threshold", "objective", "unit", "attained", "compliant",
                "error_budget", "burn_rate", *QUANTILES} <= set(row)
    # The quickstart scenario is inside its SLOs: a red default would
    # make every fresh checkout look broken.
    assert all(r["compliant"] for r in targeted)


def test_slo_exits_nonzero_when_nothing_was_recorded(monkeypatch, capsys):
    idle = HyperTEE(SystemConfig(seed=3))
    idle.system.enable_observability()
    monkeypatch.setattr(cli, "run_instrumented_scenario",
                        lambda seed=0: idle)
    assert cli.main(["slo"]) == 1
    assert "no SLO samples" in capsys.readouterr().err


# -- flightrec ---------------------------------------------------------------

def test_flightrec_status_reports_the_ring(capsys):
    assert cli.main(["flightrec"]) == 0
    out = capsys.readouterr().out
    assert "flight recorder:" in out
    assert "0 trips" in out  # a clean scenario never trips


def test_flightrec_dump_writes_a_versioned_document(tmp_path, capsys):
    out_path = tmp_path / "box.json"
    assert cli.main(["flightrec", "dump", "--out", str(out_path)]) == 0
    dump = json.loads(out_path.read_text())
    assert dump["schema"].startswith("hypertee.flightrec/")
    assert dump["reason"] == "manual-dump"
    kinds = {e["kind"] for e in dump["events"]}
    assert "invocation" in kinds
    assert str(out_path) in capsys.readouterr().out


def test_flightrec_dump_unwritable_path_exits_one(tmp_path, capsys):
    assert cli.main(["flightrec", "dump",
                     "--out", str(tmp_path / "no" / "box.json")]) == 1
    assert "error:" in capsys.readouterr().err


# -- metrics exit codes ------------------------------------------------------

def test_metrics_exits_nonzero_on_an_empty_registry(monkeypatch, capsys):
    idle = HyperTEE(SystemConfig(seed=3))
    idle.system.enable_observability()
    monkeypatch.setattr(cli, "run_instrumented_scenario",
                        lambda seed=0: idle)
    assert cli.main(["metrics"]) == 1
    err = capsys.readouterr().err
    assert "no primitive samples" in err


def test_metrics_formats_still_exit_zero(capsys):
    assert cli.main(["metrics", "--format", "prom"]) == 0
    assert "# TYPE" in capsys.readouterr().out
    assert cli.main(["metrics", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "hypertee_slo_operation_latency" in doc["metrics"]


def test_trace_unwritable_path_exits_one(tmp_path, capsys):
    assert cli.main(["trace", "--out",
                     str(tmp_path / "no" / "trace.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["slo", "--seed", "7"],
                                  ["flightrec", "--seed", "7"]])
def test_new_commands_accept_a_seed(argv):
    assert cli.main(argv) == 0
