"""The serve load driver: determinism, schema, starvation, CLI.

``python -m repro serve`` is a CI surface (the serve smoke job uploads
its SLO artifact and trusts its exit code), so this file pins the
contract: one config always produces one report document, the document
carries every section the job reads, and the starvation detector fails
the process under pinned backpressure — and only then.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.serve import CHAOS_MODES, SCHEMA, ServeConfig, \
    render_report, run_serve
from repro.obs.cli import main

QUICK = dict(shards=2, workers=2, ops=60, seed=0xD0C)


def test_same_config_same_report():
    """Bit-identical JSON documents from back-to-back runs."""
    first = run_serve(ServeConfig(**QUICK))
    second = run_serve(ServeConfig(**QUICK))
    assert json.dumps(first, default=str) == \
        json.dumps(second, default=str)


def test_report_schema_and_sections():
    """Every section the CI job and the render path consume is present."""
    report = run_serve(ServeConfig(**QUICK))
    assert report["schema"] == SCHEMA
    assert report["config"]["shards"] == 2
    totals = report["totals"]
    assert totals["steps"] == QUICK["ops"]
    assert totals["completed"] + totals["degraded"] >= totals["steps"]
    assert totals["requests_served"] > 0
    assert report["slo"], "a serve run must record SLO samples"
    for row in report["slo"]:
        assert {"operation", "count", "p50", "p99"} <= set(row)
    assert report["attribution"], "per-enclave attribution missing"
    shards = report["shards"]
    assert shards["num_shards"] == 2
    assert sum(r["served"] for r in shards["per_shard"]) == \
        totals["requests_served"]
    assert not report["starvation"]["starved"]
    rendered = render_report(report)
    assert "SLO report under serve load" in rendered
    assert "Per-shard attribution" in rendered


def test_single_shard_report_has_same_schema():
    """shards=1 synthesizes the per-shard section; one schema for all."""
    report = run_serve(ServeConfig(shards=1, workers=2, ops=40))
    shards = report["shards"]
    assert shards["num_shards"] == 1
    assert len(shards["per_shard"]) == 1
    assert shards["per_shard"][0]["served"] == \
        report["totals"]["requests_served"]
    assert shards["transfers_committed"] == 0


def test_queuefull_chaos_starves():
    """Pinned backpressure: zero completed ops, starvation flagged."""
    report = run_serve(ServeConfig(shards=2, workers=2, ops=15,
                                   chaos="queuefull"))
    starvation = report["starvation"]
    assert starvation["starved"]
    assert starvation["completed_ops"] == 0
    assert starvation["degraded_ops"] > 0
    assert "STARVATION" in render_report(report)


def test_config_validation():
    """Bad knobs are refused at construction, not mid-run."""
    with pytest.raises(ValueError):
        ServeConfig(shards=0)
    with pytest.raises(ValueError):
        ServeConfig(workers=0)
    with pytest.raises(ValueError):
        ServeConfig(ops=0)
    with pytest.raises(ValueError):
        ServeConfig(chaos="blizzard")
    assert "queuefull" in CHAOS_MODES


def test_cli_serve_smoke(tmp_path, capsys):
    """The subcommand: exit 0, artifact written, JSON mode parses."""
    out = tmp_path / "SERVE_SLO.json"
    assert main(["serve", "--shards", "2", "--workers", "2",
                 "--ops", "40", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["schema"] == SCHEMA
    capsys.readouterr()

    assert main(["serve", "--shards", "2", "--workers", "2",
                 "--ops", "40", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["schema"] == SCHEMA


def test_cli_serve_starvation_exit_codes(capsys):
    """Starved runs exit 1 unless the gate is explicitly waived."""
    args = ["serve", "--shards", "2", "--workers", "2", "--ops", "10",
            "--chaos", "queuefull"]
    assert main(args) == 1
    capsys.readouterr()
    assert main([*args, "--no-fail-on-starvation"]) == 0
    capsys.readouterr()


def test_cli_serve_rejects_bad_config(capsys):
    """Config errors are a usage failure (exit 2), not a traceback.

    Sixteen shards' pools need more CS memory than the default 64 MB
    holds, so that platform cannot boot.
    """
    for shards in ("0", "16"):
        assert main(["serve", "--shards", shards]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
