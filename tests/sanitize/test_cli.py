"""``python -m repro sanitize`` and ``serve --sanitize``: exit codes,
diagnostics, report artifacts, and the COMMANDS-tuple lockstep."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import COMMANDS, build_parser, main


def test_sanitize_is_a_registered_subcommand():
    # main() routes by COMMANDS; the parser must know every entry.
    parser = build_parser()
    args = parser.parse_args(["sanitize", "--check"])
    assert args.check is True
    assert "sanitize" in COMMANDS


def test_check_runs_clean(capsys):
    assert main(["sanitize", "--check"]) == 0
    out = capsys.readouterr().out
    assert "teesan lifecycle: clean" in out
    assert "teesan shard-transfer: clean" in out


def test_check_writes_the_report_artifact(tmp_path, capsys):
    path = tmp_path / "teesan.json"
    assert main(["sanitize", "--check", "--report", str(path)]) == 0
    document = json.loads(path.read_text())
    assert document["schema"] == "hypertee.teesan.run/1"
    assert document["ok"] is True
    assert set(document["scenarios"]) == {"lifecycle", "shard-transfer"}
    for scenario in document["scenarios"].values():
        assert scenario["schema"] == "hypertee.teesan/1"
        assert scenario["violations"] == []


def test_check_json_output(capsys):
    assert main(["sanitize", "--check", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True


@pytest.mark.parametrize("name,needle", [
    ("secret", "ERROR: TeeSan SECRET-LEAK"),
    ("own", "ERROR: TeeSan DOUBLE-GRANT"),
])
def test_seeded_violations_exit_1_with_diagnostic(name, needle, capsys):
    assert main(["sanitize", "--seed-violation", name]) == 1
    assert needle in capsys.readouterr().out


def test_sanitizer_subset_selection(capsys):
    assert main(["sanitize", "--check", "--sanitize", "secret"]) == 0
    out = capsys.readouterr().out
    assert "lifecycle: clean" in out


def test_bad_sanitizer_name_is_rejected(capsys):
    assert main(["sanitize", "--check", "--sanitize", "bogus"]) == 2
    assert "unknown sanitizer" in capsys.readouterr().err


def test_serve_with_sanitizers_attached(capsys):
    assert main(["serve", "--ops", "40", "--shards", "2",
                 "--workers", "2", "--sanitize", "secret,own",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["sanitize"] == ["secret", "own"]
    assert report["sanitize"]["ok"] is True
    assert report["sanitize"]["stats"]["events"] > 0


def test_serve_without_sanitizers_has_no_section(capsys):
    assert main(["serve", "--ops", "24", "--shards", "1",
                 "--workers", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "sanitize" not in report


def test_serve_rejects_bad_sanitizer_list(capsys):
    assert main(["serve", "--ops", "8", "--sanitize", "nope"]) == 2
    assert "unknown sanitizer" in capsys.readouterr().err

