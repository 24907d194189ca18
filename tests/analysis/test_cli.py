"""The ``python -m repro lint`` surface and the subcommand inventory."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import COMMANDS, build_parser, main

from .conftest import FIXTURES

BAD = str(FIXTURES / "tee001_bad" / "repro")
GOOD = str(FIXTURES / "tee001_good" / "repro")


# -- subcommand inventory (the --help bugfix) --------------------------------

def test_commands_constant_matches_the_parser():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if hasattr(a, "choices") and a.choices)
    assert tuple(sub.choices) == COMMANDS == \
        ("regen", "metrics", "trace", "slo", "flightrec", "serve", "lint",
         "sanitize")


def test_help_lists_every_subcommand_with_help_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        assert command in out
    assert "teelint" in out  # the one-line lint help is present


def test_lint_dispatches_as_a_subcommand_not_an_artifact(capsys):
    # Regression: main() used to know only regen/metrics/trace/bench and
    # would rewrite ``lint`` into ``regen lint`` (an unknown artifact).
    assert main(["lint", GOOD, "--no-baseline"]) == 0
    assert "teelint" in capsys.readouterr().out


def test_bare_artifact_names_still_regenerate(capsys):
    # The back-compat path must survive the inventory change.
    assert main(["table4"]) == 0
    assert "Table IV" in capsys.readouterr().out


@pytest.mark.parametrize("token", ["bench", "metric"])
def test_unknown_first_token_names_commands_and_artifacts(token, capsys):
    # A retired command or a typo is neither a subcommand nor an artifact
    # list for ``regen``: the error must point at both inventories.
    with pytest.raises(SystemExit) as exc:
        main([token])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unknown command or artifact {token!r}" in err
    assert all(command in err for command in COMMANDS)
    assert "table4" in err


# -- exit codes --------------------------------------------------------------

def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", GOOD, "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_violations_exit_one(capsys):
    assert main(["lint", BAD, "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "TEE001" in out


def test_lint_missing_path_exits_two(capsys):
    assert main(["lint", "/nonexistent/tree"]) == 2


# TEE009-TEE011 are retired: their IDs stay unassigned, so old
# baselines and SARIF uploads never point at a different rule.
@pytest.mark.parametrize("rule", ["TEE999", "TEE009", "TEE010", "TEE011"])
def test_lint_unknown_rule_exits_two(rule, capsys):
    assert main(["lint", GOOD, "--rules", rule]) == 2
    assert f"unknown rule ids: ['{rule}']" in capsys.readouterr().err


def test_warning_only_findings_do_not_block(capsys):
    bad002 = str(FIXTURES / "tee002_bad" / "repro")
    # TEE002's import-of-random finding alone is a warning: exit 0.
    # (The errors in the same fixture are what block; filter them away
    # by scanning with a rule that yields nothing for this tree.)
    assert main(["lint", bad002, "--no-baseline", "--rules", "TEE001"]) == 0


# -- formats -----------------------------------------------------------------

def test_json_format_is_valid_and_complete(capsys):
    assert main(["lint", BAD, "--no-baseline", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 3
    assert payload["ok"] is False
    assert payload["counts"]["error"] == len(payload["findings"])
    first = payload["findings"][0]
    assert {"rule", "severity", "path", "line", "message",
            "fingerprint"} <= set(first)


def test_github_format_emits_workflow_commands(capsys):
    assert main(["lint", BAD, "--no-baseline", "--format", "github"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    annotations = [ln for ln in lines if ln.startswith("::")]
    assert annotations, "no workflow commands emitted"
    assert all(ln.startswith("::error file=repro/") for ln in annotations)
    assert any("title=teelint TEE001" in ln for ln in annotations)


def test_json_out_writes_the_artifact(tmp_path, capsys):
    out = tmp_path / "findings.json"
    assert main(["lint", GOOD, "--no-baseline",
                 "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_sarif_format_emits_valid_runs(capsys):
    assert main(["lint", BAD, "--no-baseline", "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    (run,) = payload["runs"]
    assert run["tool"]["driver"]["name"] == "teelint"
    assert all(r["ruleId"] == "TEE001" for r in run["results"])
    assert all("teelintFingerprint/v1" in r["partialFingerprints"]
               for r in run["results"])


def test_sarif_out_writes_the_artifact_with_repo_relative_uris(
        tmp_path, capsys, monkeypatch):
    # Scanned from the repo root, finding paths (repro/...) gain the
    # shared parent prefix so code scanning resolves them.
    from .conftest import REPO_ROOT
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "teelint.sarif"
    assert main(["lint", "src/repro/eval", "--no-baseline",
                 "--rules", "TEE001", "--sarif-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["runs"][0]["results"] == []
    capsys.readouterr()

    monkeypatch.chdir(FIXTURES / "tee001_bad")
    assert main(["lint", "repro", "--no-baseline",
                 "--sarif-out", str(out)]) == 1
    payload = json.loads(out.read_text())
    uris = [r["locations"][0]["physicalLocation"]["artifactLocation"]
            ["uri"] for r in payload["runs"][0]["results"]]
    # Scan root == cwd child: no prefix to add.
    assert uris and all(u.startswith("repro/") for u in uris)


def test_sarif_base_path_resolution():
    from pathlib import Path

    from repro.analysis.cli import sarif_base_path
    from .conftest import REPO_ROOT

    import os
    cwd = Path.cwd()
    try:
        os.chdir(REPO_ROOT)
        assert sarif_base_path([Path("src/repro")]) == "src"
        assert sarif_base_path([Path("src/repro/eval"),
                                Path("src/repro/cs")]) == "src/repro"
        # Mixed parents or paths outside the cwd: emit as-is.
        assert sarif_base_path([Path("src/repro"), Path("tests")]) == ""
        assert sarif_base_path([Path("/")]) == ""
    finally:
        os.chdir(cwd)


# -- baseline workflow -------------------------------------------------------

def test_write_baseline_then_rerun_is_clean(tmp_path, capsys):
    baseline = tmp_path / "teelint.baseline.json"
    assert main(["lint", BAD, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert baseline.exists()
    capsys.readouterr()

    assert main(["lint", BAD, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
    assert "baselined" in out


def test_write_baseline_again_keeps_the_matched_entries_reasons(tmp_path,
                                                                capsys):
    """Matched entries keep their reasons, stale ones go, live ones join."""
    baseline = tmp_path / "teelint.baseline.json"
    args = ["lint", BAD, "--baseline", str(baseline), "--write-baseline"]
    assert main(args) == 0
    entries = json.loads(baseline.read_text())["findings"]
    assert len(entries) > 1
    for number, entry in enumerate(entries):
        entry["reason"] = f"documented exception number {number}"
    unlisted = entries.pop()  # its finding is live on the next run
    stale = dict(entries[0], fingerprint="0" * 16, key="no-such-finding")
    baseline.write_text(json.dumps({"findings": entries + [stale]}))

    assert main(args) == 0
    rewritten = json.loads(baseline.read_text())["findings"]
    placeholder = dict(unlisted, reason="baselined pre-existing finding")
    by_fingerprint = {entry["fingerprint"]: entry
                      for entry in entries + [placeholder]}
    assert {entry["fingerprint"]: entry for entry in rewritten} \
        == by_fingerprint
    assert f"wrote {len(by_fingerprint)} baseline entries" \
        in capsys.readouterr().out


def test_json_out_composes_with_write_baseline(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    artifact = tmp_path / "out.json"
    assert main(["lint", BAD, "--baseline", str(baseline),
                 "--write-baseline", "--json-out", str(artifact)]) == 0
    assert baseline.exists()
    payload = json.loads(artifact.read_text())
    # The artifact captures the findings as they were accepted.
    assert payload["findings"] and payload["ok"] is False


def test_write_baseline_to_an_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "b.json"
    assert main(["lint", BAD, "--baseline", str(target),
                 "--write-baseline"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert "wrote" not in captured.out
    assert not target.exists()


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({"findings": [{"rule": "TEE001", "path": "repro/x.py",
                              "key": "k", "reason": "r"}]}),
    None,
], ids=["invalid-json", "entry-without-fingerprint", "missing-file"])
def test_bad_baseline_file_is_a_usage_error(content, tmp_path, capsys):
    baseline = tmp_path / "b.json"
    if content is not None:
        baseline.write_text(content)
    assert main(["lint", GOOD, "--baseline", str(baseline)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(baseline) in err
