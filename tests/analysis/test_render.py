"""Renderer edge cases not reached through the CLI tests."""

from __future__ import annotations

from repro.analysis.baseline import BaselineEntry
from repro.analysis.cli import default_baseline_path, default_scan_path
from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding, Severity
from repro.analysis.render import (
    render_github,
    render_human,
    render_json,
    render_sarif,
)

from .conftest import REPO_ROOT


def result_with(findings=(), stale=()):
    return LintResult(findings=list(findings), baselined=[], suppressed=[],
                      stale_baseline=list(stale), modules_scanned=3)


STALE = BaselineEntry(fingerprint="ab" * 8, rule="TEE003",
                      path="repro/gone.py", key="dead:X", reason="r")


def test_human_report_shows_stale_baseline_entries():
    out = render_human(result_with(stale=[STALE]))
    assert "stale baseline entry: TEE003 repro/gone.py" in out
    assert "drop it" in out


def test_human_report_groups_findings_by_file():
    findings = [
        Finding(rule="TEE002", severity=Severity.ERROR, path="repro/a.py",
                line=3, key="k1", message="first", fix_hint="hint one"),
        Finding(rule="TEE002", severity=Severity.WARNING, path="repro/a.py",
                line=9, key="k2", message="second"),
        Finding(rule="TEE005", severity=Severity.INFO, path="repro/b.py",
                line=1, key="k3", message="third"),
    ]
    out = render_human(result_with(findings))
    # One header per file, icons per severity, hints only when present.
    assert out.index("repro/a.py") < out.index("repro/b.py")
    assert "E TEE002  first" in out
    assert "W TEE002  second" in out
    assert "I TEE005  third" in out
    assert out.count("fix:") == 1


def test_json_reports_stale_entries():
    import json
    payload = json.loads(render_json(result_with(stale=[STALE])))
    assert payload["stale_baseline"][0]["key"] == "dead:X"


def test_github_escapes_newlines_and_percent():
    finding = Finding(rule="TEE001", severity=Severity.ERROR,
                      path="repro/a.py", line=2, key="k",
                      message="50% broken\nsecond line")
    out = render_github(result_with([finding]))
    assert "50%25 broken%0Asecond line" in out
    assert "\nsecond line" not in out.splitlines()[0]


def test_default_paths_resolve_to_this_checkout():
    scan = default_scan_path()
    assert scan.name == "repro"
    assert (scan / "analysis").is_dir()
    assert default_baseline_path() == REPO_ROOT / "teelint.baseline.json"


def test_default_baseline_prefers_cwd_copy(tmp_path, monkeypatch):
    local = tmp_path / "teelint.baseline.json"
    local.write_text("{}")
    monkeypatch.chdir(tmp_path)
    assert default_baseline_path() == local


# -- GitHub property escaping ------------------------------------------------

def test_github_escapes_colons_and_commas_in_properties():
    # ``:`` would terminate the workflow command and ``,`` the property
    # list; both must be %-escaped in file= and title= (but line=/col=
    # are integers and the message payload keeps literal colons).
    finding = Finding(rule="TEE004", severity=Severity.ERROR,
                      path="repro/odd,name:v2.py", line=7, key="k",
                      message="flows into sink: metric label")
    out = render_github(result_with([finding])).splitlines()[0]
    assert "file=repro/odd%2Cname%3Av2.py," in out
    assert "title=teelint TEE004::" in out
    assert out.endswith("flows into sink: metric label")


def test_github_property_escaping_composes_with_percent():
    finding = Finding(rule="TEE001", severity=Severity.ERROR,
                      path="repro/50%,x.py", line=1, key="k", message="m")
    out = render_github(result_with([finding]))
    assert "file=repro/50%25%2Cx.py," in out


# -- SARIF -------------------------------------------------------------------

SARIF_FINDINGS = [
    Finding(rule="TEE006", severity=Severity.ERROR, path="repro/a.py",
            line=7, col=4, key="typestate:f:e.exit:MEASURED",
            message="e.exit in f() while the enclave is MEASURED",
            fix_hint="enter the enclave first"),
    Finding(rule="TEE002", severity=Severity.WARNING, path="repro/b.py",
            line=0, key="import:random", message="imports random"),
]


def test_sarif_shape_levels_and_fingerprints():
    import json
    payload = json.loads(render_sarif(result_with(SARIF_FINDINGS)))
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    (run,) = payload["runs"]
    assert run["tool"]["driver"]["name"] == "teelint"
    # Rules array covers exactly the rules used, sorted, and every
    # result's ruleIndex points back into it.
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == \
        ["TEE002", "TEE006"]
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["TEE006", "TEE002"]
    for result in results:
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
    assert results[0]["level"] == "error"
    assert results[1]["level"] == "warning"
    # Fix hints ride in the message; fingerprints match the baseline's.
    assert results[0]["message"]["text"].endswith(
        "— fix: enter the enclave first")
    assert results[0]["partialFingerprints"]["teelintFingerprint/v1"] \
        == SARIF_FINDINGS[0].fingerprint


def test_sarif_base_path_prefixes_uris_and_clamps_lines():
    import json
    payload = json.loads(render_sarif(result_with(SARIF_FINDINGS),
                                      base_path="src/"))
    locations = [r["locations"][0]["physicalLocation"]
                 for r in payload["runs"][0]["results"]]
    assert locations[0]["artifactLocation"]["uri"] == "src/repro/a.py"
    assert locations[0]["region"] == {"startLine": 7, "startColumn": 5}
    # Module-level findings (line 0) clamp to 1: SARIF lines are 1-based.
    assert locations[1]["region"]["startLine"] == 1


def test_sarif_regions_carry_end_spans_when_the_finding_has_one():
    import json
    spanned = Finding(
        rule="TEE004", severity=Severity.ERROR, path="repro/c.py",
        line=12, col=8, end_line=13, end_col=27,
        key="flow:emit->print", message="key material flows into print")
    payload = json.loads(render_sarif(result_with([spanned])))
    (result,) = payload["runs"][0]["results"]
    region = result["locations"][0]["physicalLocation"]["region"]
    # SARIF columns are 1-based and endColumn is exclusive: ast's
    # 0-based end_col_offset maps to end_col + 1.
    assert region == {"startLine": 12, "startColumn": 9,
                      "endLine": 13, "endColumn": 28}
    # Span-less findings (end_line 0) emit no end keys at all rather
    # than a zero region code scanning would reject.
    payload = json.loads(render_sarif(result_with(SARIF_FINDINGS)))
    region = (payload["runs"][0]["results"][0]["locations"][0]
              ["physicalLocation"]["region"])
    assert "endLine" not in region and "endColumn" not in region


def test_boundary_findings_span_the_whole_import_statement():
    # End-to-end: the TEE001 fixture's finding carries the ast span of
    # the offending import, and the JSON artifact round-trips it.
    import json as _json

    from repro.analysis import run_lint

    from .conftest import FIXTURES
    result = run_lint([FIXTURES / "tee001_bad" / "repro"])
    finding = next(f for f in result.findings if f.rule == "TEE001"
                   and f.line > 0)
    assert finding.end_line >= finding.line > 0
    assert finding.end_col > 0
    entry = _json.loads(render_json(result))["findings"]
    match = next(e for e in entry if e["key"] == finding.key)
    assert (match["end_line"], match["end_col"]) == \
        (finding.end_line, finding.end_col)


def test_sarif_excludes_baselined_and_suppressed():
    import json
    result = result_with([SARIF_FINDINGS[0]])
    result.baselined = [SARIF_FINDINGS[1]]
    payload = json.loads(render_sarif(result))
    (run,) = payload["runs"]
    assert [r["ruleId"] for r in run["results"]] == ["TEE006"]
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["TEE006"]


def test_sarif_rule_descriptions_come_from_the_catalogue():
    import json
    payload = json.loads(render_sarif(result_with([SARIF_FINDINGS[0]])))
    (rule,) = payload["runs"][0]["tool"]["driver"]["rules"]
    from repro.analysis.rules import rule_catalogue
    assert rule["shortDescription"]["text"] == \
        rule_catalogue()["TEE006"]
