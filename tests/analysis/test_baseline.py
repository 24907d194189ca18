"""Fingerprints, inline suppressions, and the baseline file lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry, line_suppresses
from repro.analysis.findings import Finding, Severity


def make_finding(rule="TEE001", path="repro/cs/x.py", line=10,
                 key="a->b") -> Finding:
    return Finding(rule=rule, severity=Severity.ERROR, path=path,
                   line=line, key=key, message="m")


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_survives_line_moves():
    # Editing the file must not invalidate the baseline: the fingerprint
    # hashes rule|path|key, never the line number.
    assert make_finding(line=10).fingerprint == \
        make_finding(line=99).fingerprint


@pytest.mark.parametrize("change", [
    {"rule": "TEE002"}, {"path": "repro/cs/y.py"}, {"key": "a->c"},
])
def test_fingerprint_changes_with_identity(change):
    assert make_finding().fingerprint != make_finding(**change).fingerprint


# -- inline suppressions -----------------------------------------------------

@pytest.mark.parametrize("line,rule,expected", [
    ("import random  # teelint: disable", "TEE002", True),
    ("import random  # teelint: disable=TEE002", "TEE002", True),
    ("import random  # teelint: disable=TEE001,TEE002", "TEE002", True),
    ("import random  # teelint: disable=TEE001", "TEE002", False),
    ("import random  # noqa", "TEE002", False),
    ("import random", "TEE002", False),
])
def test_line_suppresses(line, rule, expected):
    assert line_suppresses(line, rule) is expected


# -- the baseline file -------------------------------------------------------

def test_round_trip_and_matching(tmp_path):
    finding = make_finding()
    baseline = Baseline.from_findings([finding], reason="documented why")
    path = tmp_path / "teelint.baseline.json"
    baseline.save(path)

    loaded = Baseline.load(path)
    assert len(loaded) == 1
    assert loaded.matches(finding)
    assert not loaded.matches(make_finding(key="other"))
    assert loaded.entries[0].reason == "documented why"


def test_missing_file_is_an_empty_baseline(tmp_path):
    baseline = Baseline.load(tmp_path / "nope.json")
    assert len(baseline) == 0
    assert not baseline.matches(make_finding())


def test_stale_entries_are_reported():
    live = make_finding()
    gone = BaselineEntry(fingerprint="feedfacecafebeef", rule="TEE003",
                         path="repro/old.py", key="dead:X", reason="r")
    baseline = Baseline(
        Baseline.from_findings([live]).entries + [gone])
    assert baseline.stale_entries([live]) == [gone]
    assert baseline.stale_entries([]) != []


def test_from_findings_dedupes_shared_fingerprints():
    # Two findings with the same rule/path/key (e.g. the same literal on
    # two lines) share one fingerprint and one baseline entry.
    baseline = Baseline.from_findings(
        [make_finding(line=1), make_finding(line=2)])
    assert len(baseline) == 1


def test_saved_file_is_sorted_and_documented(tmp_path):
    baseline = Baseline.from_findings([
        make_finding(path="repro/z.py", key="k"),
        make_finding(path="repro/a.py", key="k"),
    ])
    path = tmp_path / "teelint.baseline.json"
    baseline.save(path)
    data = json.loads(path.read_text())
    assert "reason" in data["comment"] or "exception" in data["comment"]
    assert [e["path"] for e in data["findings"]] == \
        ["repro/a.py", "repro/z.py"]
    assert path.read_text().endswith("\n")


def test_unicode_reason_round_trips(tmp_path):
    # Reasons are prose and prose has accents/arrows/CJK; the file is
    # UTF-8 end to end.
    reason = "héritage: flux café → 日本語 ≥3×, non-ASCII survives"
    baseline = Baseline.from_findings([make_finding()], reason=reason)
    path = tmp_path / "teelint.baseline.json"
    baseline.save(path)
    assert Baseline.load(path).entries[0].reason == reason


@pytest.mark.parametrize("line,rule,expected", [
    ("x = 1  # teelint: disable=TEE004, TEE008", "TEE008", True),
    ("x = 1  # teelint: disable=TEE004 ,TEE008", "TEE004", True),
    ("x = 1  # teelint: disable=TEE004,TEE006,TEE008", "TEE006", True),
    ("x = 1  # teelint: disable=TEE004, TEE008", "TEE006", False),
])
def test_multi_id_disable_parsing(line, rule, expected):
    assert line_suppresses(line, rule) is expected
