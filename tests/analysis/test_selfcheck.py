"""teelint's most important test: the real tree passes its own rules.

The architectural invariants are only worth enforcing in CI if they
hold *now*. This self-check runs the full catalogue over ``src/repro``
with the checked-in baseline and pins: no live findings, no stale
baseline entries, and every baseline entry carrying a real reason.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.rules import rule_catalogue

from .conftest import BASELINE_PATH


def test_src_repro_is_clean(src_lint):
    formatted = "\n".join(
        f"{f.location()} {f.rule} {f.message}" for f in src_lint.findings)
    assert src_lint.findings == [], \
        f"unbaselined teelint findings in src/repro:\n{formatted}"
    assert src_lint.ok


def test_the_tree_is_actually_scanned(src_lint):
    # Guard against a path typo silently scanning nothing.
    assert src_lint.modules_scanned > 80


def test_baseline_has_no_stale_entries(src_lint):
    assert src_lint.stale_baseline == []


def test_every_baseline_entry_is_documented():
    baseline = Baseline.load(BASELINE_PATH)
    assert len(baseline) > 0  # the one known documented exception
    for entry in baseline.entries:
        assert len(entry.reason) > 20, \
            f"baseline entry {entry.key} needs a real reason"
        assert entry.reason != "baselined pre-existing finding", \
            f"baseline entry {entry.key} still has the placeholder reason"


def test_known_exceptions_are_baselined_not_fixed(src_lint):
    # The one documented exception stays visible as a baselined
    # finding; if it disappears the stale check above will also fire.
    keys = {f.key for f in src_lint.baselined}
    assert keys == {"import:random"}


def test_rule_catalogue_is_complete():
    assert set(rule_catalogue()) == \
        {"TEE001", "TEE002", "TEE003", "TEE004", "TEE005", "TEE006",
         "TEE007", "TEE008", "TEE012"}
