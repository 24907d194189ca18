"""Golden pin for Table IV: exact values, not just paper-shape bands.

tests/eval/test_paper_figures.py asserts the *shape* (each cell lands
within the paper's tolerance). This test pins the model's exact output
in ``tests/golden/table4.json`` so an accidental calibration or
cycle-model drift shows up as a diff even when it stays inside the
bands — e.g. a batching change that should leave the scalar paper
numbers bit-unchanged. The other artifacts' numbers are pinned by
``tests/golden/paper.json`` (tests/eval/test_golden_paper.py).

Legitimate model changes refresh the file with::

    python -m pytest tests/eval/test_golden_table4.py --update-golden

then review the JSON diff like any other code change.
"""

from __future__ import annotations

from repro.eval.regenerate import table4_rows

#: Float cells are pinned to 12 decimal places: far below any physical
#: meaning, far above float noise, and stable across platforms.
_PLACES = 12


def _current() -> dict:
    return {
        "table": "IV",
        "columns": ["noncrypto_all", "noncrypto_emeas",
                    "crypto_all", "crypto_emeas"],
        "rows": {name: [round(value, _PLACES) for value in row]
                 for name, row in sorted(table4_rows().items())},
    }


def test_table4_matches_golden(golden):
    golden("table4", _current())
