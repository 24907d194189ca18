"""Golden pin for every number the evaluation prints, beside Table IV.

``tests/golden/paper.json`` holds the full-precision values that the data
functions of Tables II, III and V and Figs 6–12 return — the functions
``python -m repro`` renders — so any drift shows as a diff even below
the printed precision. Three artifacts are pinned elsewhere, once each:
Table IV by ``table4.json`` (tests/eval/test_golden_table4.py), Table VI
cell for cell by tests/attacks/test_harness.py, and the TCB table, which
counts source lines, is bounded by tests/eval/test_tcb.py.

Legitimate model changes refresh the file with::

    python -m pytest tests/eval/test_golden_paper.py --update-golden

then review the JSON diff like any other code change.
"""

from __future__ import annotations

from repro.eval import regenerate as regen
from repro.eval.area import table5_rows

#: Float cells are pinned to 12 decimal places, as in table4.json.
_PLACES = 12


def _jsonable(value):
    """Round floats and stringify keys, as the JSON document holds them."""
    if isinstance(value, float):
        return round(value, _PLACES)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _table5() -> dict:
    return {row.cs_cores: {"cs_area": row.cs_area,
                           "ems_cores": row.ems_cores,
                           "ems_name": row.ems_name,
                           "ems_area": row.ems_area,
                           "overhead_pct": row.overhead_pct}
            for row in table5_rows()}


DATA_FUNCTIONS = {
    "table2": regen.table2_rows, "table3": regen.table3_rows,
    "table5": _table5, "fig6": regen.fig6_rows, "fig7": regen.fig7_rows,
    "fig8a": regen.fig8a_rows, "fig8b": regen.fig8b_rows,
    "fig9": regen.fig9_rows, "fig10": regen.fig10_rows,
    "fig11": regen.fig11_rows, "fig12": regen.fig12_rows,
}


def test_paper_numbers_match_golden(golden):
    golden("paper", {name: _jsonable(data())
                     for name, data in DATA_FUNCTIONS.items()})
