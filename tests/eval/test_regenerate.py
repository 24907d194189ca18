"""The `python -m repro` regeneration CLI: every artifact renders."""

from __future__ import annotations

import pytest

from repro.eval.regenerate import ARTIFACTS, regenerate


def test_all_paper_artifacts_registered():
    assert set(ARTIFACTS) == {
        "table2", "table3", "table4", "table5", "table6", "tcb",
        "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10", "fig11",
        "fig12"}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_single_artifact_renders(name: str):
    text = regenerate([name])
    assert text.startswith("===")
    assert len(text.splitlines()) >= 4
    assert not [line for line in text.splitlines() if line != line.rstrip()]


def test_selection_order_respected():
    text = regenerate(["fig9", "table5"])
    assert text.index("Fig. 9") < text.index("Table V")


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        regenerate(["fig99"])
