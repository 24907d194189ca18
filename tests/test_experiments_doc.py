"""EXPERIMENTS.md quotes the model's output, verbatim.

Each measured table in its Table IV–VI and Fig. 6–12 sections is a
fenced block introduced by ``python -m repro <artifact>``; it must equal
``regenerate([artifact])`` line for line, so a number in the document
can only change with the model.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.eval.regenerate import regenerate

DOC = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: The artifacts whose measured numbers EXPERIMENTS.md quotes.
QUOTED = ("table4", "table5", "table6", "fig6", "fig7", "fig8a", "fig8b",
          "fig9", "fig10", "fig11", "fig12")

_BLOCK = re.compile(r"`python -m repro (\w+)`:\n\n```text\n(.*?)\n```", re.S)


def _quoted_blocks() -> dict[str, str]:
    blocks = {}
    for name, body in _BLOCK.findall(DOC.read_text(encoding="utf-8")):
        assert name not in blocks, f"{name} is quoted twice"
        blocks[name] = body
    return blocks


def test_every_measured_artifact_is_quoted_once():
    assert sorted(_quoted_blocks()) == sorted(QUOTED)


@pytest.mark.parametrize("name", QUOTED)
def test_quoted_block_matches_regeneration(name: str):
    assert (_quoted_blocks()[name].splitlines()
            == regenerate([name]).splitlines())
