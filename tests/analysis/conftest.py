"""Shared helpers for the teelint test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.baseline import BASELINE_FILENAME, Baseline

FIXTURES = Path(__file__).parent / "fixtures"

#: Fixture trees are lint inputs, not test modules — some (tee012)
#: contain ``tests/test_*.py`` stubs that pytest must never collect.
collect_ignore = ["fixtures"]

#: Repository root (tests/analysis/ -> tests/ -> repo).
REPO_ROOT = Path(__file__).parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / BASELINE_FILENAME


@pytest.fixture(scope="session")
def src_lint():
    """The full catalogue over ``src/repro`` with the checked-in baseline.

    Linting the real tree is the slowest step of this suite, so one run
    per session serves the self-check and the real-model rule tests.
    """
    return run_lint([SRC], baseline=Baseline.load(BASELINE_PATH))


@pytest.fixture
def lint_fixture():
    """Run a single rule over one fixture tree's ``repro`` package."""

    def _lint(fixture: str, rule: str):
        root = FIXTURES / fixture / "repro"
        assert root.is_dir(), f"missing fixture tree {root}"
        return run_lint([root], only=(rule,))

    return _lint
