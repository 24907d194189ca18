"""Shared fixtures for the HyperTEE test suite, plus tier auto-marking.

Every test that is not explicitly ``slow`` or ``chaos`` belongs to the
fast tier-1 suite and gets the ``tier1`` marker automatically, so
``-m tier1`` and ``-m "not slow and not chaos"`` select the same set.
"""

from __future__ import annotations

import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.json from the current model instead "
             "of comparing against it (review the diff before committing)")


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should refresh golden files, not assert them."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def golden(update_golden):
    """``golden(name, current)``: pin ``current`` to tests/golden/<name>.json.

    Under ``--update-golden`` the file is rewritten in its canonical form
    (``indent=2``, sorted keys, trailing newline); otherwise ``current``
    must equal the committed document exactly.
    """
    def check(name: str, current) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        if update_golden:
            path.write_text(json.dumps(current, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
            return
        assert path.exists(), \
            f"tests/golden/{path.name} missing; run with --update-golden"
        assert current == json.loads(path.read_text(encoding="utf-8")), (
            f"the model drifted from tests/golden/{path.name}. If the "
            "change is intended, regenerate with --update-golden and "
            "commit the reviewed diff.")
    return check


def pytest_collection_modifyitems(items):
    for item in items:
        if item.get_closest_marker("slow") is None and \
                item.get_closest_marker("chaos") is None:
            item.add_marker(pytest.mark.tier1)

from repro.common.rng import DeterministicRng
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.memory import PhysicalMemory


@pytest.fixture(autouse=True)
def _detach_codec_sanitizer():
    """The codec's teesan hook is module-global; never leak it across tests."""
    yield
    from repro.common import codec

    codec.set_sanitizer(None)


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(seed=1234)


@pytest.fixture
def memory() -> PhysicalMemory:
    """16 MiB of physical memory with an encryption engine attached."""
    mem = PhysicalMemory(16 * 1024 * 1024)
    mem.encryption_engine = MemoryEncryptionEngine()
    return mem


@pytest.fixture
def plain_memory() -> PhysicalMemory:
    """8 MiB of physical memory without an engine (plaintext path)."""
    return PhysicalMemory(8 * 1024 * 1024)


@pytest.fixture
def system() -> HyperTEESystem:
    """A small booted HyperTEE platform."""
    return HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


@pytest.fixture
def tee(system: HyperTEESystem) -> HyperTEE:
    """The user-facing facade over the booted platform."""
    return HyperTEE(system=system)
