"""EWB: random, untargetable, pool-only page surrender."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SIZE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard
from repro.ems.swapping import EWB_OVERSHOOT_MAX
from repro.errors import SanityCheckError


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


@pytest.fixture
def shard(sys_: HyperTEESystem) -> EMSShard:
    """The platform's one EMS, whose swap manager is under test."""
    return sys_.shard_pool.shards[0]


def test_ewb_returns_at_least_requested(shard: EMSShard):
    result, instr, crypto = shard.swap.ewb(4)
    assert 4 <= result["pages"] <= 4 + EWB_OVERSHOOT_MAX
    assert instr > 0 and crypto > 0  # surrendered pages are encrypted


def test_ewb_counts_vary(shard: EMSShard):
    """The surrendered count is randomized per round (Section IV-A)."""
    counts = {shard.swap.ewb(4)[0]["pages"] for _ in range(12)}
    assert len(counts) > 1


def test_ewb_frames_come_from_free_pool(shard: EMSShard):
    """EWB never touches a frame any enclave is using."""
    result, _, _ = shard.enclaves.ecreate(EnclaveConfig())
    enclave_id = result["enclave_id"]
    shard.enclaves.eadd(enclave_id, b"code")
    control = shard.enclaves.get(enclave_id)
    in_use = set(control.frames)
    swap_result, _, _ = shard.swap.ewb(8)
    assert not (set(swap_result["frames"]) & in_use)


def test_ewb_frames_zeroed_and_unmarked(sys_: HyperTEESystem, shard: EMSShard):
    swap_result, _, _ = shard.swap.ewb(3)
    for frame in swap_result["frames"]:
        assert sys_.memory.read_raw(frame * PAGE_SIZE, 64) == bytes(64)
        assert not sys_.bitmap.is_enclave(frame)


def test_ewb_shrinks_pool(shard: EMSShard):
    before = shard.pool.capacity
    result, _, _ = shard.swap.ewb(5)
    assert shard.pool.capacity == before - result["pages"]


def test_ewb_requires_positive_count(shard: EMSShard):
    with pytest.raises(SanityCheckError):
        shard.swap.ewb(0)


def test_ewb_selection_is_random(shard: EMSShard):
    """Successive rounds pick non-adjacent frame sets — no pattern for
    the OS to correlate with enclave activity."""
    first, _, _ = shard.swap.ewb(4)
    second, _, _ = shard.swap.ewb(4)
    # Disjoint by construction; also not simply consecutive runs.
    frames = sorted(first["frames"])
    consecutive = all(b - a == 1 for a, b in zip(frames, frames[1:]))
    assert not (consecutive and sorted(second["frames"])[0] == frames[-1] + 1)
