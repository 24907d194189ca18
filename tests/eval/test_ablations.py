"""Ablations of the design choices DESIGN.md §4 argues for.

Each test removes one mechanism and shows what reopens: the memory pool
(§4.1–4.2), randomized EWB selection (§4.3), the bitmap's support for
non-contiguous memory (§4.5) and the physical isolation of management
tasks (§4.6).
"""

from __future__ import annotations

from repro.attacks.controlled_channel import (
    allocation_attack,
    make_secret,
    swap_attack,
)
from repro.attacks.side_channel import mgmt_microarch_attack
from repro.baselines.base import BaselineTEE, ManagementProfile
from repro.baselines.catalog import make_baseline
from repro.baselines.hypertee_adapter import HyperTEEAdapter
from repro.common.rng import DeterministicRng
from repro.common.types import AttackOutcome
from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.cs.os import CSOperatingSystem
from repro.ems.memory_pool import EnclaveMemoryPool
from repro.hw.memory import PhysicalMemory

#: HyperTEE with the pool ripped out: per-demand allocations become
#: OS-visible; every other mechanism stays.
NO_POOL_PROFILE = ManagementProfile(
    name="hypertee-no-pool",
    os_sees_demand_allocations=True,   # <- ablated
    os_reads_enclave_ptes=False,
    os_targets_swap=False,
    dynamic_paging=True,
    comm_managed=True,
    attestation_isolated=True,
    paging_isolated=True,
)

#: HyperTEE minus the physical isolation: management tasks execute on
#: cores sharing caches with untrusted software (every other mechanism
#: intact — essentially the TDX-module design point).
SHARED_CORE_PROFILE = ManagementProfile(
    name="hypertee-shared-mgmt",
    os_sees_demand_allocations=False,
    os_reads_enclave_ptes=False,
    os_targets_swap=False,
    dynamic_paging=True,
    comm_managed=True,
    attestation_isolated=False,   # <- ablated
    paging_isolated=False,        # <- ablated
)


def test_without_the_pool_the_allocation_channel_reopens():
    secret = make_secret(16)
    with_pool = allocation_attack(HyperTEEAdapter(), secret)
    without_pool = allocation_attack(BaselineTEE(NO_POOL_PROFILE), secret)
    assert with_pool.outcome is AttackOutcome.DEFENDED
    assert without_pool.outcome is AttackOutcome.LEAKED
    assert without_pool.accuracy == 1.0

    # 24 demand faults produce at most a couple of OS-visible bulk refills.
    adapter = HyperTEEAdapter()
    victim = adapter.new_victim(heap_pages=24)
    log = adapter.tee.system.os.allocation_log
    before = len(log)
    for page in range(24):
        adapter.victim_touch(victim, page)
    assert len(log) - before <= 2


def test_randomized_threshold_hides_refill_trigger():
    """§4.2: the enlarge threshold is re-randomized per refill, so refill
    points do not expose a fixed usage ratio."""
    memory = PhysicalMemory(64 * 1024 * 1024)
    os_ = CSOperatingSystem(memory, first_free_frame=16)
    pool = EnclaveMemoryPool(os_, memory, DeterministicRng(7),
                             initial_pages=64, enlarge_pages=64)
    thresholds = set()
    for _ in range(12):
        pool.take(48)
        thresholds.add(pool._threshold)
    assert len(thresholds) >= 6


def test_targeted_eviction_reopens_the_swap_channel():
    """§4.3: OS-targeted EWB leaks; random pool surrender defends, and
    the surrendered count varies so swap volume leaks nothing."""
    secret = make_secret(16)
    assert swap_attack(HyperTEEAdapter(), secret).outcome \
        is AttackOutcome.DEFENDED
    assert swap_attack(make_baseline("sgx"), secret).outcome \
        is AttackOutcome.LEAKED

    system = HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4))
    counts = [system.swap.ewb(4)[0]["pages"] for _ in range(16)]
    assert len(set(counts)) > 1
    assert all(count >= 4 for count in counts)


def _largest_free_run(pinned: list[bool]) -> int:
    best = run = 0
    for taken in pinned:
        run = 0 if taken else run + 1
        best = max(best, run)
    return best


def test_range_isolation_collapses_under_fragmentation():
    """§4.5: a bitmap protects every free frame; a range register only
    the largest free run, which fragmentation shrinks."""
    efficiency = {}
    for occupancy in (0.05, 0.10, 0.20, 0.40):
        rng = DeterministicRng(11).stream("frag")
        pinned = [rng.random() < occupancy for _ in range(4096)]
        free = pinned.count(False)  # the bitmap protects every one
        range_protects = _largest_free_run(pinned)
        assert range_protects <= free
        efficiency[occupancy] = range_protects / free
    assert efficiency[0.40] < 0.05
    assert efficiency[0.05] < 0.50


def test_management_on_shared_cores_leaks_to_prime_probe():
    """§4.6: on the EMS private core the probe reads silence."""
    secret = make_secret(16)
    isolated = mgmt_microarch_attack(HyperTEEAdapter(), secret)
    shared = mgmt_microarch_attack(BaselineTEE(SHARED_CORE_PROFILE), secret)
    assert isolated.outcome is AttackOutcome.DEFENDED
    assert shared.outcome is AttackOutcome.LEAKED
    assert shared.accuracy >= 0.95
    assert isolated.accuracy <= 0.6
