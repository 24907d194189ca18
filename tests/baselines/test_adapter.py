"""HyperTEE adapter: the attacker operations really run against the
live system and really fail for the modelled reasons."""

from __future__ import annotations

import pytest

from repro.baselines.hypertee_adapter import HyperTEEAdapter
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig


@pytest.fixture(scope="module")
def adapter() -> HyperTEEAdapter:
    return HyperTEEAdapter()


def test_victim_runs_real_enclave(adapter: HyperTEEAdapter):
    victim = adapter.new_victim(heap_pages=8)
    adapter.victim_touch(victim, 3)
    enclave_id = victim.enclave.enclave_id
    control = adapter.tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    # The touch demand-faulted a real page into the dedicated table.
    from repro.core.enclave import HEAP_BASE_VPN

    assert control.page_table.lookup(HEAP_BASE_VPN + 3) is not None


def test_victim_touch_bounds(adapter: HyperTEEAdapter):
    victim = adapter.new_victim(heap_pages=4)
    with pytest.raises(ValueError):
        adapter.victim_touch(victim, 4)


def test_allocation_log_holds_only_bulk_pool_entries(adapter: HyperTEEAdapter):
    victim = adapter.new_victim(heap_pages=8)
    for page in range(6):
        adapter.victim_touch(victim, page)
    assert adapter.attacker_allocation_events() is None
    # But the OS log is not empty — it holds bulk pool refills.
    log = adapter.tee.system.os.allocation_log
    assert any(e.requestor == "ems-pool" for e in log)


def test_pte_reads_return_nothing(adapter: HyperTEEAdapter):
    victim = adapter.new_victim(heap_pages=4)
    adapter.victim_touch(victim, 1)
    assert adapter.attacker_read_accessed(victim, 1) is None
    assert not adapter.attacker_clear_accessed(victim)


def test_swap_untargetable_but_functional(adapter: HyperTEEAdapter):
    victim = adapter.new_victim(heap_pages=4)
    adapter.victim_touch(victim, 0)
    swaps_before = len(adapter.tee.system.os.swap_log)
    assert adapter.attacker_swap_out(victim, 0) is False
    # EWB actually ran: the OS received (random, useless) frames.
    assert len(adapter.tee.system.os.swap_log) == swaps_before + 1
    assert adapter.attacker_observe_swap_in(victim, 0) is None


@pytest.mark.parametrize("shards", [1, 4])
def test_comm_attack_reads_the_owners_shard(shards: int):
    """Shared-memory region IDs are per shard: with three padding
    enclaves launched first, the owner lands off shard 0 on 4 shards,
    and the attack must still find its region there."""
    from repro.core.enclave import EnclaveConfig

    tee = HyperTEE(SystemConfig(ems_shards=shards, cs_memory_mb=96))
    for i in range(3):
        tee.launch_enclave(b"pad%d" % i, EnclaveConfig(name=f"p{i}"))
    surface = HyperTEEAdapter(tee).comm_attack_surface()
    assert surface and not any(surface.values()), surface


class TestOnFourShards:
    """The ``adapter`` tests above, on four EMS shards: the class's
    victims are minted IDs 1-5, homed on shards 0, 3, 3, 1 and 1."""

    @pytest.fixture(scope="class")
    def adapter(self) -> HyperTEEAdapter:
        return HyperTEEAdapter(
            HyperTEE(SystemConfig(cs_memory_mb=96, ems_shards=4)))

    test_victim_runs_real_enclave = staticmethod(
        test_victim_runs_real_enclave)
    test_victim_touch_bounds = staticmethod(test_victim_touch_bounds)
    test_allocation_log_holds_only_bulk_pool_entries = staticmethod(
        test_allocation_log_holds_only_bulk_pool_entries)
    test_pte_reads_return_nothing = staticmethod(
        test_pte_reads_return_nothing)
    test_swap_untargetable_but_functional = staticmethod(
        test_swap_untargetable_but_functional)
