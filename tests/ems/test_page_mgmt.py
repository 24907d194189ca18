"""EALLOC / EFREE / demand-fault service."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.core.config import SystemConfig
from repro.core.enclave import HEAP_BASE_VPN, EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard
from repro.errors import SanityCheckError


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


@pytest.fixture
def shard(sys_: HyperTEESystem) -> EMSShard:
    """The platform's one EMS, whose page manager is under test."""
    return sys_.shard_pool.shards[0]


def running_enclave(shard: EMSShard, heap_max: int = 64) -> int:
    result, _, _ = shard.enclaves.ecreate(
        EnclaveConfig(heap_pages_max=heap_max))
    enclave_id = result["enclave_id"]
    shard.enclaves.eadd(enclave_id, b"code")
    shard.enclaves.emeas(enclave_id)
    shard.enclaves.eenter(enclave_id)
    return enclave_id


def test_ealloc_maps_heap(shard: EMSShard):
    enclave_id = running_enclave(shard)
    result, instr, _ = shard.pages.ealloc(enclave_id, 4)
    assert instr > 0
    control = shard.enclaves.get(enclave_id)
    base_vpn = result["vaddr"] >> PAGE_SHIFT
    assert base_vpn == HEAP_BASE_VPN
    for offset in range(4):
        pte = control.page_table.lookup(base_vpn + offset)
        assert pte is not None and pte.keyid == control.keyid


def test_ealloc_sequential_regions(shard: EMSShard):
    enclave_id = running_enclave(shard)
    first, _, _ = shard.pages.ealloc(enclave_id, 2)
    second, _, _ = shard.pages.ealloc(enclave_id, 2)
    assert second["vaddr"] == first["vaddr"] + 2 * PAGE_SIZE


def test_ealloc_budget_enforced(shard: EMSShard):
    enclave_id = running_enclave(shard, heap_max=4)
    shard.pages.ealloc(enclave_id, 4)
    with pytest.raises(SanityCheckError):
        shard.pages.ealloc(enclave_id, 1)


def test_ealloc_positive_pages(shard: EMSShard):
    enclave_id = running_enclave(shard)
    with pytest.raises(SanityCheckError):
        shard.pages.ealloc(enclave_id, 0)


def test_ealloc_pages_zeroed_under_enclave_key(sys_: HyperTEESystem,
                                               shard: EMSShard):
    enclave_id = running_enclave(shard)
    result, _, _ = shard.pages.ealloc(enclave_id, 1)
    control = shard.enclaves.get(enclave_id)
    pte = control.page_table.lookup(result["vaddr"] >> PAGE_SHIFT)
    data = sys_.memory.read(pte.ppn << PAGE_SHIFT, 64, control.keyid)
    assert data == bytes(64)


def test_efree_returns_to_pool(shard: EMSShard):
    enclave_id = running_enclave(shard)
    result, _, _ = shard.pages.ealloc(enclave_id, 4)
    free_before = shard.pool.free_count
    shard.pages.efree(enclave_id, result["vaddr"])
    assert shard.pool.free_count == free_before + 4
    control = shard.enclaves.get(enclave_id)
    assert control.page_table.lookup(result["vaddr"] >> PAGE_SHIFT) is None


def test_efree_unknown_region(shard: EMSShard):
    enclave_id = running_enclave(shard)
    with pytest.raises(SanityCheckError):
        shard.pages.efree(enclave_id, 0xDEAD000)


def test_fault_service_demand_allocates(shard: EMSShard):
    enclave_id = running_enclave(shard)
    fault_vaddr = (HEAP_BASE_VPN + 10) << PAGE_SHIFT
    result, _, _ = shard.pages.service_fault(enclave_id, fault_vaddr)
    assert result["pages"] == 1
    control = shard.enclaves.get(enclave_id)
    assert control.page_table.lookup(HEAP_BASE_VPN + 10) is not None


def test_fault_outside_heap_rejected(shard: EMSShard):
    enclave_id = running_enclave(shard)
    with pytest.raises(SanityCheckError):
        shard.pages.service_fault(enclave_id, 0x1000)  # code region


def test_fault_beyond_budget_rejected(shard: EMSShard):
    enclave_id = running_enclave(shard, heap_max=4)
    beyond = (HEAP_BASE_VPN + 4) << PAGE_SHIFT
    with pytest.raises(SanityCheckError):
        shard.pages.service_fault(enclave_id, beyond)


def test_fault_on_mapped_page_rejected(shard: EMSShard):
    enclave_id = running_enclave(shard)
    result, _, _ = shard.pages.ealloc(enclave_id, 1)
    with pytest.raises(SanityCheckError):
        shard.pages.service_fault(enclave_id, result["vaddr"])
