"""Shared-memory management: keys, legal connections, permissions,
destroy rules, device grants (paper Section V)."""

from __future__ import annotations

import pytest

from repro.common.types import Permission
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard
from repro.errors import (
    ActiveConnectionsRemain,
    ConnectionNotAuthorized,
    NotRegionOwner,
    SanityCheckError,
    SharedMemoryError,
)


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


@pytest.fixture
def shard(sys_: HyperTEESystem) -> EMSShard:
    """The platform's one EMS, whose shared-memory manager is under test."""
    return sys_.shard_pool.shards[0]


def make_enclave(shard: EMSShard, name: str) -> int:
    result, _, _ = shard.enclaves.ecreate(EnclaveConfig(name=name))
    enclave_id = result["enclave_id"]
    shard.enclaves.eadd(enclave_id, name.encode())
    shard.enclaves.emeas(enclave_id)
    return enclave_id


@pytest.fixture
def pair(shard: EMSShard) -> tuple[int, int]:
    return make_enclave(shard, "sender"), make_enclave(shard, "receiver")


def test_eshmget_creates_region(sys_: HyperTEESystem, shard: EMSShard, pair):
    sender, _ = pair
    result, _, _ = shard.shm.eshmget(sender, 4)
    region = shard.shm.regions[result["shm_id"]]
    assert region.owner_enclave_id == sender
    assert len(region.frames) == 4
    # Contiguous frames (DMA requirement).
    assert region.frames == list(range(region.frames[0], region.frames[0] + 4))
    assert sys_.engine.has_key(region.keyid)


def test_region_key_is_dedicated(shard: EMSShard, pair):
    """Shared keys are separate from every private memory key (V-A)."""
    sender, _ = pair
    result, _, _ = shard.shm.eshmget(sender, 1)
    region = shard.shm.regions[result["shm_id"]]
    sender_control = shard.enclaves.get(sender)
    assert region.keyid != sender_control.keyid
    assert region.key != sender_control.memory_key


def test_budget_and_count_sanity(shard: EMSShard, pair):
    sender, _ = pair
    with pytest.raises(SanityCheckError):
        shard.shm.eshmget(sender, 0)
    with pytest.raises(SanityCheckError):
        shard.shm.eshmget(sender, 10_000)  # beyond shared_pages_max


def test_unauthorized_attach_rejected(shard: EMSShard, pair):
    """The anti-brute-force rule: guessing a ShmID achieves nothing."""
    sender, receiver = pair
    result, _, _ = shard.shm.eshmget(sender, 2)
    with pytest.raises(ConnectionNotAuthorized):
        shard.shm.eshmat(receiver, result["shm_id"])


def test_share_then_attach(shard: EMSShard, pair):
    sender, receiver = pair
    shm_id = shard.shm.eshmget(sender, 2)[0]["shm_id"]
    shard.shm.eshmshr(sender, shm_id, receiver, Permission.RW)
    attach = shard.shm.eshmat(receiver, shm_id)[0]
    receiver_control = shard.enclaves.get(receiver)
    region = shard.shm.regions[shm_id]
    pte = receiver_control.page_table.lookup(attach["vaddr"] >> 12)
    assert pte is not None and pte.keyid == region.keyid


def test_only_owner_authorizes(shard: EMSShard, pair):
    sender, receiver = pair
    third = make_enclave(shard, "third")
    shm_id = shard.shm.eshmget(sender, 1)[0]["shm_id"]
    with pytest.raises(NotRegionOwner):
        shard.shm.eshmshr(receiver, shm_id, third, Permission.READ)


def test_granted_permission_capped_by_max(shard: EMSShard, pair):
    sender, receiver = pair
    shm_id = shard.shm.eshmget(sender, 1, Permission.READ)[0]["shm_id"]
    with pytest.raises(SharedMemoryError):
        shard.shm.eshmshr(sender, shm_id, receiver, Permission.RW)


def test_readonly_receiver_mapping(shard: EMSShard, pair):
    """Permission check against unprivileged tampering (V-C)."""
    sender, receiver = pair
    shm_id = shard.shm.eshmget(sender, 1, Permission.RW)[0]["shm_id"]
    shard.shm.eshmshr(sender, shm_id, receiver, Permission.READ)
    attach = shard.shm.eshmat(receiver, shm_id)[0]
    pte = shard.enclaves.get(receiver).page_table.lookup(attach["vaddr"] >> 12)
    assert pte.perm == Permission.READ


def test_double_attach_rejected(shard: EMSShard, pair):
    sender, _ = pair
    shm_id = shard.shm.eshmget(sender, 1)[0]["shm_id"]
    shard.shm.eshmat(sender, shm_id)
    with pytest.raises(SharedMemoryError):
        shard.shm.eshmat(sender, shm_id)


def test_detach(shard: EMSShard, pair):
    sender, _ = pair
    shm_id = shard.shm.eshmget(sender, 2)[0]["shm_id"]
    vaddr = shard.shm.eshmat(sender, shm_id)[0]["vaddr"]
    shard.shm.eshmdt(sender, shm_id)
    assert shard.enclaves.get(sender).page_table.lookup(vaddr >> 12) is None
    with pytest.raises(SharedMemoryError):
        shard.shm.eshmdt(sender, shm_id)  # not attached anymore


def test_destroy_rules(sys_: HyperTEESystem, shard: EMSShard, pair):
    """Identity + active-connection checks against malicious release."""
    sender, receiver = pair
    shm_id = shard.shm.eshmget(sender, 1)[0]["shm_id"]
    shard.shm.eshmshr(sender, shm_id, receiver, Permission.RW)
    shard.shm.eshmat(receiver, shm_id)

    with pytest.raises(NotRegionOwner):
        shard.shm.eshmdes(receiver, shm_id)      # not the initial sender
    with pytest.raises(ActiveConnectionsRemain):
        shard.shm.eshmdes(sender, shm_id)        # receiver still attached

    shard.shm.eshmdt(receiver, shm_id)
    keyid = shard.shm.regions[shm_id].keyid
    shard.shm.eshmdes(sender, shm_id)
    assert shm_id not in shard.shm.regions
    assert not sys_.engine.has_key(keyid)


def test_device_grant_configures_whitelist(sys_: HyperTEESystem,
                                           shard: EMSShard, pair):
    sender, _ = pair
    shm_id = shard.shm.eshmget(sender, 2)[0]["shm_id"]
    shard.shm.grant_device(sender, shm_id, "gemmini", Permission.RW)
    region = shard.shm.regions[shm_id]
    entries = sys_.ihub.dma_whitelist_for("gemmini")
    assert len(entries) == 1
    assert entries[0].base == region.base_paddr
    assert entries[0].size == region.size_bytes


def test_device_grant_requires_access(shard: EMSShard, pair):
    sender, receiver = pair
    shm_id = shard.shm.eshmget(sender, 1)[0]["shm_id"]
    with pytest.raises(ConnectionNotAuthorized):
        shard.shm.grant_device(receiver, shm_id, "gemmini", Permission.READ)


def test_destroy_clears_device_whitelist(sys_: HyperTEESystem,
                                         shard: EMSShard, pair):
    sender, _ = pair
    shm_id = shard.shm.eshmget(sender, 1)[0]["shm_id"]
    shard.shm.grant_device(sender, shm_id, "gemmini", Permission.RW)
    shard.shm.eshmdes(sender, shm_id)
    assert sys_.ihub.dma_whitelist_for("gemmini") == []


def test_unknown_region(shard: EMSShard, pair):
    sender, _ = pair
    with pytest.raises(SharedMemoryError):
        shard.shm.eshmat(sender, 999)
