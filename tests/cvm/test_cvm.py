"""CVM lifecycle, guest memory, shared regions, snapshot/restore."""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.common.constants import PAGE_SIZE
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.common.rng import DeterministicRng
from repro.cvm.image import VMOwner
from repro.errors import AttestationError, EnclaveStateError, SanityCheckError

VM_CONTENT = b"confidential VM kernel + rootfs " * 300  # ~3 pages


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4))


@pytest.fixture
def owner() -> VMOwner:
    return VMOwner("tenant", DeterministicRng(99).stream("owner").randbytes)


def deploy(sys_: HyperTEESystem, owner: VMOwner, content=VM_CONTENT) -> int:
    image = owner.build_image("vm1", content)
    owner_public = owner.challenge()
    ems_public, cert = sys_.cvm.platform_challenge(owner_public)
    wrapped = owner.release_key("vm1", sys_.certificate_authority(),
                                ems_public, cert)
    return sys_.cvm.cvm_create(image, wrapped, owner_public)


def test_image_is_ciphertext(owner: VMOwner):
    image = owner.build_image("vm1", VM_CONTENT)
    assert VM_CONTENT[:64] not in image.ciphertext
    assert image.pages == (len(VM_CONTENT) + PAGE_SIZE - 1) // PAGE_SIZE


def test_owner_refuses_unattested_platform(sys_: HyperTEESystem,
                                           owner: VMOwner):
    """A platform whose cert fails CA verification never gets the key."""
    owner.build_image("vm1", VM_CONTENT)
    owner.challenge()
    other = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                        seed=7))
    ems_public, cert = other.cvm.platform_challenge(0)
    with pytest.raises(AttestationError):
        # Verifying `other`'s cert against `sys_`'s CA record fails.
        owner.release_key("vm1", sys_.certificate_authority(),
                          ems_public, cert)


def test_deploy_and_guest_memory(sys_: HyperTEESystem, owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    # The image content landed in guest memory.
    assert sys_.cvm.guest_read(cvm_id, 0, 32) == VM_CONTENT[:32]
    # Guest writes round-trip.
    sys_.cvm.guest_write(cvm_id, 0x1000, b"guest state")
    assert sys_.cvm.guest_read(cvm_id, 0x1000, 11) == b"guest state"


def test_guest_memory_is_ciphertext_to_host(sys_: HyperTEESystem,
                                            owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    control = sys_.cvm.cvms[cvm_id]
    frame = control.guest_pages[0]
    assert sys_.memory.read_raw(frame * PAGE_SIZE, 32) != VM_CONTENT[:32]


def test_guest_access_bounds(sys_: HyperTEESystem, owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    with pytest.raises(SanityCheckError):
        sys_.cvm.guest_read(cvm_id, 100 * PAGE_SIZE, 8)


def test_guest_alloc_grows_memory(sys_: HyperTEESystem, owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    first = sys_.cvm.guest_alloc(cvm_id, 2)
    gpa = first * PAGE_SIZE
    assert sys_.cvm.guest_read(cvm_id, gpa, 16) == bytes(16)
    sys_.cvm.guest_write(cvm_id, gpa, b"grown")
    assert sys_.cvm.guest_read(cvm_id, gpa, 5) == b"grown"


def test_cvm_shared_memory(sys_: HyperTEESystem, owner: VMOwner):
    a = deploy(sys_, owner)
    image2 = owner.build_image("vm1", b"second vm" * 500)
    pub = owner.challenge()
    ems_public, cert = sys_.cvm.platform_challenge(pub)
    wrapped = owner.release_key("vm1", sys_.certificate_authority(),
                                ems_public, cert)
    b = sys_.cvm.cvm_create(image2, wrapped, pub)

    gpn_a, gpn_b = sys_.cvm.share_pages(a, b, pages=2)
    sys_.cvm.shared_write(a, gpn_a, b"cvm broadcast")
    assert sys_.cvm.shared_read(b, gpn_b, 13) == b"cvm broadcast"
    # Private pages are NOT shared-readable.
    with pytest.raises(SanityCheckError):
        sys_.cvm.shared_read(a, 0, 8)


def test_snapshot_restore_roundtrip(sys_: HyperTEESystem, owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    sys_.cvm.guest_write(cvm_id, 0x800, b"precious runtime state")
    snapshot = sys_.cvm.snapshot(cvm_id)

    restored = sys_.cvm.restore(snapshot)
    assert restored != cvm_id
    assert sys_.cvm.guest_read(restored, 0x800, 22) == b"precious runtime state"
    assert sys_.cvm.guest_read(restored, 0, 32) == VM_CONTENT[:32]


def test_snapshot_pages_are_ciphertext(sys_: HyperTEESystem, owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    snapshot = sys_.cvm.snapshot(cvm_id)
    assert VM_CONTENT[:64] not in snapshot.encrypted_pages[0]


def test_tampered_snapshot_refused(sys_: HyperTEESystem, owner: VMOwner):
    """Storage flips one byte -> Merkle verification rejects restore."""
    cvm_id = deploy(sys_, owner)
    snapshot = sys_.cvm.snapshot(cvm_id)
    pages = list(snapshot.encrypted_pages)
    pages[1] = bytes([pages[1][0] ^ 1]) + pages[1][1:]
    tampered = dataclasses.replace(snapshot, encrypted_pages=tuple(pages))
    with pytest.raises(EnclaveStateError, match="Merkle"):
        sys_.cvm.restore(tampered)


def test_destroy_reclaims(sys_: HyperTEESystem, owner: VMOwner):
    cvm_id = deploy(sys_, owner)
    control = sys_.cvm.cvms[cvm_id]
    frames = list(control.guest_pages.values())
    keyid = control.keyid
    pool = sys_.shard_pool.shards[0].pool  # CVMs live on shard 0
    free_before = pool.free_count
    sys_.cvm.cvm_destroy(cvm_id)
    assert pool.free_count >= free_before + len(frames)
    assert not sys_.engine.has_key(keyid)
    with pytest.raises(SanityCheckError):
        sys_.cvm.guest_read(cvm_id, 0, 4)


def test_wrong_measurement_image_refused(sys_: HyperTEESystem,
                                         owner: VMOwner):
    image = owner.build_image("vm1", VM_CONTENT)
    tampered = dataclasses.replace(image, measurement=b"\x00" * 32)
    pub = owner.challenge()
    ems_public, cert = sys_.cvm.platform_challenge(pub)
    wrapped = owner.release_key("vm1", sys_.certificate_authority(),
                                ems_public, cert)
    with pytest.raises(AttestationError):
        sys_.cvm.cvm_create(tampered, wrapped, pub)


def test_cvm_frames_come_from_shard_zero_of_four(owner: VMOwner):
    """CVMs live on shard 0, whatever the shard count.

    With enclaves resident on all four shards, a CVM takes its frames
    from shard 0's pool only, no frame is owned in two shards' tables,
    and destroying the CVM restores every pool's counts.
    """
    tee = HyperTEE(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                ems_shards=4))
    system = tee.system
    shards = system.shard_pool.shards
    tenants = [tee.launch_enclave(b"tenant %d" % i, EnclaveConfig(name=f"t{i}"))
               for i in range(6)]
    assert {system.shard_pool.resolve(tenant.enclave_id)
            for tenant in tenants} == {0, 1, 2, 3}

    def counts() -> list[tuple[int, int]]:
        return [(shard.pool.used_count, shard.pool.free_count)
                for shard in shards]

    before = counts()
    cvm_id = deploy(system, owner)
    frames = set(system.cvm.cvms[cvm_id].guest_pages.values())
    used = [after[0] - start[0] for after, start in zip(counts(), before)]
    assert used == [len(frames), 0, 0, 0]
    assert all(shards[0].ownership.owner_of(frame) is not None
               for frame in frames)
    owned = collections.Counter(frame for shard in shards
                                for frame in shard.ownership._owners)
    assert max(owned.values()) == 1

    system.cvm.cvm_destroy(cvm_id)
    assert counts() == before


class TestOnFourShards:
    """The ``sys_`` tests above, on four EMS shards."""

    @pytest.fixture
    def sys_(self) -> HyperTEESystem:
        return HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                           ems_shards=4))

    test_owner_refuses_unattested_platform = staticmethod(
        test_owner_refuses_unattested_platform)
    test_deploy_and_guest_memory = staticmethod(test_deploy_and_guest_memory)
    test_guest_memory_is_ciphertext_to_host = staticmethod(
        test_guest_memory_is_ciphertext_to_host)
    test_guest_access_bounds = staticmethod(test_guest_access_bounds)
    test_guest_alloc_grows_memory = staticmethod(
        test_guest_alloc_grows_memory)
    test_cvm_shared_memory = staticmethod(test_cvm_shared_memory)
    test_snapshot_restore_roundtrip = staticmethod(
        test_snapshot_restore_roundtrip)
    test_snapshot_pages_are_ciphertext = staticmethod(
        test_snapshot_pages_are_ciphertext)
    test_tampered_snapshot_refused = staticmethod(
        test_tampered_snapshot_refused)
    test_destroy_reclaims = staticmethod(test_destroy_reclaims)
    test_wrong_measurement_image_refused = staticmethod(
        test_wrong_measurement_image_refused)
