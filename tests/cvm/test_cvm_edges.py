"""CVM manager edge cases and failure injection."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.rng import DeterministicRng
from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.cvm.image import VMOwner, WrappedImageKey
from repro.cvm.migration import migrate
from repro.errors import AttestationError, SanityCheckError


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4))


@pytest.fixture
def owner() -> VMOwner:
    return VMOwner("tenant", DeterministicRng(42).stream("o").randbytes)


def deploy(sys_, owner, content=b"vm " * 2000) -> int:
    image = owner.build_image("vm", content)
    pub = owner.challenge()
    ems_public, cert = sys_.cvm.platform_challenge(pub)
    wrapped = owner.release_key("vm", sys_.certificate_authority(),
                                ems_public, cert)
    return sys_.cvm.cvm_create(image, wrapped, pub)


def test_release_key_requires_challenge(owner, sys_):
    owner.build_image("vm", b"content")
    ems_public, cert = sys_.cvm.platform_challenge(0)
    with pytest.raises(AttestationError):
        owner.release_key("vm", sys_.certificate_authority(),
                          ems_public, cert)


def test_tampered_wrapped_key_rejected(sys_, owner):
    image = owner.build_image("vm", b"content " * 600)
    pub = owner.challenge()
    ems_public, cert = sys_.cvm.platform_challenge(pub)
    wrapped = owner.release_key("vm", sys_.certificate_authority(),
                                ems_public, cert)
    bad = WrappedImageKey(wrapped=wrapped.wrapped, tag=b"\x00" * 32)
    with pytest.raises(AttestationError, match="authentication"):
        sys_.cvm.cvm_create(image, bad, pub)


def test_create_without_exchange_rejected(sys_, owner):
    fresh = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                        seed=77))
    image = owner.build_image("vm", b"content " * 600)
    pub = owner.challenge()
    ems_public, cert = sys_.cvm.platform_challenge(pub)
    wrapped = owner.release_key("vm", sys_.certificate_authority(),
                                ems_public, cert)
    with pytest.raises(AttestationError):
        fresh.cvm.cvm_create(image, wrapped, pub)  # no exchange on `fresh`


def test_guest_write_cross_page_rejected(sys_, owner):
    cvm_id = deploy(sys_, owner)
    with pytest.raises(SanityCheckError):
        sys_.cvm.guest_write(cvm_id, 4090, b"crosses the page boundary")


def test_share_with_destroyed_cvm_rejected(sys_, owner):
    a = deploy(sys_, owner)
    b = deploy(sys_, owner, content=b"second " * 800)
    sys_.cvm.cvm_destroy(b)
    with pytest.raises(SanityCheckError):
        sys_.cvm.share_pages(a, b, pages=1)


def test_snapshot_includes_shared_pages(sys_, owner):
    a = deploy(sys_, owner)
    b = deploy(sys_, owner, content=b"second " * 800)
    gpn_a, _ = sys_.cvm.share_pages(a, b, pages=1)
    sys_.cvm.shared_write(a, gpn_a, b"shared state")
    snapshot = sys_.cvm.snapshot(a)
    restored = sys_.cvm.restore(snapshot)
    # The shared page's content rides along in the snapshot (as the
    # restored CVM's private copy).
    gpa = gpn_a * 4096
    assert sys_.cvm.guest_read(restored, gpa, 12) == b"shared state"


def test_shared_frames_reclaimed_with_last_participant(sys_, owner):
    """Shared frames survive the first participant's destruction and are
    zeroed and reclaimed with the last one — no leak, no early free."""
    a = deploy(sys_, owner)
    b = deploy(sys_, owner, content=b"second " * 800)
    gpn_a, gpn_b = sys_.cvm.share_pages(a, b, pages=2)
    sys_.cvm.shared_write(a, gpn_a, b"cross-vm")
    region_frames = [sys_.cvm.cvms[a].guest_pages[gpn_a + i]
                     for i in range(2)]

    cvm_shard = sys_.shard_pool.shards[0]  # CVMs live on shard 0
    free_before = cvm_shard.pool.free_count
    sys_.cvm.cvm_destroy(a)
    # First destruction: region intact, still usable by b.
    assert sys_.cvm.shared_read(b, gpn_b, 8) == b"cross-vm"
    assert cvm_shard.ownership.owner_of(region_frames[0]) is not None

    sys_.cvm.cvm_destroy(b)
    # Last destruction: region reclaimed and zeroed.
    assert cvm_shard.ownership.owner_of(region_frames[0]) is None
    assert cvm_shard.pool.free_count > free_before
    for frame in region_frames:
        assert sys_.memory.read_raw(frame * 4096, 64) == bytes(64)


def test_double_destroy_rejected(sys_, owner):
    cvm_id = deploy(sys_, owner)
    sys_.cvm.cvm_destroy(cvm_id)
    with pytest.raises(SanityCheckError):
        sys_.cvm.cvm_destroy(cvm_id)


def test_restore_foreign_snapshot_without_secrets(sys_, owner):
    cvm_id = deploy(sys_, owner)
    snapshot = sys_.cvm.snapshot(cvm_id)
    foreign = dataclasses.replace(snapshot, snapshot_id=999)
    with pytest.raises(SanityCheckError, match="secrets"):
        sys_.cvm.restore(foreign)


def test_migrate_then_snapshot_on_destination(owner):
    """The migrated CVM is fully functional: it can snapshot again."""
    source = HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                         seed=8))
    dest = HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                       seed=9))
    cvm_id = deploy(source, owner)
    source.cvm.guest_write(cvm_id, 0x100, b"roundtrip")
    new_id = migrate(source, dest, cvm_id)
    snapshot = dest.cvm.snapshot(new_id)
    restored = dest.cvm.restore(snapshot)
    assert dest.cvm.guest_read(restored, 0x100, 9) == b"roundtrip"


class TestOnFourShards:
    """The ``sys_`` tests above, on four EMS shards."""

    @pytest.fixture
    def sys_(self) -> HyperTEESystem:
        return HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                           ems_shards=4))

    test_release_key_requires_challenge = staticmethod(
        test_release_key_requires_challenge)
    test_tampered_wrapped_key_rejected = staticmethod(
        test_tampered_wrapped_key_rejected)
    test_create_without_exchange_rejected = staticmethod(
        test_create_without_exchange_rejected)
    test_guest_write_cross_page_rejected = staticmethod(
        test_guest_write_cross_page_rejected)
    test_share_with_destroyed_cvm_rejected = staticmethod(
        test_share_with_destroyed_cvm_rejected)
    test_snapshot_includes_shared_pages = staticmethod(
        test_snapshot_includes_shared_pages)
    test_shared_frames_reclaimed_with_last_participant = staticmethod(
        test_shared_frames_reclaimed_with_last_participant)
    test_double_destroy_rejected = staticmethod(test_double_destroy_rejected)
    test_restore_foreign_snapshot_without_secrets = staticmethod(
        test_restore_foreign_snapshot_without_secrets)
