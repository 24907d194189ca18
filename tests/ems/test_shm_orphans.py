"""Shared-region cleanup when participants are destroyed mid-use."""

from __future__ import annotations

import pytest

from repro.common.types import Permission
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig


@pytest.fixture
def tee() -> HyperTEE:
    return HyperTEE()


def shm_of(tee: HyperTEE, region):
    """The shared-memory manager of the shard that holds ``region``."""
    return tee.system.shard_pool.shard_of(region.owner.enclave_id).shm


def make_pair(tee: HyperTEE):
    sender = tee.launch_enclave(b"sender", EnclaveConfig(name="s"))
    receiver = tee.launch_enclave(b"receiver", EnclaveConfig(name="r"))
    with sender.running():
        region = sender.create_shared_region(2, Permission.RW)
        sender.share_with(region, receiver, Permission.RW)
    return sender, receiver, region


def test_owner_destroy_with_no_attachments_reclaims(tee: HyperTEE):
    sender, _, region = make_pair(tee)
    keyid = shm_of(tee, region).regions[region.shm_id].keyid
    sender.destroy()
    assert region.shm_id not in shm_of(tee, region).regions
    assert not tee.system.engine.has_key(keyid)


def test_owner_destroy_keeps_region_for_attached_receiver(tee: HyperTEE):
    """The receiver keeps working after the owner dies; the region is
    reclaimed only when the receiver detaches."""
    sender, receiver, region = make_pair(tee)
    with sender.running():
        va = sender.attach(region)
        sender.write(va, b"will outlive the sender")
        sender.detach(region)
    with receiver.running():
        vb = receiver.attach(region)
    sender.destroy()

    assert region.shm_id in shm_of(tee, region).regions  # still alive
    with receiver.running():
        assert receiver.read(vb, 23) == b"will outlive the sender"
        receiver.detach(region)  # last attachment drops -> reclaim
    assert region.shm_id not in shm_of(tee, region).regions


def test_attached_receiver_destroy_drops_its_connection(tee: HyperTEE):
    """A destroyed receiver no longer blocks ESHMDES."""
    sender, receiver, region = make_pair(tee)
    with receiver.running():
        receiver.attach(region)
    receiver.destroy()
    with sender.running():
        sender.destroy_region(region)  # no ActiveConnectionsRemain
    assert region.shm_id not in shm_of(tee, region).regions


def test_destroyed_receiver_loses_authorization(tee: HyperTEE):
    """Legal-connection entries do not survive the enclave they named:
    a new enclave reusing an id could otherwise inherit access."""
    sender, receiver, region = make_pair(tee)
    receiver.destroy()
    control = shm_of(tee, region).regions[region.shm_id]
    assert receiver.enclave_id not in control.legal_connections
