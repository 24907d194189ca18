"""Unit tests for the EMS shard pool: placement, transfer, rejection.

The conformance suite pins what the fleet looks like from outside; this
file pins the pool's own mechanics — ID placement lands enclaves on
their hash home, the sealed prepare/commit transfer moves exactly the
enclave's frames (measurement preserved, attestation re-issuable), and
every illegal transfer is refused with zero mutation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.errors import (
    EnclaveStateError,
    OwnershipError,
    ShardError,
    TransferInterrupted,
)
from repro.ems.ownership import Owner
from repro.ems.shardpool import _MANIFEST_MAGIC
from repro.faults.plan import FaultPlan, FaultRule
from repro.hw.routing import shard_for


def _fleet(shards: int = 4, seed: int = 0x5D01, **config) -> HyperTEE:
    return HyperTEE(SystemConfig(seed=seed, ems_shards=shards, **config))


def _launch(tee: HyperTEE, tag: str = "pool"):
    return tee.launch_enclave(f"shardpool-{tag}".encode() * 20,
                              EnclaveConfig(name=tag, heap_pages_max=16))


def _fleet_frame_usage(pool) -> int:
    return sum(shard.pool.used_count for shard in pool.shards)


def _transfer_state(pool, enclave_id: int) -> tuple:
    """Everything a committed transfer moves, for zero-mutation checks."""
    owner = Owner.enclave(enclave_id)
    return (
        [shard.ownership.frames_owned_by(owner) for shard in pool.shards],
        [enclave_id in shard.enclaves.enclaves for shard in pool.shards],
        [shard.pool.used_count for shard in pool.shards],
        pool.resolve(enclave_id),
        pool.transfers_committed,
    )


def test_placement_lands_on_hash_home():
    """Minted IDs need no override: home shard == serving shard."""
    tee = _fleet()
    pool = tee.system.shard_pool
    for i in range(6):
        enclave = _launch(tee, tag=f"place{i}")
        home = shard_for(enclave.enclave_id, pool.num_shards)
        assert pool.resolve(enclave.enclave_id) == home
        assert enclave.enclave_id in \
            pool.shards[home].enclaves.enclaves
    assert pool._overrides == {}


def test_transfer_moves_state_and_preserves_identity():
    """The whole transfer contract on the happy path."""
    tee = _fleet()
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    src_index = pool.resolve(enclave.enclave_id)
    dst_index = (src_index + 1) % pool.num_shards
    src, dst = pool.shards[src_index], pool.shards[dst_index]
    owner = Owner.enclave(enclave.enclave_id)
    frames_before = set(src.ownership.frames_owned_by(owner))
    usage_before = _fleet_frame_usage(pool)
    src_used, dst_used = src.pool.used_count, dst.pool.used_count

    receipt = pool.transfer_enclave(enclave.enclave_id, dst_index)

    assert receipt["src"] == src_index and receipt["dst"] == dst_index
    assert receipt["pages"] > 0
    # Residence and routing moved together.
    assert enclave.enclave_id not in src.enclaves.enclaves
    assert enclave.enclave_id in dst.enclaves.enclaves
    assert pool.resolve(enclave.enclave_id) == dst_index
    # The enclave's frames changed tables, not contents: same frame set,
    # now owned on the destination, fleet usage conserved.
    assert set(dst.ownership.frames_owned_by(owner)) == frames_before
    assert src.ownership.frames_owned_by(owner) == []
    assert _fleet_frame_usage(pool) == usage_before
    assert src.pool.used_count == src_used - receipt["pages"]
    assert dst.pool.used_count == dst_used + receipt["pages"]
    assert pool.transfers_committed == 1

    # Identity survived: the measurement is untouched and a fresh quote
    # issued by the destination shard verifies at the CA.
    ca = tee.system.certificate_authority()
    with enclave.running():
        vaddr = enclave.ealloc(1)
        enclave.write(vaddr, b"post-transfer")
        assert enclave.read(vaddr, 13) == b"post-transfer"
        quote = enclave.attest(report_data=b"after-move")
    assert ca.verify_quote(
        quote, expected_enclave_measurement=enclave.measurement)
    enclave.destroy()


def test_transfer_back_home_drops_override():
    """A round trip ends with pure-hash routing again."""
    tee = _fleet()
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    home = pool.resolve(enclave.enclave_id)
    away = (home + 1) % pool.num_shards
    pool.transfer_enclave(enclave.enclave_id, away)
    assert pool._overrides == {enclave.enclave_id: away}
    pool.transfer_enclave(enclave.enclave_id, home)
    assert pool._overrides == {}
    assert pool.resolve(enclave.enclave_id) == home


def test_transfer_rejections():
    """Every illegal transfer is a typed refusal."""
    tee = _fleet()
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    here = pool.resolve(enclave.enclave_id)
    there = (here + 1) % pool.num_shards

    with pytest.raises(ShardError, match="out of range"):
        pool.transfer_enclave(enclave.enclave_id, pool.num_shards)
    with pytest.raises(ShardError, match="already resident"):
        pool.transfer_enclave(enclave.enclave_id, here)
    with pytest.raises(ShardError, match="not resident"):
        pool.transfer_enclave(424242, shard_for(424242, pool.num_shards)
                              ^ 1)  # any shard that is not 424242's home

    enclave.enter()
    with pytest.raises(EnclaveStateError, match="running"):
        pool.transfer_enclave(enclave.enclave_id, there)
    enclave.exit()

    from repro.common.types import Permission
    enclave.resume()
    region = enclave.create_shared_region(1, Permission.RW)
    enclave.attach(region)
    enclave.exit()
    # Suspended but still attached: regions are shard-local state.
    with pytest.raises(ShardError, match="shared-memory"):
        pool.transfer_enclave(enclave.enclave_id, there)
    enclave.resume()
    enclave.detach(region)
    enclave.destroy_region(region)
    enclave.exit()

    enclave.destroy()
    with pytest.raises(EnclaveStateError, match="destroyed"):
        pool.transfer_enclave(enclave.enclave_id, there)


def test_unmeasured_enclave_cannot_transfer():
    """No measurement, no manifest: the seal has nothing to bind to."""
    from repro.common.types import Primitive

    tee = _fleet()
    pool = tee.system.shard_pool
    created = tee.invoke_os(Primitive.ECREATE,
                            {"config": EnclaveConfig(name="bare")})
    enclave_id = created.result("enclave_id")
    here = pool.resolve(enclave_id)
    with pytest.raises(EnclaveStateError, match="measured"):
        pool.transfer_enclave(enclave_id, (here + 1) % pool.num_shards)


def test_interrupted_transfer_mutates_nothing_and_retries():
    """``ems.transfer.interrupt``: abort between prepare and commit."""
    tee = _fleet()
    tee.system.enable_fault_injection(FaultPlan.build(
        [FaultRule(point="ems.transfer.interrupt", probability=1.0,
                   count=1)],
        seed=0xAB))
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    src_index = pool.resolve(enclave.enclave_id)
    dst_index = (src_index + 1) % pool.num_shards
    src = pool.shards[src_index]
    owner = Owner.enclave(enclave.enclave_id)
    frames_before = set(src.ownership.frames_owned_by(owner))
    usage_before = [shard.pool.used_count for shard in pool.shards]

    with pytest.raises(TransferInterrupted):
        pool.transfer_enclave(enclave.enclave_id, dst_index)

    # Zero mutation: residence, routing, frames, and pool accounting are
    # exactly the pre-attempt state.
    assert enclave.enclave_id in src.enclaves.enclaves
    assert pool.resolve(enclave.enclave_id) == src_index
    assert set(src.ownership.frames_owned_by(owner)) == frames_before
    assert [s.pool.used_count for s in pool.shards] == usage_before
    assert pool.transfers_interrupted == 1
    assert pool.transfers_committed == 0

    # The rule's count is exhausted: the retry commits cleanly (and the
    # enclave is applied exactly once — its frame set is unchanged).
    pool.transfer_enclave(enclave.enclave_id, dst_index)
    dst = pool.shards[dst_index]
    assert set(dst.ownership.frames_owned_by(owner)) == frames_before
    assert pool.transfers_committed == 1


@pytest.mark.parametrize("forge", [
    lambda eid: _MANIFEST_MAGIC + (eid + 1).to_bytes(8, "little"),
    lambda eid: b"HTEE-XFER0" + eid.to_bytes(8, "little"),
], ids=["other-enclave-id", "wrong-magic"])
def test_unbound_manifest_is_refused_with_zero_mutation(forge, monkeypatch):
    """A validly sealed manifest that does not bind this enclave's
    transfer (another enclave's ID, or not a transfer manifest at all)
    never commits."""
    tee = _fleet()
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    enclave_id = enclave.enclave_id
    here = pool.resolve(enclave_id)
    seal = pool.sealing.seal
    head = len(_MANIFEST_MAGIC) + 8

    def forged_seal(measurement, manifest):
        return seal(measurement, forge(enclave_id) + manifest[head:])

    monkeypatch.setattr(pool.sealing, "seal", forged_seal)
    before = _transfer_state(pool, enclave_id)
    with pytest.raises(ShardError, match="failed binding"):
        pool.transfer_enclave(enclave_id, (here + 1) % pool.num_shards)
    assert _transfer_state(pool, enclave_id) == before


def test_destination_owning_a_frame_is_refused_with_zero_mutation():
    """The destination proves every incoming frame unowned before the
    source lets go of any."""
    tee = _fleet()
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    enclave_id = enclave.enclave_id
    here = pool.resolve(enclave_id)
    there = (here + 1) % pool.num_shards
    frame = pool.shards[here].ownership.frames_owned_by(
        Owner.enclave(enclave_id))[0]
    pool.shards[there].ownership.claim(frame, Owner.ems("squatter"))

    before = _transfer_state(pool, enclave_id)
    with pytest.raises(OwnershipError, match="already owned"):
        pool.transfer_enclave(enclave_id, there)
    assert _transfer_state(pool, enclave_id) == before


def test_stale_route_is_rejected_not_served():
    """The old shard refuses a moved enclave's requests outright."""
    from repro.common.types import Primitive

    tee = _fleet()
    pool = tee.system.shard_pool
    enclave = _launch(tee)
    src_index = pool.resolve(enclave.enclave_id)
    dst_index = (src_index + 1) % pool.num_shards
    pool.transfer_enclave(enclave.enclave_id, dst_index)

    # Bypass the router: push EENTER at the *source* gate directly, the
    # way a stale initiator would. The source shard no longer holds the
    # control block, so this must be a refusal, never a context switch.
    stale = tee.system.emcall.gates[src_index].invoke(
        Primitive.EENTER, {"enclave_id": enclave.enclave_id},
        core=tee.system.primary_core)
    assert not stale.ok
    assert tee.system.primary_core.current_enclave_id is None

    # The routed path still works.
    with enclave.running():
        assert enclave.ealloc(1) > 0
    enclave.destroy()


def test_shard_stats_summary_schema():
    """The registered stats source carries the fleet rollup."""
    tee = _fleet(shards=2)
    enclave = _launch(tee)
    summary = tee.system.stats_summary()["shards"]
    assert summary["num_shards"] == 2
    assert len(summary["per_shard"]) == 2
    row = summary["per_shard"][tee.system.shard_pool.resolve(
        enclave.enclave_id)]
    assert row["enclaves"] == 1
    assert row["served"] > 0
    assert row["pool_used"] + row["pool_free"] == row["pool_capacity"]


@pytest.mark.parametrize("shards", [1, 4])
def test_federated_counters_sum_every_shard(shards):
    """``ems``, ``mailbox`` and ``pool`` read the fleet, not shard 0."""
    tee = _fleet(shards=shards)
    for i in range(6):
        _launch(tee, tag=f"federated{i}")
    fleet = tee.system.shard_pool.shards
    summary = tee.system.stats_summary()
    for source, stats_of in (("ems", lambda shard: shard.runtime.stats),
                             ("mailbox", lambda shard: shard.mailbox.stats),
                             ("pool", lambda shard: shard.pool.stats)):
        rows = [dataclasses.asdict(stats_of(shard)) for shard in fleet]
        expected = {
            name: ([sum(column) for column in zip(*(row[name] for row in rows))]
                   if isinstance(value, list)
                   else sum(row[name] for row in rows))
            for name, value in rows[0].items()}
        assert summary[source] == expected, source
    assert summary["ems"]["served"] == tee.system.ems_requests_served() == 18
    assert summary["mailbox"]["requests_sent"] == 18
    # Four shards spread the launches, so shard 0 alone reads less.
    assert (fleet[0].runtime.stats.served < 18) == (shards > 1)
