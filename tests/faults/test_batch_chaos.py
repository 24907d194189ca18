"""Chaos for the batched EMCall fast path: one envelope, many fates.

A batch crosses the transport as a single packet, so drop / corrupt /
duplicate faults hit the whole envelope; the new
``mailbox.batch.element_corrupt`` point and ``ems.handler.exception``
instead wound individual elements mid-batch. The properties under test:

1. **Termination** — batched invocations never hang, whatever the
   weather (bounded retries; the test returning is the proof).
2. **Suffix-only replay** — elements the EMS has acknowledged are never
   re-sent: a retried batch carries only the unacknowledged tail, in a
   shrunken envelope (``idempotent_replays == 0`` when only elements
   fail; ``> 0`` only when whole envelopes are lost and the EMS-side
   cache absorbs the replay).
3. **No double-apply** — pool takes, measurements, and enclave state
   match a fault-free reference exactly; a double-applied EALLOC or
   EADD would show up immediately.

Marked ``chaos``; CI deepens the sweep via ``CHAOS_SEEDS``.
"""

from __future__ import annotations

import pytest

from repro.core.enclave import EnclaveConfig
from repro.faults import FaultPlan, FaultRule
from tests.faults.chaoslib import (
    chaos_seed_count,
    chaos_tee,
    check_invariants,
    flight_guard,
    run_batched_lifecycle,
    transport_chaos_plan,
)

pytestmark = pytest.mark.chaos


def _alloc_rounds(tee, *, rounds: int = 6, batch: int = 8) -> bytes:
    """One enclave, ``rounds`` full-batch alloc/free rounds; measurement."""
    enclave = tee.launch_enclave_batched(
        b"batch chaos enclave " * 16,
        EnclaveConfig(name="bchaos", heap_pages_max=(rounds + 1) * batch),
        batch_size=batch)
    with enclave.running():
        for _ in range(rounds):
            vaddrs = enclave.ealloc_many([1] * batch)
            enclave.write(vaddrs[-1], b"tail element")
            assert enclave.read(vaddrs[-1], 12) == b"tail element"
            enclave.efree_many(vaddrs)
    measurement = enclave.measurement
    enclave.destroy()
    return measurement


def _fault_free_reference(**kwargs):
    tee = chaos_tee(FaultPlan.empty(), observability=False)
    measurement = _alloc_rounds(tee, **kwargs)
    return measurement, tee.system.shard_pool.shards[0].pool.stats.takes


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_batched_lifecycle_survives_transport_chaos(seed: int):
    """Envelope drop/corrupt/duplicate at 10%/5%/5%, batched end to end."""
    tee = chaos_tee(transport_chaos_plan(seed))
    with flight_guard(tee, label="batch-transport-chaos"):
        readbacks = run_batched_lifecycle(tee, enclaves=4)
        assert readbacks == [f"batch-secret-of-{i}".encode()
                             for i in range(4)]
        check_invariants(tee.system)
    injector = tee.system.faults
    assert injector.stats.total_fired > 0
    # The lifecycle really rode the fast path.
    shard = tee.system.shard_pool.shards[0]
    assert shard.mailbox.stats.batches_sent > 0
    assert shard.runtime.stats.batches_served > 0


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_element_corrupt_replays_only_the_wounded_suffix(seed: int):
    """A CRC-broken *element* is replayed alone; its siblings are not.

    The EMS answers TRANSIENT for the corrupted element without running
    its handler, EMCall re-sends just that element in a shrunken
    envelope, and no acknowledged element ever crosses again — so the
    EMS-side idempotency cache is never even consulted.
    """
    reference_measurement, reference_takes = _fault_free_reference()
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("mailbox.batch.element_corrupt", probability=0.25),))
    tee = chaos_tee(plan)
    measurement = _alloc_rounds(tee)
    check_invariants(tee.system)

    injector = tee.system.faults
    shard = tee.system.shard_pool.shards[0]
    ems = shard.runtime.stats
    fired = injector.fired_count("mailbox.batch.element_corrupt")
    assert fired > 0, "a 25% element-corrupt plan must fire"
    # Every firing produced exactly one TRANSIENT element answer.
    assert ems.transient_failures == fired
    # Suffix-only replay: the wounded elements crossed again (more
    # batched elements than a clean run would need) in extra envelopes.
    assert shard.mailbox.stats.batched_requests > 0
    assert ems.batches_served > 0
    # ... but acknowledged elements never re-crossed: the idempotency
    # cache saw no replayed keys at all.
    assert ems.idempotent_replays == 0
    # No double-apply: the pool granted exactly the fault-free number of
    # frames, and the measurement is bit-identical.
    assert shard.pool.stats.takes == reference_takes
    assert measurement == reference_measurement


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_handler_exception_mid_batch_is_transient_and_isolated(seed: int):
    """A handler crash on element k answers TRANSIENT for k alone.

    Elements before and after k in the same envelope complete normally
    (one failing primitive doesn't poison its batch), and k is retried
    with its original idempotency key until it lands.
    """
    reference_measurement, reference_takes = _fault_free_reference()
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("ems.handler.exception", probability=0.15),))
    tee = chaos_tee(plan)
    measurement = _alloc_rounds(tee)
    check_invariants(tee.system)

    shard = tee.system.shard_pool.shards[0]
    ems = shard.runtime.stats
    assert ems.transient_failures > 0, "a 15% crash plan must fire"
    assert shard.pool.stats.takes == reference_takes
    assert measurement == reference_measurement


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_lost_envelopes_replay_through_the_idempotency_cache(seed: int):
    """Dropping whole batch envelopes (or responses) never double-applies.

    A lost *response* means the EMS applied the batch but EMCall never
    saw it; the full-envelope retry re-sends the same idempotency keys
    and the cache answers them without re-running handlers — takes and
    measurements stay exactly at the fault-free reference.
    """
    reference_measurement, reference_takes = _fault_free_reference()
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("mailbox.request.drop", probability=0.10),
        FaultRule("mailbox.response.drop", probability=0.10),
        FaultRule("mailbox.request.duplicate", probability=0.08),
        FaultRule("mailbox.response.duplicate", probability=0.08),
    ))
    tee = chaos_tee(plan)
    measurement = _alloc_rounds(tee)
    check_invariants(tee.system)

    injector = tee.system.faults
    shard = tee.system.shard_pool.shards[0]
    assert injector.stats.total_fired > 0
    assert shard.pool.stats.takes == reference_takes
    assert measurement == reference_measurement
    # If any response was dropped, the replayed envelope was absorbed by
    # the EMS idempotency cache rather than re-applied.
    if injector.fired_count("mailbox.response.drop"):
        assert shard.runtime.stats.idempotent_replays > 0
