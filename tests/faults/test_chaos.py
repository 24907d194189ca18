"""Seeded chaos runs: the platform survives adversarial weather.

Every run here injects real faults (10% drops and worse) and asserts the
four system-level properties the hardening exists for:

1. **Termination** — no invocation hangs; retries are bounded.
2. **Binding** — every response lands on its own request; each enclave
   reads back exactly what it wrote and attests its own identity.
3. **Idempotency** — retried primitives are never double-applied; the
   measurements match a fault-free reference bit-for-bit.
4. **Observability** — every injected fault is visible in the Perfetto
   trace and the metrics export.

Marked ``chaos``: excluded from the fast loop, run by the CI chaos job
(which deepens the sweep via the ``CHAOS_SEEDS`` env var).
"""

from __future__ import annotations

import pytest

from repro.attacks.harness import evaluate_tee, expected_paper_matrix
from repro.common.types import AttackOutcome
from repro.obs.export import render_prometheus
from tests.faults.chaoslib import (
    chaos_seed_count,
    chaos_tee,
    check_invariants,
    flight_guard,
    kitchen_sink_plan,
    run_lifecycle,
    transport_chaos_plan,
)

pytestmark = pytest.mark.chaos


def _fault_free_measurements(count: int = 8) -> list[bytes]:
    from repro.core.enclave import EnclaveConfig
    from repro.faults import FaultPlan

    tee = chaos_tee(FaultPlan.empty(), observability=False)
    return [tee.launch_enclave(f"chaos-enclave-{i}".encode() * 8,
                               EnclaveConfig(name=f"chaos{i}",
                                             heap_pages_max=64)).measurement
            for i in range(count)]


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_transport_chaos_full_lifecycle(seed: int):
    """The acceptance run: 10% drop on both queues, 8 enclaves, no hangs.

    Bounded retries mean the test itself is the termination proof: if
    any invocation hung, the suite would never return (pytest-level
    wall-clock is the backstop).
    """
    tee = chaos_tee(transport_chaos_plan(seed))
    with flight_guard(tee, label="transport-chaos"):
        readbacks = run_lifecycle(tee, enclaves=8)
        # Binding: every enclave read back its own secret through
        # degraded transport — a cross-delivered response would corrupt
        # at least one.
        assert readbacks == [f"secret-of-{i}".encode() for i in range(8)]
        check_invariants(tee.system)
    injector = tee.system.faults
    assert injector.stats.total_fired > 0, \
        "a 10% plan that never fired is not a chaos run"

    # Observability: every fired fault is an instant span on the
    # ``faults`` track and a sample in the metrics export.
    fault_spans = tee.system.obs.tracer.find("fault:")
    assert len(fault_spans) == injector.stats.total_fired
    families = {m.name: m for m in tee.system.obs.metrics.families()}
    injected = families["hypertee_faults_injected_total"]
    assert sum(c.value for _, c in injected.samples()) == \
        injector.stats.total_fired
    assert "hypertee_faults_injected_total" in render_prometheus(
        tee.system.obs.metrics)


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_chaos_measurements_match_fault_free_reference(seed: int):
    """Idempotency end-to-end: retries never double-EADD.

    A double-applied EADD would fold an extra page hash into the
    measurement; equality with the fault-free reference is therefore a
    bit-level proof that no retried request was applied twice.
    """
    reference = _fault_free_measurements()
    tee = chaos_tee(transport_chaos_plan(seed, drop=0.15, corrupt=0.08,
                                         duplicate=0.08),
                    observability=False)
    from repro.core.enclave import EnclaveConfig

    for i, expected in enumerate(reference):
        enclave = tee.launch_enclave(
            f"chaos-enclave-{i}".encode() * 8,
            EnclaveConfig(name=f"chaos{i}", heap_pages_max=64))
        assert enclave.measurement == expected
    check_invariants(tee.system)


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_kitchen_sink_chaos_terminates(seed: int):
    """All eleven fault points at once; the platform still completes."""
    tee = chaos_tee(kitchen_sink_plan(seed))
    with flight_guard(tee, label="kitchen-sink"):
        readbacks = run_lifecycle(tee, enclaves=4)
        assert readbacks == [f"secret-of-{i}".encode() for i in range(4)]
        check_invariants(tee.system)
    # Late answers to cancelled requests must be discarded, not mixed
    # into later invocations' slots.
    for shard in tee.system.shard_pool.shards:
        stats = shard.mailbox.stats
        assert stats.requests_cancelled >= stats.stale_responses


def test_table6_outcomes_unchanged_under_faults():
    """The defense matrix is about architecture, not weather: HyperTEE
    defends all five channels even on a degraded fabric."""
    from repro.baselines.hypertee_adapter import HyperTEEAdapter

    def faulted_hypertee():
        return HyperTEEAdapter(tee=chaos_tee(
            transport_chaos_plan(seed=1, drop=0.05, corrupt=0.03,
                                 duplicate=0.03),
            observability=False))

    outcomes = {channel: result.outcome
                for channel, result in evaluate_tee(faulted_hypertee).items()}
    assert outcomes == expected_paper_matrix()["hypertee"]
    assert set(outcomes.values()) == {AttackOutcome.DEFENDED}
