"""Exact goldens for the batched-EMCall comm sweep and per-operation latency.

Two modelled outputs of the EMCall gate and iHub mailbox path are pinned
beside Table IV, refreshed the same way:

* ``tests/golden/batch_comm.json`` holds the multi-enclave alloc-heavy
  EALLOC/EFREE workload swept over batch sizes 1-32, each size on a
  fresh, identically seeded platform, so only the envelope packing
  differs. ``comm_cycles`` is everything the CS pays around the EMS
  service time: the gate dispatch, both fabric/mailbox legs and jitter.
  The batching acceptance bar, a >= 1.5x comm reduction per request at
  batch 8, is asserted on the same sweep (docs/performance.md).
* ``tests/golden/op_latency.json`` holds count/p50/p95/p99/mean per
  operation, read from the SLO digests of four observability-enabled
  scenarios.

The seeds, workload shapes, enclave code bytes and enclave names below
are all inputs of the goldens: changing any of them moves a pin.
Legitimate model changes refresh both files with::

    python -m pytest tests/eval/test_golden_gate.py --update-golden

then review the JSON diff like any other code change.
"""

from __future__ import annotations

import pytest

from repro.common.constants import CS_CORE_FREQ_HZ, EMS_CORE_FREQ_HZ
from repro.common.types import Permission, Primitive
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig

# -- batched EMCall: comm cycles per request ---------------------------------

BATCH_SEED = 0xBE4C
#: 1 is the scalar path, the baseline every reduction is taken against.
BATCH_SIZES = (1, 2, 4, 8, 16, 32)
ENCLAVES, ROUNDS, REGIONS_PER_ROUND = 4, 2, 32


def _run_series(batch_size: int) -> dict:
    """The alloc-heavy workload at one batch size, on a fresh platform."""
    tee = HyperTEE(SystemConfig(seed=BATCH_SEED, cs_cores=2))
    cores = tee.system.cores
    ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
    code = b"bench: alloc-heavy multi-enclave workload " * 128

    handles = [
        tee.launch_enclave(
            code,
            EnclaveConfig(name=f"bench-{i}",
                          heap_pages_max=2 * REGIONS_PER_ROUND),
            core=cores[i % len(cores)])
        for i in range(ENCLAVES)]

    requests = invocations = total = service = 0

    def account_scalar(result) -> None:
        nonlocal requests, invocations, total, service
        requests += 1
        invocations += 1
        total += result.cs_cycles
        service += int(result.response.service_cycles * ems_to_cs)

    def account_batch(result) -> None:
        nonlocal requests, invocations, total, service
        requests += len(result.responses)
        invocations += 1
        total += result.cs_cycles
        service += int(sum(r.service_cycles for r in result.responses)
                       * ems_to_cs)

    for enclave in handles:
        with enclave.running():
            for _ in range(ROUNDS):
                vaddrs: list[int] = []
                if batch_size == 1:
                    for _ in range(REGIONS_PER_ROUND):
                        result = tee.invoke_user(
                            Primitive.EALLOC, {"pages": 1}, enclave.core)
                        account_scalar(result)
                        vaddrs.append(result.result("vaddr"))
                    for vaddr in vaddrs:
                        account_scalar(tee.invoke_user(
                            Primitive.EFREE, {"vaddr": vaddr}, enclave.core))
                else:
                    for start in range(0, REGIONS_PER_ROUND, batch_size):
                        count = min(batch_size, REGIONS_PER_ROUND - start)
                        result = tee.invoke_user_batch(
                            [(Primitive.EALLOC, {"pages": 1})] * count,
                            enclave.core)
                        account_batch(result)
                        vaddrs.extend(r.result["vaddr"]
                                      for r in result.responses)
                    for start in range(0, len(vaddrs), batch_size):
                        chunk = vaddrs[start:start + batch_size]
                        account_batch(tee.invoke_user_batch(
                            [(Primitive.EFREE, {"vaddr": v}) for v in chunk],
                            enclave.core))
    for enclave in handles:
        enclave.destroy()

    comm = total - service
    return {
        "batch_size": batch_size,
        "requests": requests,
        "invocations": invocations,
        "total_cs_cycles": total,
        "service_cs_cycles": service,
        "comm_cycles": comm,
        "comm_cycles_per_request": round(comm / requests, 3),
    }


@pytest.fixture(scope="module")
def sweep() -> dict[int, dict]:
    """Batch size -> series point, computed once for the module."""
    return {size: _run_series(size) for size in BATCH_SIZES}


def _reduction(sweep: dict[int, dict], size: int) -> float:
    return (sweep[1]["comm_cycles_per_request"]
            / sweep[size]["comm_cycles_per_request"])


def test_batch_comm_matches_golden(sweep, golden):
    golden("batch_comm", {"seed": BATCH_SEED, "series": list(sweep.values())})


def test_batching_cuts_comm_at_least_1_5x_at_batch_8(sweep):
    assert _reduction(sweep, 8) >= 1.5


def test_reduction_rises_with_batch_size_and_stays_bounded(sweep):
    # Every extra element amortizes the fixed doorbell/dispatch cost a
    # bit further, but never below the per-element marginal costs.
    reductions = [_reduction(sweep, size) for size in BATCH_SIZES]
    assert reductions == sorted(reductions)
    assert reductions[0] == 1.0
    assert _reduction(sweep, 32) < 20.0


def test_batching_changes_only_the_doorbell_count(sweep):
    assert len({point["requests"] for point in sweep.values()}) == 1
    assert sweep[8]["invocations"] * 8 == sweep[8]["requests"]


# -- per-operation latency from the SLO digests ------------------------------

LATENCY_SEED = 0x9E96


def _scenario_lifecycle(seed: int) -> HyperTEE:
    """Create/enter/exit/destroy churn: the Table IV lifecycle row."""
    tee = HyperTEE(SystemConfig(seed=seed))
    tee.system.enable_observability()
    for round_index in range(4):
        enclave = tee.launch_enclave(
            b"regress lifecycle enclave " * 16,
            EnclaveConfig(name=f"regress-{round_index}", heap_pages_max=32))
        with enclave.running():
            vaddr = enclave.ealloc(2)
            enclave.write(vaddr, b"regress bytes")
            enclave.efree(vaddr)
        enclave.destroy()
    return tee


def _scenario_alloc_scalar(seed: int) -> HyperTEE:
    """Scalar EALLOC/EFREE rounds: the hot memory-management path."""
    tee = HyperTEE(SystemConfig(seed=seed))
    tee.system.enable_observability()
    enclave = tee.launch_enclave(b"regress scalar alloc " * 16,
                                 EnclaveConfig(name="regress-scalar",
                                               heap_pages_max=128))
    with enclave.running():
        for _ in range(3):
            vaddrs = [enclave.ealloc(1) for _ in range(8)]
            for vaddr in vaddrs:
                enclave.efree(vaddr)
    enclave.destroy()
    return tee


def _scenario_alloc_batch8(seed: int) -> HyperTEE:
    """The batched fast path: 8-element EALLOC/EFREE envelopes."""
    tee = HyperTEE(SystemConfig(seed=seed))
    tee.system.enable_observability()
    enclave = tee.launch_enclave(b"regress batched alloc " * 16,
                                 EnclaveConfig(name="regress-batch",
                                               heap_pages_max=128))
    with enclave.running():
        for _ in range(3):
            vaddrs = enclave.ealloc_many([1] * 8)
            enclave.efree_many(vaddrs)
    enclave.destroy()
    return tee


def _scenario_mixed(seed: int) -> HyperTEE:
    """Shared memory, demand faults, attestation, and EWB pressure."""
    tee = HyperTEE(SystemConfig(seed=seed))
    tee.system.enable_observability()
    enclave = tee.launch_enclave(b"regress mixed workload " * 16,
                                 EnclaveConfig(name="regress-mixed",
                                               heap_pages_max=64))
    with enclave.running():
        vaddr = enclave.ealloc(4)
        enclave.write(vaddr, b"mixed bytes")
        enclave.write(vaddr + 5 * 4096, b"demand page")  # page-fault path
        region = enclave.create_shared_region(2, Permission.RW)
        share_va = enclave.attach(region)
        enclave.write(share_va, b"shared")
        enclave.detach(region)
        enclave.destroy_region(region)
        enclave.attest(report_data=b"regress")
        enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    enclave.destroy()
    return tee


SCENARIOS = {
    "lifecycle": _scenario_lifecycle,
    "alloc_scalar": _scenario_alloc_scalar,
    "alloc_batch8": _scenario_alloc_batch8,
    "mixed": _scenario_mixed,
}


def run_scenario(name: str, seed: int) -> dict[str, dict[str, float]]:
    """One scenario's per-operation latency stats at ``seed``."""
    slo = SCENARIOS[name](seed).system.obs.slo
    out: dict[str, dict[str, float]] = {}
    for operation in sorted(slo.operations()):
        digest = slo.digest(operation)
        out[operation] = {
            "count": digest.count,
            "p50": round(digest.percentile(0.50), 3),
            "p95": round(digest.percentile(0.95), 3),
            "p99": round(digest.percentile(0.99), 3),
            "mean": round(digest.mean, 3),
        }
    return out


@pytest.fixture(scope="module")
def latency() -> dict[str, dict]:
    """Scenario -> operation -> stats at the golden seed."""
    return {name: run_scenario(name, LATENCY_SEED) for name in SCENARIOS}


def test_op_latency_matches_golden(latency, golden):
    golden("op_latency", {"seed": LATENCY_SEED, "scenarios": latency})


def test_seed_moves_the_emcall_jitter(latency):
    # The seed drives the gate/fabric jitter draws, so the golden pins
    # one draw sequence, not a seed-independent constant.
    assert run_scenario("alloc_scalar", LATENCY_SEED + 1) \
        != latency["alloc_scalar"]
