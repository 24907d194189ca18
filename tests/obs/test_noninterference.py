"""Observability is out-of-band: tracing on vs off changes nothing.

The paper's architecture makes EMS-side management invisible to the CS;
the model's instrumentation must inherit that property. These tests run
the same workloads with tracing enabled and disabled and assert the
modelled results are bit-identical: cycle counts, stats summaries, the
Table VI attack outcomes, and the Fig. 8a rows.

The same guarantee covers fault injection: a wired injector with an
*empty* plan draws nothing and changes nothing (the chaos machinery is
opt-in weather, never a tax on clean runs).
"""

from __future__ import annotations

from repro.attacks.harness import defense_matrix, expected_paper_matrix
from repro.baselines.hypertee_adapter import HyperTEEAdapter
from repro.common.types import Permission, Primitive
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.eval.regenerate import fig8a_rows, table4_rows
from repro.obs.cli import run_instrumented_scenario


def _workload(tee: HyperTEE) -> dict:
    """A quickstart-style run; returns everything attacker-visible."""
    enclave = tee.launch_enclave(b"noninterference " * 24,
                                 EnclaveConfig(name="ni", heap_pages_max=64))
    with enclave.running():
        vaddr = enclave.ealloc(4)
        enclave.write(vaddr, b"secret")
        data = enclave.read(vaddr, 6)
        enclave.write(vaddr + 5 * 4096, b"demand")
        region = enclave.create_shared_region(2, Permission.RW)
        share = enclave.attach(region)
        enclave.write(share, b"shared")
        enclave.detach(region)
        enclave.destroy_region(region)
        quote = enclave.attest(report_data=b"ni")
        enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    enclave.destroy()
    return {
        "cycles": tee.primitive_cycles,
        "data": data,
        "measurement": quote.enclave.measurement,
        "signature": quote.enclave.signature,
        "summary": tee.system.stats_summary(),
    }


def test_tracing_does_not_perturb_the_model():
    plain = HyperTEE(SystemConfig(seed=1234))
    traced = HyperTEE(SystemConfig(seed=1234))
    traced.system.enable_observability()
    traced.system.obs.tracer.enabled = True

    a = _workload(plain)
    b = _workload(traced)

    assert a["cycles"] == b["cycles"]
    assert a["data"] == b["data"]
    assert a["measurement"] == b["measurement"]
    assert a["signature"] == b["signature"]
    assert a["summary"] == b["summary"]
    # And the traced run really did record something.
    assert len(traced.system.obs.tracer) > 0
    assert len(plain.system.obs.tracer) == 0


def test_empty_fault_plan_is_bit_identical():
    """An attached injector with no rules is pure dead weight.

    The hardened EMCall path (deadlines, idempotency keys, retry
    plumbing) and the wired-but-empty injector must not shift a single
    cycle, stat, or signature relative to a plain system — faults are
    opt-in weather, not a tax.
    """
    from repro.faults import FaultPlan

    plain = HyperTEE(SystemConfig(seed=1234))
    injected = HyperTEE(SystemConfig(seed=1234))
    injected.system.enable_fault_injection(FaultPlan.empty())

    a = _workload(plain)
    b = _workload(injected)

    assert a["cycles"] == b["cycles"]
    assert a["data"] == b["data"]
    assert a["measurement"] == b["measurement"]
    assert a["signature"] == b["signature"]
    assert a["summary"] == b["summary"]
    # The injector really was consulted and really did nothing.
    assert injected.system.faults is not None
    assert injected.system.faults.stats.total_fired == 0


def test_empty_fault_plan_with_tracing_matches_tracing_alone():
    """Observability + empty injector == observability alone."""
    from repro.faults import FaultPlan

    traced = HyperTEE(SystemConfig(seed=77))
    traced.system.enable_observability()
    traced.system.obs.tracer.enabled = True
    both = HyperTEE(SystemConfig(seed=77))
    both.system.enable_observability()
    both.system.obs.tracer.enabled = True
    both.system.enable_fault_injection(FaultPlan.empty())

    a = _workload(traced)
    b = _workload(both)
    assert a == b
    # No phantom fault spans on the timeline either.
    assert both.system.obs.tracer.find("fault:") == []


def test_table6_attacks_identical_with_tracing_on():
    def plain_factory():
        return HyperTEEAdapter()

    def traced_factory():
        tee = HyperTEE(SystemConfig(cs_memory_mb=96))
        tee.system.enable_observability()
        tee.system.obs.tracer.enabled = True
        return HyperTEEAdapter(tee=tee)

    plain = defense_matrix({"hypertee": plain_factory})["hypertee"]
    traced = defense_matrix({"hypertee": traced_factory})["hypertee"]

    # AttackResult is a frozen dataclass: accuracy, outcome, and detail
    # must all match bit-for-bit, channel by channel.
    assert plain == traced
    expected = expected_paper_matrix()["hypertee"]
    for channel, result in traced.items():
        assert result.outcome is expected[channel], channel


def test_fig8a_bench_unaffected_by_an_instrumented_run():
    before = fig8a_rows()
    run_instrumented_scenario(seed=99)
    assert fig8a_rows() == before


def _batched_workload(tee: HyperTEE) -> dict:
    """The batched fast path; returns everything attacker-visible."""
    enclave = tee.launch_enclave_batched(b"ni batched " * 24,
                                         EnclaveConfig(name="nib",
                                                       heap_pages_max=64),
                                         batch_size=8)
    with enclave.running():
        for _ in range(2):
            vaddrs = enclave.ealloc_many([1] * 8)
            enclave.write(vaddrs[0], b"batched secret")
            data = enclave.read(vaddrs[0], 14)
            enclave.efree_many(vaddrs)
        quote = enclave.attest(report_data=b"nib")
    enclave.destroy()
    return {
        "cycles": tee.primitive_cycles,
        "data": data,
        "measurement": quote.enclave.measurement,
        "signature": quote.enclave.signature,
        "summary": tee.system.stats_summary(),
    }


def test_batched_path_identical_with_slo_and_flightrec_live():
    """PR-6 layers (SLO, attribution, flight recorder) on the fast path.

    The batched workload drives every new probe — per-element SLO
    amortization, batch envelopes, mailbox-wait residency, per-enclave
    attribution — and the modelled results must still be bit-identical
    to an uninstrumented system.
    """
    plain = HyperTEE(SystemConfig(seed=4242))
    traced = HyperTEE(SystemConfig(seed=4242))
    traced.system.enable_observability()

    a = _batched_workload(plain)
    b = _batched_workload(traced)
    assert a == b
    # The new layers really were live, not just attached.
    obs = traced.system.obs
    assert "emcall.batch" in obs.slo.operations()
    assert len(obs.flightrec) > 0
    assert any(row["enclave"].startswith("e")
               for row in obs.attribution.table())


def test_table4_rows_unaffected_by_an_instrumented_run():
    """The Table IV cost model is analytic; a fully instrumented run
    (SLO engine, attribution, flight recorder all recording) must not
    shift a single formula input."""
    before = table4_rows()
    tee = run_instrumented_scenario(seed=7)
    assert len(tee.system.obs.flightrec) > 0  # the recorder was live
    assert table4_rows() == before


def test_flightrec_and_slo_are_idle_until_probed():
    """Enabled-but-idle: attaching observability records nothing until
    the workload actually runs, and an untouched system's registry holds
    zero SLO samples, zero flight events, zero attribution rows."""
    tee = HyperTEE(SystemConfig(seed=5))
    tee.system.enable_observability()
    obs = tee.system.obs
    assert len(obs.flightrec) == 0
    assert obs.flightrec.trips == 0
    assert obs.slo.operations() == []
    assert obs.slo.report() == []
    assert obs.attribution.table() == []
