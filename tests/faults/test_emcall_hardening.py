"""EMCall retry/timeout hardening: deadlines, backoff, idempotent retry.

The timeout tests double as the regression pin for the original bug:
the poll loop used to spin forever on a lost response (no deadline, no
typed error). It must now terminate within ``deadline_polls`` per attempt
and surface a typed :class:`EMCallTimeout` — or a structured
:class:`DegradedResult` when the policy opts into degraded mode.
"""

from __future__ import annotations

import pytest

from repro.common.types import Primitive, Privilege
from repro.core.api import APIError, HyperTEE
from repro.core.enclave import EnclaveConfig
from repro.cs.emcall import DegradedResult, RetryPolicy
from repro.errors import EMCallError, EMCallTimeout
from repro.eval.calibration import (
    EMCALL_DEADLINE_POLLS,
    EMCALL_POLL_INTERVAL_CYCLES,
)
from repro.faults import FaultPlan, FaultRule


def _black_hole(system) -> None:
    """An EMS that eats requests and never answers (crashed runtime)."""
    mailbox = system.shard_pool.shards[0].mailbox
    system.emcall._ems_pump = lambda: mailbox.fetch_requests()


@pytest.fixture
def shard(system):
    """The platform's one EMS, behind the gate under test."""
    return system.shard_pool.shards[0]


@pytest.fixture
def supervisor(system):
    system.primary_core.privilege = Privilege.SUPERVISOR
    return system.primary_core


# -- the timeout regression (the poll loop used to hang here) ---------------


def test_lost_response_raises_typed_timeout(system, supervisor):
    _black_hole(system)
    with pytest.raises(EMCallTimeout) as excinfo:
        system.emcall.invoke(Primitive.ECREATE,
                             {"config": EnclaveConfig()}, core=supervisor)
    err = excinfo.value
    assert err.primitive == "ECREATE"
    assert err.attempts == system.emcall.retry_policy.max_attempts
    assert err.deadline_polls == EMCALL_DEADLINE_POLLS["ECREATE"]
    assert err.waited_cycles > 0
    # Typed: still catchable as the generic gate error.
    assert isinstance(err, EMCallError)


def test_poll_loop_is_bounded(system, shard, supervisor):
    _black_hole(system)
    with pytest.raises(EMCallTimeout):
        system.emcall.invoke(Primitive.EWB, {"pages": 1}, core=supervisor)
    budget = (EMCALL_DEADLINE_POLLS["EWB"]
              * system.emcall.retry_policy.max_attempts)
    assert shard.mailbox.stats.poll_attempts <= budget
    # Every timed-out attempt released its slot (late answers go stale).
    assert shard.mailbox.stats.requests_cancelled == \
        system.emcall.retry_policy.max_attempts


def test_degrade_policy_returns_structured_result(system, supervisor):
    _black_hole(system)
    system.emcall.retry_policy = RetryPolicy(max_attempts=2, degrade=True)
    outcome = system.emcall.invoke(Primitive.EWB, {"pages": 1},
                                   core=supervisor)
    assert isinstance(outcome, DegradedResult)
    assert outcome.degraded and not outcome.ok
    assert outcome.response is None
    assert outcome.attempts == 2
    assert len(outcome.request_ids) == 2  # each attempt's id, for forensics
    assert outcome.cs_cycles > 0
    assert outcome.result("frames", default="unreached") == "unreached"


def test_detached_ems_is_a_typed_error_not_a_hang(system, shard, supervisor):
    """Invoking before secure boot wires the pump fails fast and typed."""
    system.emcall._ems_pump = None
    with pytest.raises(EMCallError, match="EMS not attached"):
        system.emcall.invoke(Primitive.EWB, {"pages": 1}, core=supervisor)
    assert shard.mailbox.stats.requests_sent == 0  # nothing even queued


def test_degradation_is_visible_in_metrics(system, supervisor):
    system.enable_observability()
    _black_hole(system)
    system.emcall.retry_policy = RetryPolicy(max_attempts=2, degrade=True)
    outcome = system.emcall.invoke(Primitive.EWB, {"pages": 1},
                                   core=supervisor)
    assert outcome.degraded
    families = {m.name: m for m in system.obs.metrics.families()}
    degraded = families["hypertee_emcall_degraded_total"]
    assert sum(c.value for _, c in degraded.samples()) == 1
    # The successful-path flag is the complement, not a constant.
    clean = type(system)(system.config)
    core = clean.primary_core
    core.privilege = Privilege.SUPERVISOR
    result = clean.emcall.invoke(Primitive.EWB, {"pages": 1}, core=core)
    assert result.degraded is False


def test_degraded_result_surfaces_as_api_error(system):
    _black_hole(system)
    system.emcall.retry_policy = RetryPolicy(max_attempts=2, degrade=True)
    tee = HyperTEE(system=system)
    with pytest.raises(APIError, match="degraded after 2 attempts"):
        tee.launch_enclave(b"code", EnclaveConfig(name="doomed"))


# -- retry paths that recover ------------------------------------------------


def test_dropped_response_retried_and_replayed(system, shard, supervisor):
    system.enable_fault_injection(FaultPlan(rules=(
        FaultRule("mailbox.response.drop", count=1),)))
    result = system.emcall.invoke(Primitive.ECREATE,
                                  {"config": EnclaveConfig()},
                                  core=supervisor)
    assert result.ok
    assert result.attempts == 2
    # The EMS executed ECREATE once and replayed the cached outcome for
    # the retry — no double-create.
    assert result.response.result.get("replayed") is True
    assert shard.runtime.stats.idempotent_replays == 1
    assert len(shard.enclaves.enclaves) == 1
    # The wasted polls and the backoff wait are CS-visible.
    assert shard.mailbox.stats.responses_dropped == 1
    assert shard.mailbox.stats.requests_cancelled == 1


def test_transient_handler_crash_is_retried(system, shard, supervisor):
    system.enable_fault_injection(FaultPlan(rules=(
        FaultRule("ems.handler.exception", count=1),)))
    result = system.emcall.invoke(Primitive.ECREATE,
                                  {"config": EnclaveConfig()},
                                  core=supervisor)
    assert result.ok
    assert result.attempts == 2
    assert shard.runtime.stats.transient_failures == 1
    # The crash fired before the handler ran, so the retry is the first
    # (and only) real execution: nothing was replayed, nothing doubled.
    assert shard.runtime.stats.idempotent_replays == 0
    assert len(shard.enclaves.enclaves) == 1


def test_queue_full_burst_is_ridden_out(system, shard, supervisor):
    system.enable_fault_injection(FaultPlan(rules=(
        FaultRule("mailbox.queue_full", count=1, magnitude=2),)))
    result = system.emcall.invoke(Primitive.EWB, {"pages": 1},
                                  core=supervisor)
    assert result.ok
    assert result.attempts == 3  # two refused pushes, then through
    assert shard.mailbox.stats.injected_queue_full == 2


def test_retries_cost_cycles(system, supervisor):
    """The timed-out attempt's polls and the backoff are all charged."""
    system.enable_fault_injection(FaultPlan(rules=(
        FaultRule("mailbox.response.drop", count=1),)))
    faulted = system.emcall.invoke(Primitive.ECREATE,
                                   {"config": EnclaveConfig()},
                                   core=supervisor)
    assert faulted.attempts == 2
    # Attempt 1 polled out its full deadline before being cancelled;
    # every one of those waits is CS-visible, plus a non-zero backoff.
    wasted_polls = (EMCALL_DEADLINE_POLLS["ECREATE"] - 1) \
        * EMCALL_POLL_INTERVAL_CYCLES
    backoff_floor = system.emcall.retry_policy.backoff_base_cycles
    assert faulted.cs_cycles > wasted_polls + backoff_floor


def test_fabric_latency_spike_lands_in_cs_cycles(system, supervisor):
    spike = 5_000
    system.enable_fault_injection(FaultPlan(rules=(
        FaultRule("fabric.latency", count=1, magnitude=spike),)))
    result = system.emcall.invoke(Primitive.EWB, {"pages": 1},
                                  core=supervisor)
    assert result.ok and result.attempts == 1
    clean_system = type(system)(system.config)
    clean_core = clean_system.primary_core
    clean_core.privilege = Privilege.SUPERVISOR
    clean = clean_system.emcall.invoke(Primitive.EWB, {"pages": 1},
                                       core=clean_core)
    assert result.cs_cycles == clean.cs_cycles + spike


def test_retry_telemetry_reaches_metrics(system, supervisor):
    system.enable_observability()
    system.enable_fault_injection(FaultPlan(rules=(
        FaultRule("mailbox.response.drop", count=1),)))
    result = system.emcall.invoke(Primitive.ECREATE,
                                  {"config": EnclaveConfig()},
                                  core=supervisor)
    assert result.attempts == 2
    names = {m.name for m in system.obs.metrics.families()}
    assert {"hypertee_faults_injected_total",
            "hypertee_emcall_retries_total",
            "hypertee_emcall_timeouts_total"} <= names
