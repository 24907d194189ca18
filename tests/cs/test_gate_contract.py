"""What the gate's one retry loop must keep, on one shard and on four.

* A rejected call raises its exact error and leaves no trace: no packet
  is sent and no enclave ID or request ID is minted on any shard.
* A clean call, scalar or batched, costs exactly one packet each way
  (one push, fetch, post and poll), one ``emcall-jitter`` draw and no
  ``emcall-backoff`` or ``ems-schedule`` draw.
"""

from __future__ import annotations

import collections
import random

import pytest

from repro.common.types import Primitive, Privilege
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.errors import EMCallError, PrivilegeViolation
from repro.eval.calibration import EMCALL_POLL_JITTER_CYCLES


def _platform(shards: int) -> HyperTEE:
    return HyperTEE(SystemConfig(seed=0x6A7E, ems_shards=shards))


def _requests_sent(system) -> list[int]:
    return [gate.mailbox.stats.requests_sent for gate in system.gates]


def _next_ids(tee: HyperTEE) -> tuple:
    """The IDs the next clean calls receive.

    One ECREATE (its enclave ID and request ID), then one EWB per gate:
    EWB round-robins across shards, so each reads one gate's next
    request ID. ``pages=0`` makes the EWBs cheap sanity rejects.
    """
    system = tee.system
    core = system.primary_core
    core.privilege = Privilege.SUPERVISOR
    created = system.emcall.invoke(Primitive.ECREATE,
                                   {"config": EnclaveConfig()}, core=core)
    ewbs = [system.emcall.invoke(Primitive.EWB, {"pages": 0}, core=core)
            for _ in system.gates]
    return (created.result("enclave_id"), created.response.request_id,
            [result.response.request_id for result in ewbs])


def _ecreate_as_user(system, core):
    core.privilege = Privilege.USER
    system.emcall.invoke(Primitive.ECREATE, {"config": EnclaveConfig()},
                         core=core)


def _oversized_batch(system, core):
    # ECREATE elements would mint IDs and EWB elements would advance the
    # EWB round robin if anything were routed before the size check.
    core.privilege = Privilege.SUPERVISOR
    calls = [(Primitive.ECREATE, {"config": EnclaveConfig()}),
             (Primitive.EWB, {"pages": 1})] * 32
    system.emcall.invoke_batch(calls + [(Primitive.EWB, {"pages": 1})],
                               core=core)


def _batch_with_eenter(system, core):
    core.privilege = Privilege.SUPERVISOR
    system.emcall.invoke_batch(
        [(Primitive.ECREATE, {"config": EnclaveConfig()}),
         (Primitive.EENTER, {"enclave_id": 1})], core=core)


REJECTED = {
    "privilege": (PrivilegeViolation,
                  "ECREATE requires SUPERVISOR, core 0 is at USER",
                  _ecreate_as_user),
    "batch_size": (EMCallError, "batch of 65 exceeds EMCALL_BATCH_MAX=64",
                   _oversized_batch),
    "unbatchable": (EMCallError,
                    "EENTER switches the core context and cannot be batched",
                    _batch_with_eenter),
}


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_call_raises_and_leaves_no_trace(case: str, shards: int):
    exc_type, message, call = REJECTED[case]
    tee, twin = _platform(shards), _platform(shards)
    system = tee.system
    sent = _requests_sent(system)
    with pytest.raises(EMCallError) as excinfo:
        call(system, system.primary_core)
    assert type(excinfo.value) is exc_type
    assert str(excinfo.value) == message
    assert _requests_sent(system) == sent
    assert _next_ids(tee) == _next_ids(twin)


def _counting(obj, name: str, counts: collections.Counter) -> None:
    method = getattr(obj, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    setattr(obj, name, counted)


def _stream_state(rng, name: str):
    return rng.stream(name).getstate()


@pytest.mark.parametrize("width", (None, 4), ids=("scalar", "batch4"))
def test_clean_call_sends_one_packet_each_way_and_draws_jitter_once(width):
    tee = _platform(1)
    system = tee.system
    enclave = tee.launch_enclave(b"clean-call")
    enclave.enter()
    mailbox, rng = system.mailbox, system.rng
    counts: collections.Counter = collections.Counter()
    _counting(mailbox, "fetch_requests", counts)
    _counting(mailbox, "push_response", counts)
    stats = dict(vars(mailbox.stats))
    expected_jitter = random.Random()
    expected_jitter.setstate(_stream_state(rng, "emcall-jitter"))
    expected_jitter.randint(0, EMCALL_POLL_JITTER_CYCLES)
    backoff = _stream_state(rng, "emcall-backoff")
    schedule = _stream_state(rng, "ems-schedule")

    args = {"mode": "quote", "report_data": b"clean"}
    if width is None:
        result = system.emcall.invoke(Primitive.EATTEST, args,
                                      core=enclave.core)
    else:
        result = system.emcall.invoke_batch(
            [(Primitive.EATTEST, args)] * width, core=enclave.core)

    assert result.ok and result.attempts == 1
    delta = {name: value - stats[name]
             for name, value in vars(mailbox.stats).items()
             if value != stats[name]}
    expected = {"requests_sent": 1, "irqs_raised": 1, "poll_attempts": 1,
                "responses_delivered": 1}
    if width is not None:
        expected.update(batches_sent=1, batched_requests=width)
    assert delta == expected
    assert counts == {"fetch_requests": 1, "push_response": 1}
    assert _stream_state(rng, "emcall-jitter") == expected_jitter.getstate()
    assert _stream_state(rng, "emcall-backoff") == backoff
    assert _stream_state(rng, "ems-schedule") == schedule
    enclave.exit()
