"""Each fault point exercised in isolation, with probability-1 rules.

These drive the Mailbox and the EMS runtime directly (below EMCall), so
every injected behaviour is observable without retry machinery on top.
"""

from __future__ import annotations

import pytest

from repro.common.packets import (
    PrimitiveRequest,
    PrimitiveResponse,
    ResponseStatus,
)
from repro.common.types import Primitive, Privilege
from repro.ems.shardpool import EMSShard
from repro.errors import MailboxError
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.hw.mailbox import Mailbox


def _request(request_id: int, **kwargs) -> PrimitiveRequest:
    return PrimitiveRequest(request_id=request_id, primitive=Primitive.EWB,
                            enclave_id=None, privilege=Privilege.SUPERVISOR,
                            **kwargs)


def _mailbox_with(*rules: FaultRule, seed: int = 7) -> Mailbox:
    mailbox = Mailbox()
    mailbox.faults = FaultInjector(FaultPlan(seed=seed, rules=rules))
    return mailbox


# -- mailbox: request leg ---------------------------------------------------


def test_request_drop_loses_packet_but_claims_slot():
    mailbox = _mailbox_with(FaultRule("mailbox.request.drop", count=1))
    mailbox.push_request(_request(1))
    assert mailbox.stats.requests_dropped == 1
    assert mailbox.fetch_requests() == []
    # The slot stays claimed: EMCall polls the id until its deadline...
    assert mailbox.poll_response(1) is None
    # ...and the id cannot be reused while outstanding.
    with pytest.raises(MailboxError):
        mailbox.push_request(_request(1))


def test_request_corrupt_discarded_at_ems_rx_edge():
    mailbox = _mailbox_with(FaultRule("mailbox.request.corrupt", count=1))
    mailbox.push_request(_request(1))
    assert mailbox.pending_request_count() == 1  # in flight, CRC-broken
    assert mailbox.fetch_requests() == []        # Rx edge discards it
    assert mailbox.stats.corrupt_discards == 1


def test_request_duplicate_suppressed_by_sequence_check():
    mailbox = _mailbox_with(FaultRule("mailbox.request.duplicate", count=1))
    mailbox.push_request(_request(1))
    assert mailbox.pending_request_count() == 2
    fetched = mailbox.fetch_requests()
    assert [r.request_id for r in fetched] == [1]
    assert mailbox.stats.duplicate_discards == 1


def test_queue_full_burst_refuses_magnitude_pushes():
    mailbox = _mailbox_with(
        FaultRule("mailbox.queue_full", count=1, magnitude=3))
    for request_id in (1, 2, 3):
        with pytest.raises(MailboxError, match="injected burst"):
            mailbox.push_request(_request(request_id))
    # The burst is spent; the fourth push goes through.
    mailbox.push_request(_request(4))
    assert mailbox.stats.injected_queue_full == 3
    assert [r.request_id for r in mailbox.fetch_requests()] == [4]


# -- mailbox: response leg ---------------------------------------------------


def _deliver(mailbox: Mailbox, request_id: int) -> None:
    mailbox.push_request(_request(request_id))
    mailbox.fetch_requests()


def test_response_drop_keeps_request_outstanding():
    mailbox = _mailbox_with(FaultRule("mailbox.response.drop", count=1))
    _deliver(mailbox, 1)
    mailbox.push_response(PrimitiveResponse(1, ResponseStatus.OK))
    assert mailbox.stats.responses_dropped == 1
    assert mailbox.poll_response(1) is None  # still waiting


def test_response_corrupt_discarded_at_cs_rx_edge():
    mailbox = _mailbox_with(FaultRule("mailbox.response.corrupt", count=1))
    _deliver(mailbox, 1)
    mailbox.push_response(PrimitiveResponse(1, ResponseStatus.OK))
    assert mailbox.poll_response(1) is None  # CRC discard, counted
    assert mailbox.stats.corrupt_discards == 1
    # The slot survives the discard; a retried response gets through.
    mailbox.push_response(PrimitiveResponse(1, ResponseStatus.OK))
    assert mailbox.poll_response(1).ok


def test_response_duplicate_never_double_binds():
    mailbox = _mailbox_with(FaultRule("mailbox.response.duplicate", count=1))
    _deliver(mailbox, 1)
    mailbox.push_response(PrimitiveResponse(1, ResponseStatus.OK))
    assert mailbox.stats.duplicate_discards == 1
    assert mailbox.pending_response_count() == 1
    assert mailbox.poll_response(1).ok


def test_cancelled_request_turns_late_response_stale():
    mailbox = _mailbox_with()  # no rules needed for this path
    _deliver(mailbox, 1)
    mailbox.cancel_request(1)
    assert mailbox.stats.requests_cancelled == 1
    # The EMS posts the answer late; it is discarded, not an error.
    mailbox.push_response(PrimitiveResponse(1, ResponseStatus.OK))
    assert mailbox.stats.stale_responses == 1
    assert mailbox.pending_response_count() == 0
    with pytest.raises(MailboxError):
        mailbox.poll_response(1)  # the slot is gone


def test_fabric_latency_stretches_transfer_leg():
    mailbox = _mailbox_with(FaultRule("fabric.latency", count=1,
                                      magnitude=500))
    assert mailbox.transfer_cycles("request") == Mailbox.TRANSFER_CYCLES + 500
    assert mailbox.transfer_cycles("response") == Mailbox.TRANSFER_CYCLES


# -- EMS runtime points ------------------------------------------------------


def _wire(system, *rules: FaultRule, seed: int = 11) -> EMSShard:
    """Arm ``rules`` on the platform and return its one EMS."""
    plan = FaultPlan(seed=seed, rules=rules)
    system.enable_fault_injection(plan)
    return system.shard_pool.shards[0]


def test_handler_exception_answers_transient(system):
    shard = _wire(system, FaultRule("ems.handler.exception", count=1))
    request = _request(901, args={"pages": 1})
    response = shard.runtime.dispatch(request)
    assert response.status is ResponseStatus.TRANSIENT
    assert shard.runtime.stats.transient_failures == 1
    # The crash fired before the handler ran: nothing was swapped.
    assert shard.runtime.stats.served == 0


def test_handler_stall_defers_and_inflates_response(system):
    shard = _wire(system, FaultRule("ems.handler.stall", count=1,
                                    magnitude=120_000))
    shard.mailbox.push_request(_request(902, args={"pages": 1}))
    assert shard.runtime.pump() == 1
    assert shard.runtime.stats.stalled_responses == 1
    # Held back for magnitude // 50_000 = 2 pump rounds.
    assert shard.mailbox.poll_response(902) is None
    shard.runtime.pump()
    assert shard.mailbox.poll_response(902) is None
    shard.runtime.pump()
    response = shard.mailbox.poll_response(902)
    assert response is not None
    assert response.service_cycles >= 120_000  # the stall is accounted


def test_core_pause_freezes_pump_rounds(system):
    shard = _wire(system, FaultRule("ems.core.pause", count=1, magnitude=3))
    shard.mailbox.push_request(_request(903, args={"pages": 1}))
    assert shard.runtime.pump() == 0  # round 1 of the pause
    assert shard.runtime.pump() == 0  # round 2
    assert shard.runtime.pump() == 0  # round 3
    assert shard.runtime.stats.paused_rounds == 3
    assert shard.runtime.pump() == 1  # thawed; the backlog drains
    assert shard.mailbox.poll_response(903).ok


def test_idempotent_replay_answers_from_cache(system):
    shard = system.shard_pool.shards[0]
    first = _request(904, args={"pages": 1},
                     idempotency_key="c0-k77")
    retry = _request(905, args={"pages": 1},
                     idempotency_key="c0-k77")
    assert shard.runtime.dispatch(first).ok
    replayed = shard.runtime.dispatch(retry)
    assert replayed.ok
    assert replayed.result.get("replayed") is True
    assert shard.runtime.stats.idempotent_replays == 1
    assert shard.runtime.stats.served == 1  # the handler ran exactly once
