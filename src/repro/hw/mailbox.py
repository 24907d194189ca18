"""The dedicated mailbox between CS and EMS (paper Fig. 3, Section III-C).

Traffic flows::

    EMCall Tx ring  --transmitter-->  mailbox request queue  --irq--> EMS Rx
    EMS workers     --------------->  mailbox response queue <--poll-- EMCall

Security properties enforced structurally:

* The queues are invisible to CS software: only :class:`MailboxPort`
  handles are exported, and the CS-side port can *only* push requests and
  pop the response matching a request id it issued. There is no "peek all
  responses" on the CS side (exclusive request/response binding).
* Only EMCall holds the CS-side port (constructed by the SoC and handed
  to the firmware), which is what blocks direct request forgery from
  untrusted software.
* Response retrieval is by polling, never via CS interrupt handlers
  (whose code is untrusted).

Degraded-weather behaviour (fault injection; ``docs/fault_injection.md``):
packets travel in envelopes carrying transport metadata. A drop fault
loses the envelope in flight; a corrupt fault breaks its CRC so the
*receiving* edge discards it (request Rx on the EMS side, response Rx on
the CS side) — a corrupted packet can therefore never be delivered, let
alone to the wrong request id. A duplicate fault re-delivers the
envelope; the Rx sequence check drops the copy. All of it is counted in
:class:`MailboxStats` and surfaced through the observability probes.
"""

from __future__ import annotations

import collections
import dataclasses

from repro.common.packets import (
    BatchRequest,
    BatchResponse,
    PrimitiveRequest,
    PrimitiveResponse,
)
from repro.errors import MailboxError
from repro.eval.calibration import MAILBOX_TRANSFER_CYCLES

#: Anything the CS side may transmit: a scalar request or one batch
#: envelope (one doorbell/IRQ for N packed requests).
RequestPacket = PrimitiveRequest | BatchRequest
ResponsePacket = PrimitiveResponse | BatchResponse

#: Sliding window of request ids remembered by the EMS Rx sequence check
#: (for duplicate-delivery suppression). Bounded so chaos soaks cannot
#: grow it without limit.
_SEQUENCE_WINDOW = 8192


@dataclasses.dataclass
class MailboxStats:
    requests_sent: int = 0
    responses_delivered: int = 0
    poll_attempts: int = 0
    irqs_raised: int = 0
    #: push_response attempts rejected because the response map was at
    #: capacity (the response queue is as finite as the request queue).
    response_rejects: int = 0
    #: Injected in-flight losses, per direction.
    requests_dropped: int = 0
    responses_dropped: int = 0
    #: CRC-failed packets discarded at the receiving edge.
    corrupt_discards: int = 0
    #: Re-delivered packets discarded by the Rx sequence check.
    duplicate_discards: int = 0
    #: Pushes refused during an injected queue-full burst.
    injected_queue_full: int = 0
    #: Request slots released by EMCall after a poll deadline expired.
    requests_cancelled: int = 0
    #: Responses that arrived for an already-cancelled request.
    stale_responses: int = 0
    #: Batch envelopes pushed (each is one transaction carrying N
    #: requests; also counted once in ``requests_sent``).
    batches_sent: int = 0
    #: Total primitive requests packed inside those batch envelopes.
    batched_requests: int = 0


class Mailbox:
    """The hardware FIFO pair inside iHub."""

    #: Cycles (CS clock) for one packet to cross the fabric into a queue.
    TRANSFER_CYCLES = MAILBOX_TRANSFER_CYCLES

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        #: Packets in flight with their transport metadata: (packet,
        #: corrupted). A CRC-broken packet is discarded where it lands.
        self._requests: collections.deque[tuple[RequestPacket, bool]] = \
            collections.deque()
        self._responses: dict[int, tuple[ResponsePacket, bool]] = {}
        self._outstanding: set[int] = set()
        #: Request ids EMCall gave up on; late responses for them are
        #: stale and silently discarded (counted).
        self._cancelled: set[int] = set()
        #: The EMS Rx edge's duplicate-suppression window.
        self._seen_ids: set[int] = set()
        self._seen_order: collections.deque[int] = collections.deque()
        #: Remaining pushes refused by an injected queue-full burst.
        self._forced_full = 0
        self.stats = MailboxStats()
        #: Set by push_request; the EMS runtime's interrupt line.
        self.irq_pending = False
        #: Out-of-band observability hook (attached by the system).
        self.obs = None
        #: Fault injector (None = clear weather); see repro.faults.
        self.faults = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None

    # -- fabric transfer timing (latency spikes inject here) --------------------

    def transfer_cycles(self, leg: str) -> int:
        """CS cycles for one packet to cross the fabric on ``leg``.

        The iHub transfer path is where latency spikes land: a
        ``fabric.latency`` fault stretches this one leg by its magnitude.
        """
        del leg  # both legs share the injection point
        extra = 0
        if self.faults is not None:
            extra = self.faults.magnitude("fabric.latency")
        return self.TRANSFER_CYCLES + extra

    # -- CS side (used exclusively by EMCall) -----------------------------------

    def push_request(self, request: RequestPacket) -> None:
        """Transmitter moves one Tx packet into the request queue.

        A :class:`~repro.common.packets.BatchRequest` is one packet here:
        it claims a single slot, raises a single IRQ, and is dropped /
        corrupted / duplicated as a unit by the fault points (the chaos
        suite then exercises the per-element replay semantics).
        """
        if self._forced_full > 0:
            self._forced_full -= 1
            self.stats.injected_queue_full += 1
            if self.obs is not None:
                self.obs.record_mailbox_reject("request_queue_full")
            raise MailboxError("request queue full (injected burst)")
        if self.faults is not None:
            burst = self.faults.magnitude("mailbox.queue_full")
            if burst > 0:
                # This push starts the burst; it and the next burst-1
                # pushes see a full queue.
                self._forced_full = burst - 1
                self.stats.injected_queue_full += 1
                if self.obs is not None:
                    self.obs.record_mailbox_reject("request_queue_full")
                raise MailboxError("request queue full (injected burst)")
        if len(self._requests) >= self.capacity:
            raise MailboxError("request queue full")
        request_id = request.request_id
        if request_id in self._outstanding:
            raise MailboxError(f"duplicate request id {request_id}")
        # The CS-side slot is claimed even when the packet is lost in
        # flight: EMCall owns the id and polls it until its deadline.
        self._outstanding.add(request_id)
        self._cancelled.discard(request_id)
        self.stats.requests_sent += 1
        if isinstance(request, BatchRequest):
            self.stats.batches_sent += 1
            self.stats.batched_requests += len(request)
        if self.san is not None:
            # The packet is on the fabric from here on, delivered or not.
            self.san.on_wire_packet(request, "request")
        if self.faults is not None and \
                self.faults.fires("mailbox.request.drop"):
            self.stats.requests_dropped += 1
            return
        envelope = (request, self.faults is not None and
                    self.faults.fires("mailbox.request.corrupt") is not None)
        self._requests.append(envelope)
        if self.faults is not None and \
                self.faults.fires("mailbox.request.duplicate"):
            self._requests.append(envelope)
        self.irq_pending = True
        self.stats.irqs_raised += 1
        if self.obs is not None:
            self.obs.record_mailbox_push(len(self._requests))

    def poll_response(self, request_id: int) -> ResponsePacket | None:
        """EMCall polls for *its own* response; None while pending.

        A request id that was never issued (or was already collected)
        raises — a foreign requester cannot fish for others' responses.
        A CRC-broken response is discarded here, at the CS Rx edge, and
        polling continues as if nothing had arrived.
        """
        self.stats.poll_attempts += 1
        if request_id not in self._outstanding:
            raise MailboxError(f"request id {request_id} unknown or already collected")
        envelope = self._responses.pop(request_id, None)
        if envelope is None:
            return None
        response, corrupted = envelope
        if corrupted:
            self.stats.corrupt_discards += 1
            if self.obs is not None:
                self.obs.record_mailbox_reject("response_corrupt")
            return None
        self._outstanding.discard(request_id)
        self.stats.responses_delivered += 1
        return response

    def cancel_request(self, request_id: int) -> None:
        """EMCall releases a slot after its poll deadline expired.

        Any response that later arrives for the id is stale: it is
        discarded (counted), never delivered — the retried invocation
        carries a fresh request id.
        """
        if request_id not in self._outstanding:
            raise MailboxError(f"cannot cancel unknown request id {request_id}")
        self._outstanding.discard(request_id)
        self._responses.pop(request_id, None)
        self._cancelled.add(request_id)
        self.stats.requests_cancelled += 1
        if self.obs is not None:
            self.obs.record_mailbox_reject("request_cancelled")

    # -- EMS side -----------------------------------------------------------------

    def fetch_requests(self, max_count: int | None = None) -> list[RequestPacket]:
        """EMS drains pending requests into its Rx task queue.

        The IRQ line stays asserted while requests remain queued, so a
        partial drain (``max_count`` below the backlog) re-fires instead
        of stranding the tail until the next push. The Rx edge discards
        CRC-broken packets and duplicate deliveries (sequence check);
        neither counts against ``max_count``.
        """
        out: list[RequestPacket] = []
        while self._requests and (max_count is None or len(out) < max_count):
            request, corrupted = self._requests.popleft()
            if corrupted:
                self.stats.corrupt_discards += 1
                if self.obs is not None:
                    self.obs.record_mailbox_reject("request_corrupt")
                continue
            if request.request_id in self._seen_ids:
                self.stats.duplicate_discards += 1
                if self.obs is not None:
                    self.obs.record_mailbox_reject("request_duplicate")
                continue
            self._seen_ids.add(request.request_id)
            self._seen_order.append(request.request_id)
            if len(self._seen_order) > _SEQUENCE_WINDOW:
                self._seen_ids.discard(self._seen_order.popleft())
            out.append(request)
        self.irq_pending = bool(self._requests)
        if self.obs is not None:
            self.obs.record_mailbox_fetch(len(out), len(self._requests))
        return out

    def push_response(self, response: ResponsePacket) -> None:
        """EMS posts a completed primitive's response packet.

        The response map is a hardware FIFO too: it enforces the same
        ``capacity`` as the request queue, so uncollected responses
        cannot grow it without bound. A response for a cancelled request
        is stale — discarded and counted, not an error (the EMS cannot
        know EMCall gave up).
        """
        if self.san is not None:
            # Scanned before any delivery outcome: a stale or rejected
            # response still crossed the fabric with its payload.
            self.san.on_wire_packet(response, "response")
        request_id = response.request_id
        if request_id in self._cancelled:
            self.stats.stale_responses += 1
            if self.obs is not None:
                self.obs.record_mailbox_reject("response_stale")
            return
        if len(self._responses) >= self.capacity:
            self.stats.response_rejects += 1
            if self.obs is not None:
                self.obs.record_mailbox_reject("response_queue_full")
            raise MailboxError("response queue full")
        if request_id not in self._outstanding:
            raise MailboxError(
                f"response for unknown request id {request_id}")
        if request_id in self._responses:
            raise MailboxError(
                f"duplicate response for request id {request_id}")
        if self.faults is not None and \
                self.faults.fires("mailbox.response.drop"):
            self.stats.responses_dropped += 1
            return
        self._responses[request_id] = (
            response, self.faults is not None and
            self.faults.fires("mailbox.response.corrupt") is not None)
        if self.faults is not None and \
                self.faults.fires("mailbox.response.duplicate"):
            # The duplicate copy hits the CS Rx sequence check and is
            # discarded — the map can only ever bind one response per id.
            self.stats.duplicate_discards += 1
            if self.obs is not None:
                self.obs.record_mailbox_reject("response_duplicate")
        if self.obs is not None:
            self.obs.record_mailbox_response()

    # -- introspection (tests only) -------------------------------------------------

    def pending_request_count(self) -> int:
        """Requests waiting for the EMS (tests only)."""
        return len(self._requests)

    def pending_response_count(self) -> int:
        """Responses awaiting collection (tests only)."""
        return len(self._responses)
