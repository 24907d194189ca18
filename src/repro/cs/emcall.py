"""EMCall — the trusted call gate between CS software and the EMS.

EMCall is firmware at the highest CS privilege level (M-mode). It is the
*only* component holding the CS-side mailbox port, and it implements the
four protections of paper Section III-B:

1. **Cross-privilege restriction** — each primitive may only be invoked
   from its Table II privilege level; EMCall checks the core's current
   privilege register and rejects anything else.
2. **Forgery prevention** — the ``enclaveID`` stamped into every request
   is read from the core's hardware context, never from caller arguments.
3. **Sanity checking** happens on the EMS side (see
   :mod:`repro.ems.runtime`); EMCall transports arguments opaquely.
4. **Atomic CS register updates** — context installs for EENTER/ERESUME
   and restores for EEXIT are performed by EMCall with interrupts
   modelled as deferred, including the TLB flushes required on enclave
   context switches and bitmap changes (Section IV-B).

Exception routing (Section III-B): page faults raised during enclave
execution are forwarded to the EMS as allocation requests; other traps go
to the CS OS.

Responses are retrieved by *polling* with jitter, never via the untrusted
CS interrupt path (Section III-C).

Degraded-weather hardening (``docs/fault_injection.md``): the poll loop
carries a **per-primitive deadline**; an expired deadline cancels the
mailbox slot and retries with **exponential backoff plus jitter**, every
wasted cycle accounted into the CS-visible latency. Retried
non-idempotent primitives (ECREATE/EADD) carry an **idempotency key** so
the EMS deduplicates re-applies. When the EMS stays unreachable past the
bounded retries, EMCall raises a typed :class:`~repro.errors.EMCallTimeout`
— or, with ``retry_policy.degrade`` set, returns a structured
:class:`DegradedResult` instead of hanging. The fault-free path is
bit-identical to the unhardened gate (pinned by
``tests/obs/test_noninterference.py``).

Batched fast path (``docs/performance.md``): :meth:`EMCall.invoke_batch`
packs N independent requests into one mailbox envelope — one trap, one
doorbell/IRQ, one fabric crossing per direction — with per-element
status, per-element idempotency keys (a retried envelope replays only
its non-acknowledged elements), and bitmap-change TLB shootdowns
coalesced across the batch. The scalar path is untouched: with batching
unused, every modelled cycle is bit-identical to before (pinned by the
differential and noninterference suites).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable

from repro.common.constants import CS_CORE_FREQ_HZ, EMS_CORE_FREQ_HZ
from repro.common.packets import (
    BatchRequest,
    BatchResponse,
    PrimitiveRequest,
    PrimitiveResponse,
    ResponseStatus,
)
from repro.common.rng import DeterministicRng
from repro.common.types import PRIMITIVE_PRIVILEGE, Primitive
from repro.cs.cpu import CSCore
from repro.errors import EMCallError, EMCallTimeout, MailboxError, PrivilegeViolation
from repro.eval.calibration import (
    EMCALL_BACKOFF_BASE_CYCLES,
    EMCALL_BACKOFF_JITTER_CYCLES,
    EMCALL_BATCH_MAX,
    EMCALL_BATCH_PER_REQ_CYCLES,
    EMCALL_DEADLINE_POLLS,
    EMCALL_DEFAULT_DEADLINE_POLLS,
    EMCALL_DISPATCH_CYCLES,
    EMCALL_POLL_INTERVAL_CYCLES,
    EMCALL_POLL_JITTER_CYCLES,
    MAILBOX_BATCH_PER_REQ_CYCLES,
)
from repro.hw.mailbox import Mailbox
from repro.hw.routing import reassemble, split_by_shard

#: Primitives that switch the core's execution context (and with it the
#: privilege register). Mid-batch context switches would make the
#: remaining elements execute under a different identity than the one
#: EMCall stamped at submission, so these stay scalar-only.
_UNBATCHABLE = frozenset({Primitive.EENTER, Primitive.ERESUME,
                          Primitive.EEXIT})

#: OS-privilege lifecycle primitives that name their target enclave in
#: the argument dict; everything else acts on the core's hardware-stamped
#: identity (or, for EWB, on no enclave at all).
_OS_TARGETED = frozenset({Primitive.EADD, Primitive.EMEAS, Primitive.EENTER,
                          Primitive.ERESUME, Primitive.EDESTROY})

#: Nearly every primitive mutates EMS state in a way a blind re-send
#: could double-apply (ECREATE/EADD most visibly — a re-added page would
#: corrupt the measurement — but also EENTER/EALLOC/ESHMAT state
#: transitions), so EMCall stamps *every* request with an idempotency
#: key: a retry after a lost response replays the cached outcome
#: EMS-side instead of re-executing the handler.


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard EMCall fights degraded transport before giving up."""

    #: Total tries per invocation (first attempt included).
    max_attempts: int = 4
    #: First-retry backoff in CS cycles; doubles each further attempt.
    backoff_base_cycles: int = EMCALL_BACKOFF_BASE_CYCLES
    #: Uniform jitter 0..this added to every backoff wait.
    backoff_jitter_cycles: int = EMCALL_BACKOFF_JITTER_CYCLES
    #: Return a :class:`DegradedResult` instead of raising
    #: :class:`~repro.errors.EMCallTimeout` when retries are exhausted.
    degrade: bool = False


@dataclasses.dataclass(frozen=True)
class InvokeResult:
    """Response plus the CS-visible latency of the whole invocation."""

    response: PrimitiveResponse
    cs_cycles: int
    #: How many sends it took (1 = clean weather).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.response.ok

    @property
    def degraded(self) -> bool:
        return False

    def result(self, name: str, default: Any = None) -> Any:
        """Field from the response's result dict."""
        return self.response.result.get(name, default)


@dataclasses.dataclass(frozen=True)
class DegradedResult:
    """The structured "EMS unreachable" outcome (no hang, no response).

    Returned instead of :class:`InvokeResult` when ``retry_policy.degrade``
    is set and every attempt timed out: the caller gets the full story —
    what was tried, for how long, under which request ids — and can shed
    load or escalate instead of blocking.
    """

    primitive: Primitive
    attempts: int
    cs_cycles: int
    reason: str
    request_ids: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return False

    @property
    def degraded(self) -> bool:
        return True

    @property
    def response(self) -> None:
        return None

    def result(self, name: str, default: Any = None) -> Any:
        """Mirror of :meth:`InvokeResult.result`; always the default."""
        del name
        return default


@dataclasses.dataclass(frozen=True)
class BatchInvokeResult:
    """Per-element responses plus the amortized CS-visible batch latency.

    ``cs_cycles`` is the whole transaction: one dispatch, one fabric
    crossing per direction (plus the marginal per-element streaming
    cost), the summed EMS service time, and one jitter draw.
    :meth:`per_request_cycles` splits it into per-element shares that sum
    exactly to the total, so facade-level accounting stays conserved.
    """

    responses: tuple[PrimitiveResponse, ...]
    cs_cycles: int
    #: How many envelope sends the batch needed (1 = clean weather).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.responses)

    @property
    def degraded(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self.responses)

    def per_request_cycles(self) -> tuple[int, ...]:
        """Amortized per-element CS cycles (shares sum to the total)."""
        n = len(self.responses)
        share, remainder = divmod(self.cs_cycles, n)
        return tuple(share + (1 if i < remainder else 0) for i in range(n))

    def invoke_results(self) -> tuple[InvokeResult, ...]:
        """Per-element :class:`InvokeResult` views with amortized cycles."""
        return tuple(
            InvokeResult(response=response, cs_cycles=cycles,
                         attempts=self.attempts)
            for response, cycles in zip(self.responses,
                                        self.per_request_cycles()))

    def result(self, index: int, name: str, default: Any = None) -> Any:
        """Field from element ``index``'s response result dict."""
        return self.responses[index].result.get(name, default)


class EMCall:
    """The M-mode call gate instance of one SoC."""

    def __init__(self, mailbox: Mailbox, rng: DeterministicRng,
                 cores: list[CSCore]) -> None:
        self.mailbox = mailbox
        self._rng = rng
        self._cores = cores
        self._request_ids = itertools.count(1)
        self._idempotency_ids = itertools.count(1)
        #: Synchronous EMS pump, attached by the SoC after the EMS boots.
        self._ems_pump: Callable[[], None] | None = None
        #: Count of TLB flushes triggered by bitmap updates (Fig. 11 input).
        self.bitmap_flush_count = 0
        #: Optional anomaly-detector callback (enclave_id, cycle).
        self._interrupt_observer = None
        #: Out-of-band observability hook (attached by the system).
        self.obs = None
        #: Fault injector (None = clear weather); see repro.faults.
        self.faults = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None
        #: Retry/timeout/degradation knobs; swap for a custom policy.
        self.retry_policy = RetryPolicy()

    def attach_ems(self, pump: Callable[[], None]) -> None:
        """Wire the EMS runtime's pump (done after secure boot)."""
        self._ems_pump = pump

    # -- the invocation path ---------------------------------------------------------------

    def invoke(self, primitive: Primitive, args: dict[str, Any], *,
               core: CSCore) -> InvokeResult | DegradedResult:
        """Invoke one enclave primitive on behalf of ``core``'s context."""
        required = PRIMITIVE_PRIVILEGE[primitive]
        if core.privilege is not required:
            raise PrivilegeViolation(
                f"{primitive.value} requires {required.name}, "
                f"core {core.core_id} is at {core.privilege.name}")
        if self._ems_pump is None:
            raise EMCallError("EMS not attached; secure boot incomplete?")

        policy = self.retry_policy
        deadline_polls = EMCALL_DEADLINE_POLLS.get(
            primitive.value, EMCALL_DEFAULT_DEADLINE_POLLS)
        idempotency_key = f"c{core.core_id}-k{next(self._idempotency_ids)}"

        #: Cycles beyond the clean-path formula: extra polls, backoff
        #: waits, and injected fabric latency — all CS-visible.
        extra_cycles = 0
        request_ids: list[int] = []
        response: PrimitiveResponse | None = None
        request: PrimitiveRequest | None = None
        attempts = 0
        polls = 0

        while attempts < policy.max_attempts:
            attempts += 1
            request = PrimitiveRequest(
                request_id=next(self._request_ids),
                primitive=primitive,
                enclave_id=core.current_enclave_id,   # hardware-stamped identity
                privilege=core.privilege,
                args=dict(args),
                idempotency_key=idempotency_key,
            )
            request_ids.append(request.request_id)
            try:
                self.mailbox.push_request(request)
            except MailboxError:
                # Queue full (real backlog or injected burst): the
                # transmitter backs off and re-sends.
                extra_cycles += self._backoff(primitive, attempts,
                                              core.current_enclave_id)
                continue
            # Both transfer legs cross the iHub; latency spikes land here.
            extra_cycles += \
                self.mailbox.transfer_cycles("request") - Mailbox.TRANSFER_CYCLES

            self._ems_pump()
            response = self.mailbox.poll_response(request.request_id)
            polls = 1
            while response is None and polls < deadline_polls:
                self._ems_pump()
                response = self.mailbox.poll_response(request.request_id)
                polls += 1
            # Only polls beyond the first cost cycles: the clean
            # synchronous path is charged exactly as before hardening.
            extra_cycles += EMCALL_POLL_INTERVAL_CYCLES * (polls - 1)

            if response is None:
                # Deadline expired: release the slot (late responses
                # become stale) and back off before the re-send.
                self.mailbox.cancel_request(request.request_id)
                if self.obs is not None:
                    self.obs.record_emcall_timeout(
                        primitive.value, attempts,
                        enclave_id=core.current_enclave_id)
                extra_cycles += self._backoff(primitive, attempts,
                                              core.current_enclave_id)
                continue
            if response.request_id != request.request_id:
                raise EMCallError(
                    f"mailbox delivered response {response.request_id} "
                    f"for request {request.request_id}")
            if response.status is ResponseStatus.TRANSIENT:
                # The EMS runtime failed before touching state; safe to
                # re-send under the same idempotency key.
                response = None
                extra_cycles += self._backoff(primitive, attempts,
                                              core.current_enclave_id)
                continue
            extra_cycles += \
                self.mailbox.transfer_cycles("response") - Mailbox.TRANSFER_CYCLES
            break

        if response is None:
            waited = extra_cycles + EMCALL_DISPATCH_CYCLES
            if policy.degrade:
                if self.obs is not None:
                    self.obs.record_emcall_degraded(
                        primitive.value, attempts,
                        enclave_id=core.current_enclave_id)
                return DegradedResult(
                    primitive=primitive, attempts=attempts,
                    cs_cycles=waited,
                    reason=f"no response within {deadline_polls} polls x "
                           f"{attempts} attempts",
                    request_ids=tuple(request_ids))
            if self.obs is not None:
                self.obs.trip_flightrec(
                    "emcall-timeout", primitive=primitive.value,
                    attempts=attempts, deadline_polls=deadline_polls,
                    waited_cycles=waited,
                    enclave_id=core.current_enclave_id)
            raise EMCallTimeout(primitive.value, attempts, deadline_polls,
                                waited)

        self._apply_cs_actions(core, response)

        jitter = self._rng.randint(0, EMCALL_POLL_JITTER_CYCLES, stream="emcall-jitter")
        ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
        cs_cycles = (EMCALL_DISPATCH_CYCLES
                     + 2 * Mailbox.TRANSFER_CYCLES
                     + int(response.service_cycles * ems_to_cs)
                     + jitter
                     + extra_cycles)
        if self.obs is not None:
            self.obs.record_invocation(
                primitive=primitive.value, status=response.status.value,
                request_id=request.request_id, cs_cycles=cs_cycles,
                dispatch_cycles=EMCALL_DISPATCH_CYCLES,
                transfer_cycles=Mailbox.TRANSFER_CYCLES,
                service_cycles=response.service_cycles,
                jitter_cycles=jitter, polls=polls,
                enclave_id=request.enclave_id, core_id=core.core_id,
                attempts=attempts)
        if self.san is not None:
            self.san.on_invocation(primitive.value, response.status.value,
                                   cs_cycles)
        return InvokeResult(response=response, cs_cycles=cs_cycles,
                            attempts=attempts)

    # -- the batched fast path -------------------------------------------------------------

    def invoke_batch(self, calls: list[tuple[Primitive, dict[str, Any]]], *,
                     core: CSCore) -> BatchInvokeResult | DegradedResult:
        """Invoke N independent primitives in one mailbox transaction.

        The batch pays one M-mode trap, one doorbell/IRQ, and one fabric
        crossing per direction; every element beyond the first costs only
        its packing and streaming margin (Table IV's fixed transmission
        cost amortized N ways). Elements are dispatched EMS-side in
        submission order with *per-element* status: a failing element
        reports its own error without poisoning its siblings.

        Retry semantics compose with the PR-2 hardening: every element
        carries its own idempotency key, so a timed-out envelope is
        re-sent whole but the EMS replays (not re-applies) the elements
        it already served, and elements answered ``TRANSIENT`` are
        re-sent alone in a shrunken follow-up envelope — only the
        non-acknowledged suffix ever travels again.

        Context-switching primitives (EENTER/ERESUME/EEXIT) are scalar
        only; a batch containing one raises :class:`EMCallError`.
        """
        if not calls:
            raise EMCallError("invoke_batch needs at least one call")
        if len(calls) > EMCALL_BATCH_MAX:
            raise EMCallError(
                f"batch of {len(calls)} exceeds EMCALL_BATCH_MAX="
                f"{EMCALL_BATCH_MAX}")
        if self._ems_pump is None:
            raise EMCallError("EMS not attached; secure boot incomplete?")
        for primitive, _ in calls:
            if primitive in _UNBATCHABLE:
                raise EMCallError(
                    f"{primitive.value} switches the core context and "
                    "cannot be batched")
            required = PRIMITIVE_PRIVILEGE[primitive]
            if core.privilege is not required:
                raise PrivilegeViolation(
                    f"{primitive.value} requires {required.name}, "
                    f"core {core.core_id} is at {core.privilege.name}")

        policy = self.retry_policy
        n = len(calls)
        #: Stable per-element idempotency keys: a replayed element is the
        #: *same* logical operation however many envelopes carry it.
        keys = [f"c{core.core_id}-k{next(self._idempotency_ids)}"
                for _ in calls]
        deadline_polls = max(
            EMCALL_DEADLINE_POLLS.get(primitive.value,
                                      EMCALL_DEFAULT_DEADLINE_POLLS)
            for primitive, _ in calls)

        final: dict[int, PrimitiveResponse] = {}
        pending = list(range(n))
        extra_cycles = 0
        batch_ids: list[int] = []
        attempts = 0
        polls = 0

        while pending and attempts < policy.max_attempts:
            attempts += 1
            elements = tuple(
                PrimitiveRequest(
                    request_id=next(self._request_ids),
                    primitive=calls[i][0],
                    enclave_id=core.current_enclave_id,  # hardware-stamped
                    privilege=core.privilege,
                    args=dict(calls[i][1]),
                    idempotency_key=keys[i])
                for i in pending)
            batch = BatchRequest(batch_id=next(self._request_ids),
                                 requests=elements)
            batch_ids.append(batch.batch_id)
            try:
                self.mailbox.push_request(batch)
            except MailboxError:
                extra_cycles += self._batch_backoff(attempts,
                                                    core.current_enclave_id)
                continue
            extra_cycles += \
                self.mailbox.transfer_cycles("request") - Mailbox.TRANSFER_CYCLES

            self._ems_pump()
            response = self.mailbox.poll_response(batch.batch_id)
            polls = 1
            while response is None and polls < deadline_polls:
                self._ems_pump()
                response = self.mailbox.poll_response(batch.batch_id)
                polls += 1
            extra_cycles += EMCALL_POLL_INTERVAL_CYCLES * (polls - 1)

            if response is None:
                # Envelope (or its response) lost: release the slot and
                # re-send the whole remaining suffix; idempotency keys
                # make the EMS replay what it already applied.
                self.mailbox.cancel_request(batch.batch_id)
                if self.obs is not None:
                    self.obs.record_emcall_timeout(
                        "BATCH", attempts,
                        enclave_id=core.current_enclave_id)
                extra_cycles += self._batch_backoff(attempts,
                                                    core.current_enclave_id)
                continue
            if not isinstance(response, BatchResponse) or \
                    response.batch_id != batch.batch_id:
                raise EMCallError(
                    f"mailbox delivered {response!r} for batch "
                    f"{batch.batch_id}")
            extra_cycles += \
                self.mailbox.transfer_cycles("response") - Mailbox.TRANSFER_CYCLES

            still_pending: list[int] = []
            for index, element_response in zip(pending, response.responses):
                if element_response.status is ResponseStatus.TRANSIENT:
                    # The handler crashed before touching state; only
                    # this element re-travels (the shrunken suffix).
                    still_pending.append(index)
                else:
                    final[index] = element_response
            pending = still_pending
            if pending:
                extra_cycles += self._batch_backoff(attempts,
                                                    core.current_enclave_id)

        if pending:
            waited = extra_cycles + EMCALL_DISPATCH_CYCLES
            unresolved = calls[pending[0]][0]
            if policy.degrade:
                if self.obs is not None:
                    self.obs.record_emcall_degraded(
                        "BATCH", attempts,
                        enclave_id=core.current_enclave_id)
                return DegradedResult(
                    primitive=unresolved, attempts=attempts,
                    cs_cycles=waited,
                    reason=f"{len(pending)} of {n} batch elements "
                           f"unacknowledged within {deadline_polls} polls x "
                           f"{attempts} attempts",
                    request_ids=tuple(batch_ids))
            if self.obs is not None:
                self.obs.trip_flightrec(
                    "emcall-batch-timeout",
                    primitive=f"BATCH[{unresolved.value}]",
                    attempts=attempts, deadline_polls=deadline_polls,
                    waited_cycles=waited, pending=len(pending),
                    batch_size=n, enclave_id=core.current_enclave_id)
            raise EMCallTimeout(f"BATCH[{unresolved.value}]", attempts,
                                deadline_polls, waited)

        responses = tuple(final[i] for i in range(n))
        self._apply_batch_cs_actions(core, responses)

        jitter = self._rng.randint(0, EMCALL_POLL_JITTER_CYCLES,
                                   stream="emcall-jitter")
        ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
        service_cycles = sum(r.service_cycles for r in responses)
        transfer_cycles = (Mailbox.TRANSFER_CYCLES
                           + (n - 1) * MAILBOX_BATCH_PER_REQ_CYCLES)
        dispatch_cycles = (EMCALL_DISPATCH_CYCLES
                           + (n - 1) * EMCALL_BATCH_PER_REQ_CYCLES)
        cs_cycles = (dispatch_cycles
                     + 2 * transfer_cycles
                     + int(service_cycles * ems_to_cs)
                     + jitter
                     + extra_cycles)
        if self.obs is not None:
            self.obs.record_batch_invocation(
                primitives=[p.value for p, _ in calls],
                statuses=[r.status.value for r in responses],
                cs_cycles=cs_cycles, dispatch_cycles=dispatch_cycles,
                transfer_cycles=transfer_cycles,
                service_cycles=[r.service_cycles for r in responses],
                request_ids=[r.request_id for r in responses],
                jitter_cycles=jitter, polls=polls,
                enclave_id=core.current_enclave_id, core_id=core.core_id,
                attempts=attempts)
        result = BatchInvokeResult(responses=responses, cs_cycles=cs_cycles,
                                   attempts=attempts)
        if self.san is not None:
            for (primitive, _), response, cycles in zip(
                    calls, responses, result.per_request_cycles()):
                self.san.on_invocation(primitive.value,
                                       response.status.value, cycles)
        return result

    def _batch_backoff(self, attempt: int,
                       enclave_id: int | None = None) -> int:
        """Backoff before a batch re-send (same policy as the scalar gate)."""
        return self._backoff_named("BATCH", attempt, enclave_id)

    def _apply_batch_cs_actions(self, core: CSCore,
                                responses: tuple[PrimitiveResponse, ...]) -> None:
        """Apply CS-side actions for a whole batch, flushes coalesced.

        Bitmap-change TLB shootdowns across the batch are merged into a
        *single* cross-core flush over the union of frames — one IPI
        storm instead of N (the Fig. 11 cost paid once). Context actions
        cannot appear here (context primitives are unbatchable).
        """
        frames_union: list[int] = []
        seen: set[int] = set()
        flush_all = False
        for response in responses:
            actions = response.result.get("cs_actions")
            if not actions:
                continue
            for frame in actions.get("flush_frames") or ():
                if frame not in seen:
                    seen.add(frame)
                    frames_union.append(frame)
            if actions.get("flush_all"):
                flush_all = True
        if frames_union:
            self.flush_tlbs_for_bitmap_change(frames_union)
        if flush_all:
            for other in self._cores:
                other.tlb.flush_all()

    def _backoff(self, primitive: Primitive, attempt: int,
                 enclave_id: int | None = None) -> int:
        """Cycles of exponential backoff (with jitter) before a re-send."""
        return self._backoff_named(primitive.value, attempt, enclave_id)

    def _backoff_named(self, label: str, attempt: int,
                       enclave_id: int | None = None) -> int:
        """Backoff implementation shared by the scalar and batch gates.

        Drawn from a dedicated RNG stream that is only touched on actual
        retries, so clean-weather runs consume no extra randomness.
        """
        if attempt >= self.retry_policy.max_attempts:
            return 0  # no re-send follows; nothing to wait for
        wait = self.retry_policy.backoff_base_cycles * (2 ** (attempt - 1))
        jitter = self._rng.randint(
            0, self.retry_policy.backoff_jitter_cycles,
            stream="emcall-backoff")
        if self.obs is not None:
            self.obs.record_emcall_retry(label, attempt, wait + jitter,
                                         enclave_id=enclave_id)
        return wait + jitter

    # -- CS-side effects the EMS cannot perform itself ------------------------------------------

    def _apply_cs_actions(self, core: CSCore, response: PrimitiveResponse) -> None:
        """Perform register/TLB updates the response requests, atomically.

        The EMS manages enclave control structures, but CS core registers
        are unreachable from the EMS; EMCall applies those updates with
        interrupts deferred (Section III-B, mechanism 4).
        """
        actions = response.result.get("cs_actions")
        if not actions:
            return
        enter = actions.get("enter_context")
        if enter is not None:
            core.enter_enclave_context(enter["enclave_id"], enter["page_table"])
        if actions.get("exit_context"):
            core.exit_enclave_context()
        frames = actions.get("flush_frames")
        if frames:
            self.flush_tlbs_for_bitmap_change(frames)
        if actions.get("flush_all"):
            for other in self._cores:
                other.tlb.flush_all()

    def flush_tlbs_for_bitmap_change(self, frames: list[int]) -> None:
        """Selective TLB shootdown after enclave bitmap bits changed."""
        self.bitmap_flush_count += 1
        for other in self._cores:
            for frame in frames:
                other.tlb.flush_frame(frame)

    # -- exception routing (Section III-B) ----------------------------------------------------------

    def handle_interrupt(self, core: CSCore, cause: str,
                         cycle: int = 0) -> str:
        """First-level handler for interrupts during enclave execution.

        EMCall records the cause/PC and routes by type (Section III-B):
        memory-management exceptions go to the EMS; timer interrupts and
        illegal instructions go to the CS OS — after EMCall suspends the
        enclave (atomic register save + context restore) so the untrusted
        handler never sees enclave state. Enclave interrupts also feed the
        Varys-style anomaly detector when one is attached.

        Returns the routing decision: ``"ems"`` or ``"cs"``.
        """
        if not core.in_enclave:
            return "cs"  # plain host interrupt: straight to the OS
        if self._interrupt_observer is not None:
            flagged = self._interrupt_observer(core.current_enclave_id, cycle)
            if flagged:
                # The detector suspended the enclave EMS-side; EMCall
                # restores the host context (the CS-register half of the
                # suspension) and hands the core to the OS.
                core.exit_enclave_context()
                return "cs"
        if cause in ("page-fault", "misaligned-access"):
            return "ems"
        # Timer / illegal-instruction / external: suspend the enclave and
        # hand the (enclave-state-free) core to the CS OS.
        self.invoke(Primitive.EEXIT, {}, core=core)
        return "cs"

    def attach_interrupt_observer(self, observer) -> None:
        """Hook for the interrupt anomaly detector (Section IX)."""
        self._interrupt_observer = observer

    def handle_enclave_page_fault(self, core: CSCore, vaddr: int) -> InvokeResult:
        """Route an in-enclave page fault to the EMS as a demand allocation.

        The faulting core is in user mode inside the enclave; EMCall
        records cause/PC and forwards a memory-management request (the
        paper routes page faults and misaligned accesses to EMS, timer
        interrupts and illegal instructions to the CS OS).
        """
        if not core.in_enclave:
            raise EMCallError("enclave page-fault path taken outside an enclave")
        if self.obs is not None:
            self.obs.record_demand_fault(core.current_enclave_id)
        return self.invoke(Primitive.EALLOC, {"fault_vaddr": vaddr}, core=core)


class ShardedEMCall:
    """The M-mode gate of a multi-EMS SoC: one sub-gate per shard.

    Routing is deterministic and happens *before* transport: the gate
    resolves the target enclave to its owning shard (pure hash plus the
    transfer overrides, injected by the system as callbacks so the CS
    layer never touches EMS state) and delegates to that shard's
    ordinary :class:`EMCall`, which owns that shard's mailbox.
    Validation — privilege, batchability, batch size —
    mirrors the single-gate checks byte-for-byte and runs before any
    routing side effect, so rejected calls mint no IDs on any shard.

    ECREATE is the special case: the new enclave has no ID yet, so the
    gate asks the shard pool's placement callback for one. The pool
    mints a platform-global ID whose hash home is the serving shard and
    the gate stamps it into the request (``preassigned_id``), keeping
    later routing a pure function of the ID. EWB targets no enclave and
    round-robins across shards so every pool sheds frames under memory
    pressure.

    Batch envelopes may span shards: the gate splits the batch into
    per-shard sub-envelopes (first-appearance order, submission order
    within each) and reassembles per-element responses in the original
    request order. Cycle accounting sums the sub-envelope transactions
    — the modelled cost of genuinely crossing several mailboxes.
    """

    def __init__(self, gates: list[EMCall], cores: list[CSCore]) -> None:
        if not gates:
            raise EMCallError("a sharded gate needs at least one sub-gate")
        gates = list(gates)
        self._gates = gates
        #: Shard 0's gate: the platform's primary port for core-local /
        #: fleet-neutral operations. Designated once here, from the
        #: constructor argument — shard 0 always exists and never
        #: leaves the fleet, so this is a role, not a routing decision
        #: (TEE010 bans per-call-site fleet indexing for everything
        #: that *is* one).
        self._primary = gates[0]
        self._cores = cores
        #: Placement/resolution callbacks (injected by the system from
        #: the shard pool — the CS layer holds opaque callables only).
        self._place: Callable[[], tuple[int, int]] | None = None
        self._resolve: Callable[[int], int] | None = None
        self._ewb_next = 0

    def attach_shard_router(self, place: Callable[[], tuple[int, int]],
                            resolve: Callable[[int], int]) -> None:
        """Wire the shard pool's placement and resolution callbacks."""
        self._place = place
        self._resolve = resolve

    # -- fan-out attributes (the system and tests address one gate) ------------

    @property
    def gates(self) -> tuple["EMCall", ...]:
        """The per-shard sub-gates, shard order (read-only view)."""
        return tuple(self._gates)

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._primary.retry_policy

    @retry_policy.setter
    def retry_policy(self, policy: RetryPolicy) -> None:
        for gate in self._gates:
            gate.retry_policy = policy

    @property
    def obs(self):
        return self._primary.obs

    @obs.setter
    def obs(self, obs) -> None:
        for gate in self._gates:
            gate.obs = obs

    @property
    def faults(self):
        return self._primary.faults

    @faults.setter
    def faults(self, injector) -> None:
        for gate in self._gates:
            gate.faults = injector

    @property
    def san(self):
        return self._primary.san

    @san.setter
    def san(self, manager) -> None:
        for gate in self._gates:
            gate.san = manager

    @property
    def bitmap_flush_count(self) -> int:
        return sum(gate.bitmap_flush_count for gate in self._gates)

    @property
    def mailbox(self) -> Mailbox:
        """Shard 0's mailbox (the primary port on the fabric)."""
        return self._primary.mailbox

    # -- routing ----------------------------------------------------------------

    def _route(self, primitive: Primitive, args: dict[str, Any],
               core: CSCore) -> int:
        """The shard index serving this (already validated) call."""
        if primitive is Primitive.EWB:
            shard = self._ewb_next
            self._ewb_next = (self._ewb_next + 1) % len(self._gates)
            return shard
        if primitive in _OS_TARGETED:
            target = args.get("enclave_id")
        else:
            target = core.current_enclave_id
        if not isinstance(target, int):
            # Malformed or absent target: shard 0's runtime issues the
            # same sanity reject a single EMS would.
            return 0
        return self._resolve(target)

    def _check_privilege(self, primitive: Primitive, core: CSCore) -> None:
        required = PRIMITIVE_PRIVILEGE[primitive]
        if core.privilege is not required:
            raise PrivilegeViolation(
                f"{primitive.value} requires {required.name}, "
                f"core {core.core_id} is at {core.privilege.name}")

    # -- the invocation path ------------------------------------------------------

    def invoke(self, primitive: Primitive, args: dict[str, Any], *,
               core: CSCore) -> InvokeResult | DegradedResult:
        """Route one primitive to its owning shard's gate."""
        self._check_privilege(primitive, core)
        if primitive is Primitive.ECREATE and self._place is not None:
            enclave_id, shard = self._place()
            args = dict(args)
            args["preassigned_id"] = enclave_id
            return self._gates[shard].invoke(primitive, args, core=core)
        shard = self._route(primitive, args, core)
        return self._gates[shard].invoke(primitive, args, core=core)

    def invoke_batch(self, calls: list[tuple[Primitive, dict[str, Any]]], *,
                     core: CSCore) -> BatchInvokeResult | DegradedResult:
        """Split a batch across the owning shards; reassemble in order."""
        if not calls:
            raise EMCallError("invoke_batch needs at least one call")
        if len(calls) > EMCALL_BATCH_MAX:
            raise EMCallError(
                f"batch of {len(calls)} exceeds EMCALL_BATCH_MAX="
                f"{EMCALL_BATCH_MAX}")
        for primitive, _ in calls:
            if primitive in _UNBATCHABLE:
                raise EMCallError(
                    f"{primitive.value} switches the core context and "
                    "cannot be batched")
            self._check_privilege(primitive, core)

        routed: list[tuple[Primitive, dict[str, Any]]] = []
        shards: list[int] = []
        for primitive, args in calls:
            if primitive is Primitive.ECREATE and self._place is not None:
                enclave_id, shard = self._place()
                args = dict(args)
                args["preassigned_id"] = enclave_id
            else:
                shard = self._route(primitive, args, core)
            routed.append((primitive, args))
            shards.append(shard)

        total_cycles = 0
        max_attempts = 0
        parts: list[tuple[list[int], tuple[PrimitiveResponse, ...]]] = []
        for shard, indices in split_by_shard(shards):
            sub_calls = [routed[i] for i in indices]
            sub = self._gates[shard].invoke_batch(sub_calls, core=core)
            if sub.degraded:
                # Propagate the outage with the cross-shard context and
                # every cycle this transaction burned anywhere.
                return DegradedResult(
                    primitive=sub.primitive,
                    attempts=max(max_attempts, sub.attempts),
                    cs_cycles=total_cycles + sub.cs_cycles,
                    reason=f"shard {shard}: {sub.reason}",
                    request_ids=sub.request_ids)
            total_cycles += sub.cs_cycles
            max_attempts = max(max_attempts, sub.attempts)
            parts.append((indices, sub.responses))

        responses = tuple(reassemble(len(calls), parts))
        return BatchInvokeResult(responses=responses, cs_cycles=total_cycles,
                                 attempts=max_attempts)

    # -- CS-side effects / exception routing --------------------------------------

    def flush_tlbs_for_bitmap_change(self, frames: list[int]) -> None:
        """Selective TLB shootdown (core-local state; any gate serves)."""
        self._primary.flush_tlbs_for_bitmap_change(frames)

    def _gate_for_core(self, core: CSCore) -> EMCall:
        """The gate owning the enclave the core is currently inside."""
        enclave_id = core.current_enclave_id
        if isinstance(enclave_id, int):
            return self._gates[self._resolve(enclave_id)]
        return self._primary

    def handle_interrupt(self, core: CSCore, cause: str,
                         cycle: int = 0) -> str:
        """Route an interrupt through the owning shard's gate."""
        return self._gate_for_core(core).handle_interrupt(core, cause, cycle)

    def attach_interrupt_observer(self, observer) -> None:
        """Hook the anomaly detector into every shard's gate."""
        for gate in self._gates:
            gate.attach_interrupt_observer(observer)

    def handle_enclave_page_fault(self, core: CSCore,
                                  vaddr: int) -> InvokeResult:
        """Route an in-enclave demand fault to the owning shard."""
        return self._gate_for_core(core).handle_enclave_page_fault(core, vaddr)
