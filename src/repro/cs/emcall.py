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
wasted cycle accounted into the CS-visible latency. Every request carries
an **idempotency key** so the EMS deduplicates re-applies. When the EMS
stays unreachable past the bounded retries, EMCall raises a typed
:class:`~repro.errors.EMCallTimeout` — or, with ``retry_policy.degrade``
set, returns a structured :class:`DegradedResult` instead of hanging. The
fault-free path is bit-identical to the unhardened gate (pinned by
``tests/obs/test_noninterference.py``).

One retry loop (``docs/performance.md``): :meth:`EMCall.invoke` and
:meth:`EMCall.invoke_batch` are thin entries into one private loop that
owns retry, poll, deadline, backoff and the TRANSIENT suffix. A batch
packs N independent requests into one mailbox envelope — one trap, one
doorbell/IRQ, one fabric crossing per direction — with per-element status
and idempotency keys (a retried envelope replays only its
non-acknowledged elements), and bitmap-change TLB shootdowns coalesced
across the batch. A scalar call is the one-element case: it travels as a
bare :class:`PrimitiveRequest`, is labelled by its primitive rather than
``BATCH``, and its cycle formula is the N=1 case of the batch formula.
The clean path builds only the packets it sends and the result it
returns.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Sequence

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

#: Poll deadline of each primitive (a batch waits for its slowest).
_DEADLINE_POLLS = {
    primitive: EMCALL_DEADLINE_POLLS.get(primitive.value,
                                         EMCALL_DEFAULT_DEADLINE_POLLS)
    for primitive in Primitive}

#: EMS-core service cycles -> CS-core cycles.
_EMS_TO_CS = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ

_TRANSIENT = ResponseStatus.TRANSIENT

Calls = Sequence[tuple[Primitive, dict[str, Any]]]


def _check(calls: Calls, core: CSCore, *, batch: bool) -> None:
    """Refuse a call the gate must not send, before any side effect.

    Every primitive must be invoked from its Table II privilege level; a
    batch must hold 1..``EMCALL_BATCH_MAX`` batchable elements. Both gates
    run this first, so a rejected call sends nothing and mints no ID on
    any shard.
    """
    if batch:
        if not calls:
            raise EMCallError("invoke_batch needs at least one call")
        if len(calls) > EMCALL_BATCH_MAX:
            raise EMCallError(
                f"batch of {len(calls)} exceeds EMCALL_BATCH_MAX="
                f"{EMCALL_BATCH_MAX}")
    for primitive, _ in calls:
        if batch and primitive in _UNBATCHABLE:
            raise EMCallError(
                f"{primitive.value} switches the core context and "
                "cannot be batched")
        required = PRIMITIVE_PRIVILEGE[primitive]
        if core.privilege is not required:
            raise PrivilegeViolation(
                f"{primitive.value} requires {required.name}, "
                f"core {core.core_id} is at {core.privilege.name}")


def _deadline(calls: Calls) -> int:
    """Polls per attempt before the gate gives up on a response."""
    return max(_DEADLINE_POLLS[primitive] for primitive, _ in calls)


def _label(calls: Calls, batch: bool) -> str:
    """The retry/timeout telemetry label: ``BATCH`` or the primitive."""
    return "BATCH" if batch else calls[0][0].value


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


@dataclasses.dataclass(slots=True)
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


@dataclasses.dataclass(slots=True)
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
        #: Nearly every primitive mutates EMS state in a way a blind
        #: re-send could double-apply (ECREATE/EADD most visibly — a
        #: re-added page would corrupt the measurement — but also
        #: EENTER/EALLOC/ESHMAT state transitions), so *every* element
        #: carries an idempotency key: a retry after a lost response
        #: replays the cached outcome EMS-side instead of re-executing the
        #: handler. This is the next key; a call of N elements takes N.
        self._next_key = 1
        #: Poll-obfuscation jitter: one draw per completed transaction.
        self._jitter = rng.stream("emcall-jitter")
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
        calls = ((primitive, args),)
        _check(calls, core, batch=False)
        return self._transact(calls, core, batch=False)

    def invoke_batch(self, calls: list[tuple[Primitive, dict[str, Any]]], *,
                     core: CSCore) -> BatchInvokeResult | DegradedResult:
        """Invoke N independent primitives in one mailbox transaction.

        The batch pays one M-mode trap, one doorbell/IRQ, and one fabric
        crossing per direction; every element beyond the first costs only
        its packing and streaming margin (Table IV's fixed transmission
        cost amortized N ways). Elements are dispatched EMS-side in
        submission order with *per-element* status: a failing element
        reports its own error without poisoning its siblings.

        Every element carries its own idempotency key, so a timed-out
        envelope is re-sent whole but the EMS replays (not re-applies)
        the elements it already served, and elements answered
        ``TRANSIENT`` are re-sent alone in a shrunken follow-up envelope —
        only the non-acknowledged suffix ever travels again.

        Context-switching primitives (EENTER/ERESUME/EEXIT) are scalar
        only; a batch containing one raises :class:`EMCallError`.
        """
        _check(calls, core, batch=True)
        return self._transact(calls, core, batch=True)

    def _transact(self, calls: Calls, core: CSCore, *, batch: bool,
                  ) -> InvokeResult | BatchInvokeResult | DegradedResult:
        """The retry loop of one (already checked) call of N elements.

        Each attempt sends the pending elements — as one envelope for a
        batch, as a bare request for a scalar call — pumps and polls up
        to the deadline, and keeps every answer except ``TRANSIENT`` ones,
        which travel again after a backoff.
        """
        pump = self._ems_pump
        if pump is None:
            raise EMCallError("EMS not attached; secure boot incomplete?")
        mailbox = self.mailbox
        request_ids = self._request_ids
        enclave_id = core.current_enclave_id   # hardware-stamped identity
        privilege = core.privilege
        n = len(calls)
        #: Stable per-element idempotency keys: a replayed element is the
        #: *same* logical operation however many envelopes carry it.
        first_key = self._next_key
        self._next_key += n
        final: list[PrimitiveResponse | None] = [None] * n
        pending: Sequence[int] = range(n)
        #: Cycles beyond the clean-path formula: extra polls, backoff
        #: waits, and injected fabric latency — all CS-visible.
        extra_cycles = 0
        service_cycles = 0
        sent: list[int] = []
        attempts = polls = 0

        while pending and attempts < self.retry_policy.max_attempts:
            attempts += 1
            elements = [
                PrimitiveRequest(next(request_ids), calls[i][0], enclave_id,
                                 privilege, dict(calls[i][1]),
                                 first_key + i)
                for i in pending]
            packet = (BatchRequest(next(request_ids), elements) if batch
                      else elements[0])
            packet_id = packet.request_id
            sent.append(packet_id)
            try:
                mailbox.push_request(packet)
            except MailboxError:
                # Queue full (real backlog or injected burst): the
                # transmitter backs off and re-sends.
                extra_cycles += self._backoff(calls, batch, attempts,
                                              enclave_id)
                continue
            # Both transfer legs cross the iHub; latency spikes land here.
            extra_cycles += \
                mailbox.transfer_cycles("request") - Mailbox.TRANSFER_CYCLES

            pump()
            response = mailbox.poll_response(packet_id)
            polls = 1
            if response is None:
                deadline_polls = _deadline(calls)
                while response is None and polls < deadline_polls:
                    pump()
                    response = mailbox.poll_response(packet_id)
                    polls += 1
                # Only polls beyond the first cost cycles: the clean
                # synchronous path is charged exactly as before hardening.
                extra_cycles += EMCALL_POLL_INTERVAL_CYCLES * (polls - 1)
            if response is None:
                # Deadline expired: release the slot (late responses
                # become stale) and re-send what is pending; idempotency
                # keys make the EMS replay what it already applied.
                mailbox.cancel_request(packet_id)
                if self.obs is not None:
                    self.obs.record_emcall_timeout(
                        _label(calls, batch), attempts,
                        enclave_id=enclave_id)
                extra_cycles += self._backoff(calls, batch, attempts,
                                              enclave_id)
                continue
            if isinstance(response, BatchResponse) is not batch:
                raise EMCallError(
                    f"mailbox delivered {response!r} for request {packet_id}")
            responses = response.responses if batch else (response,)
            # A scalar TRANSIENT answer is re-sent before its response
            # leg is charged; a batch envelope always crossed back.
            if batch or response.status is not _TRANSIENT:
                extra_cycles += mailbox.transfer_cycles("response") \
                    - Mailbox.TRANSFER_CYCLES
            retry: list[int] = []
            for index, element in zip(pending, responses):
                if element.status is _TRANSIENT:
                    # The handler failed before touching state; only this
                    # element re-travels (the shrunken suffix).
                    retry.append(index)
                else:
                    final[index] = element
                    service_cycles += element.service_cycles
            pending = retry
            if pending:
                extra_cycles += self._backoff(calls, batch, attempts,
                                              enclave_id)

        if pending:
            return self._give_up(calls, batch, pending, attempts,
                                 extra_cycles + EMCALL_DISPATCH_CYCLES,
                                 sent, enclave_id)

        self._apply_cs_actions(core, final)
        jitter = self._jitter.randrange(EMCALL_POLL_JITTER_CYCLES + 1)
        dispatch_cycles = (EMCALL_DISPATCH_CYCLES
                           + (n - 1) * EMCALL_BATCH_PER_REQ_CYCLES)
        transfer_cycles = (Mailbox.TRANSFER_CYCLES
                           + (n - 1) * MAILBOX_BATCH_PER_REQ_CYCLES)
        cs_cycles = (dispatch_cycles
                     + 2 * transfer_cycles
                     + int(service_cycles * _EMS_TO_CS)
                     + jitter
                     + extra_cycles)
        if not batch:
            response = final[0]
            if self.obs is not None:
                self.obs.record_invocation(
                    primitive=calls[0][0].value,
                    status=response.status.value,
                    request_id=response.request_id, cs_cycles=cs_cycles,
                    dispatch_cycles=dispatch_cycles,
                    transfer_cycles=transfer_cycles,
                    service_cycles=response.service_cycles,
                    jitter_cycles=jitter, polls=polls,
                    enclave_id=enclave_id, core_id=core.core_id,
                    attempts=attempts)
            if self.san is not None:
                self.san.on_invocation(calls[0][0].value,
                                       response.status.value, cs_cycles)
            return InvokeResult(response, cs_cycles, attempts)

        responses = tuple(final)
        if self.obs is not None:
            self.obs.record_batch_invocation(
                primitives=[p.value for p, _ in calls],
                statuses=[r.status.value for r in responses],
                cs_cycles=cs_cycles, dispatch_cycles=dispatch_cycles,
                transfer_cycles=transfer_cycles,
                service_cycles=[r.service_cycles for r in responses],
                request_ids=[r.request_id for r in responses],
                jitter_cycles=jitter, polls=polls,
                enclave_id=enclave_id, core_id=core.core_id,
                attempts=attempts)
        result = BatchInvokeResult(responses, cs_cycles, attempts)
        if self.san is not None:
            for (primitive, _), response, cycles in zip(
                    calls, responses, result.per_request_cycles()):
                self.san.on_invocation(primitive.value,
                                       response.status.value, cycles)
        return result

    def _give_up(self, calls: Calls, batch: bool, pending: Sequence[int],
                 attempts: int, waited: int, sent: list[int],
                 enclave_id: int | None) -> DegradedResult:
        """Retries exhausted: a :class:`DegradedResult` or a typed timeout."""
        deadline_polls = _deadline(calls)
        unresolved = calls[pending[0]][0]
        budget = f"within {deadline_polls} polls x {attempts} attempts"
        if batch:
            name = f"BATCH[{unresolved.value}]"
            reason = (f"{len(pending)} of {len(calls)} batch elements "
                      f"unacknowledged {budget}")
            detail = {"pending": len(pending), "batch_size": len(calls)}
        else:
            name = unresolved.value
            reason = f"no response {budget}"
            detail = {}
        if self.retry_policy.degrade:
            if self.obs is not None:
                self.obs.record_emcall_degraded(
                    _label(calls, batch), attempts, enclave_id=enclave_id)
            return DegradedResult(
                primitive=unresolved, attempts=attempts, cs_cycles=waited,
                reason=reason, request_ids=tuple(sent))
        if self.obs is not None:
            self.obs.trip_flightrec(
                "emcall-batch-timeout" if batch else "emcall-timeout",
                primitive=name, attempts=attempts,
                deadline_polls=deadline_polls, waited_cycles=waited,
                **detail, enclave_id=enclave_id)
        raise EMCallTimeout(name, attempts, deadline_polls, waited)

    def _backoff(self, calls: Calls, batch: bool, attempt: int,
                 enclave_id: int | None) -> int:
        """Cycles of exponential backoff (with jitter) before a re-send.

        Drawn from a dedicated RNG stream that is only touched on actual
        retries, so clean-weather runs consume no extra randomness.
        """
        policy = self.retry_policy
        if attempt >= policy.max_attempts:
            return 0  # no re-send follows; nothing to wait for
        wait = policy.backoff_base_cycles * (2 ** (attempt - 1))
        jitter = self._rng.randint(0, policy.backoff_jitter_cycles,
                                   stream="emcall-backoff")
        if self.obs is not None:
            self.obs.record_emcall_retry(_label(calls, batch), attempt,
                                         wait + jitter,
                                         enclave_id=enclave_id)
        return wait + jitter

    # -- CS-side effects the EMS cannot perform itself ------------------------------------------

    def _apply_cs_actions(self, core: CSCore,
                          responses: list[PrimitiveResponse]) -> None:
        """Perform register/TLB updates the responses request, atomically.

        The EMS manages enclave control structures, but CS core registers
        are unreachable from the EMS; EMCall applies those updates with
        interrupts deferred (Section III-B, mechanism 4). Bitmap-change
        shootdowns across a batch merge into a *single* cross-core flush
        over the union of frames — one IPI storm instead of N (the Fig. 11
        cost paid once). Context actions come only from the unbatchable
        primitives, so a batch never carries one.
        """
        frames: dict[int, None] = {}
        flush_all = False
        for response in responses:
            actions = response.result.get("cs_actions")
            if not actions:
                continue
            enter = actions.get("enter_context")
            if enter is not None:
                core.enter_enclave_context(enter["enclave_id"],
                                           enter["page_table"])
            if actions.get("exit_context"):
                core.exit_enclave_context()
            frames.update(dict.fromkeys(actions.get("flush_frames") or ()))
            flush_all = flush_all or bool(actions.get("flush_all"))
        if frames:
            self.flush_tlbs_for_bitmap_change(list(frames))
        if flush_all:
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
    Validation — privilege, batchability, batch size — is the single
    gate's own check, run before any routing side effect, so rejected
    calls mint no IDs on any shard.

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

    def __init__(self, gates: Sequence[EMCall],
                 place: Callable[[], tuple[int, int]],
                 resolve: Callable[[int], int]) -> None:
        if not gates:
            raise EMCallError("a sharded gate needs at least one sub-gate")
        gates = tuple(gates)
        self._gates = gates
        #: Shard 0's gate: the platform's primary port for core-local /
        #: fleet-neutral operations. Designated once here, from the
        #: constructor argument — shard 0 always exists and never
        #: leaves the fleet, so this is a role, not a routing decision
        #: (everything that *is* one routes through ``_resolve`` or
        #: ``_place``, never a per-call-site fleet index).
        self._primary = gates[0]
        #: Placement/resolution callbacks from the shard pool (the CS
        #: layer holds opaque callables only).
        self._place = place
        self._resolve = resolve
        self._ewb_next = 0

    @property
    def gates(self) -> tuple["EMCall", ...]:
        """The per-shard sub-gates, shard order (read-only view)."""
        return self._gates

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._primary.retry_policy

    @retry_policy.setter
    def retry_policy(self, policy: RetryPolicy) -> None:
        for gate in self._gates:
            gate.retry_policy = policy

    @property
    def bitmap_flush_count(self) -> int:
        return sum(gate.bitmap_flush_count for gate in self._gates)

    # -- routing ----------------------------------------------------------------

    def _route(self, primitive: Primitive, args: dict[str, Any],
               core: CSCore) -> tuple[dict[str, Any], int]:
        """The shard serving this (already checked) call, and its args.

        ECREATE gets its platform-global ID stamped in here.
        """
        if primitive is Primitive.ECREATE:
            enclave_id, shard = self._place()
            return {**args, "preassigned_id": enclave_id}, shard
        if primitive is Primitive.EWB:
            shard = self._ewb_next
            self._ewb_next = (self._ewb_next + 1) % len(self._gates)
            return args, shard
        if primitive in _OS_TARGETED:
            target = args.get("enclave_id")
        else:
            target = core.current_enclave_id
        if not isinstance(target, int):
            # Malformed or absent target: shard 0's runtime issues the
            # same sanity reject a single EMS would.
            return args, 0
        return args, self._resolve(target)

    # -- the invocation path ------------------------------------------------------

    def invoke(self, primitive: Primitive, args: dict[str, Any], *,
               core: CSCore) -> InvokeResult | DegradedResult:
        """Route one primitive to its owning shard's gate."""
        _check(((primitive, args),), core, batch=False)
        args, shard = self._route(primitive, args, core)
        return self._gates[shard].invoke(primitive, args, core=core)

    def invoke_batch(self, calls: list[tuple[Primitive, dict[str, Any]]], *,
                     core: CSCore) -> BatchInvokeResult | DegradedResult:
        """Split a batch across the owning shards; reassemble in order."""
        _check(calls, core, batch=True)
        routed: list[tuple[Primitive, dict[str, Any]]] = []
        shards: list[int] = []
        for primitive, args in calls:
            args, shard = self._route(primitive, args, core)
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

    def handle_enclave_page_fault(self, core: CSCore,
                                  vaddr: int) -> InvokeResult:
        """Route an in-enclave demand fault to the owning shard."""
        return self._gate_for_core(core).handle_enclave_page_fault(core, vaddr)
