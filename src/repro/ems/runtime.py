"""The EMS Runtime: primitive dispatch, sanity checks, scheduling.

This is the software the paper ships as 3.8 kLoC of Rust on the EMS core
(Section VIII-A). It drains the mailbox request queue, sanity-checks each
request's arguments (Section III-B, mechanism 3), routes it to the owning
manager, converts the manager's instruction count into EMS-core cycles
through the configured core's sustained IPC, and posts the response.

Scheduling (Section III-C): requests from one pump round are handled in
randomized order, and with multiple EMS cores they are conceptually
concurrent — an attacker cannot influence execution order or timing of
other enclaves' primitives. The queueing-level consequences for service
latency are modelled separately in :mod:`repro.eval.slo`.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Callable, Sequence

from repro.common.packets import (
    BatchRequest,
    BatchResponse,
    PrimitiveRequest,
    PrimitiveResponse,
    ResponseStatus,
)
from repro.common.rng import DeterministicRng
from repro.common.types import Permission, Primitive
from repro.core.enclave import EnclaveConfig
from repro.ems.attestation import AttestationService, Certificate
from repro.ems.lifecycle import EnclaveManager, HandlerOutput
from repro.ems.page_mgmt import PageManager
from repro.ems.shared_memory import SharedMemoryManager
from repro.ems.swapping import SwapManager
from repro.eval.calibration import (
    EMS_REPLAY_LOOKUP_INSTR,
    EMS_STALL_CYCLES_PER_ROUND,
)
from repro.errors import (
    AttestationError,
    ConnectionNotAuthorized,
    EMSError,
    EnclaveStateError,
    MailboxError,
    NotRegionOwner,
    OutOfEnclaveMemory,
    OwnershipError,
    SanityCheckError,
    SharedMemoryError,
)
from repro.hw.core import CoreConfig
from repro.hw.mailbox import Mailbox

_STATUS_FOR_ERROR: list[tuple[type, ResponseStatus]] = [
    (ConnectionNotAuthorized, ResponseStatus.NOT_AUTHORIZED),
    (NotRegionOwner, ResponseStatus.NOT_AUTHORIZED),
    (OutOfEnclaveMemory, ResponseStatus.OUT_OF_MEMORY),
    (OwnershipError, ResponseStatus.OWNERSHIP_ERROR),
    (EnclaveStateError, ResponseStatus.STATE_ERROR),
    (AttestationError, ResponseStatus.ATTESTATION_FAILED),
    (SanityCheckError, ResponseStatus.SANITY_FAILED),
    (SharedMemoryError, ResponseStatus.ERROR),
    (EMSError, ResponseStatus.ERROR),
]

#: Most-recent idempotency keys the runtime remembers (bounded so chaos
#: soaks cannot grow the replay cache without limit).
_IDEMPOTENCY_CACHE_SIZE = 1024

#: EMS instructions to look up and replay a cached idempotent result.
_REPLAY_INSTR = EMS_REPLAY_LOOKUP_INSTR

#: EMS cycles of injected stall converted into deferred pump rounds.
_STALL_CYCLES_PER_ROUND = EMS_STALL_CYCLES_PER_ROUND


@dataclasses.dataclass
class RuntimeStats:
    served: int = 0
    failed: int = 0
    sanity_rejects: int = 0
    total_service_cycles: int = 0
    #: Retried requests answered from the idempotency cache instead of
    #: re-applying the handler (ECREATE/EADD dedup).
    idempotent_replays: int = 0
    #: Injected handler crashes answered with a TRANSIENT status.
    transient_failures: int = 0
    #: Responses whose posting was deferred by an injected stall.
    stalled_responses: int = 0
    #: Pump rounds skipped by an injected EMS core pause.
    paused_rounds: int = 0
    #: Batch envelopes dispatched (each also counts its elements in
    #: ``served``/``failed`` as usual).
    batches_served: int = 0
    #: Total elements across those batch envelopes.
    batched_elements: int = 0
    #: Busy cycles per EMS core (round-robin pump assignment).
    per_core_cycles: list[int] = dataclasses.field(default_factory=list)

    def utilization(self) -> list[float]:
        """Per-core share of the total service work."""
        total = sum(self.per_core_cycles)
        if not total:
            return [0.0] * len(self.per_core_cycles)
        return [cycles / total for cycles in self.per_core_cycles]


class EMSRuntime:
    """Dispatcher over the EMS managers."""

    def __init__(self, mailbox: Mailbox, core_config: CoreConfig,
                 enclaves: EnclaveManager, pages: PageManager,
                 swap: SwapManager, shm: SharedMemoryManager,
                 attestation: AttestationService,
                 rng: DeterministicRng, num_cores: int = 1,
                 fabric_probe=None) -> None:
        self.mailbox = mailbox
        self.core_config = core_config
        self.num_cores = num_cores
        self._fabric_probe = fabric_probe
        self.enclaves = enclaves
        self.pages = pages
        self.swap = swap
        self.shm = shm
        self.attestation = attestation
        self._rng = rng
        self.stats = RuntimeStats(per_core_cycles=[0] * num_cores)
        self._next_core = 0
        #: Out-of-band observability hook (attached by the system).
        self.obs = None
        #: Fault injector (None = clear weather); see repro.faults.
        self.faults = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None
        #: idempotency_key -> (result dict, original status) replay cache.
        self._idempotency_cache: collections.OrderedDict[
            str, tuple[dict, ResponseStatus]] = collections.OrderedDict()
        #: Responses held back by an injected stall: [rounds_left, response].
        self._stalled: list[list] = []
        #: Pump rounds left in an injected EMS core pause.
        self._pause_rounds = 0
        self._handlers: dict[Primitive, Callable[[PrimitiveRequest], HandlerOutput]] = {
            Primitive.ECREATE: self._h_ecreate,
            Primitive.EADD: self._h_eadd,
            Primitive.EMEAS: self._h_emeas,
            Primitive.EENTER: self._h_eenter,
            Primitive.ERESUME: self._h_eresume,
            Primitive.EEXIT: self._h_eexit,
            Primitive.EDESTROY: self._h_edestroy,
            Primitive.EALLOC: self._h_ealloc,
            Primitive.EFREE: self._h_efree,
            Primitive.EWB: self._h_ewb,
            Primitive.ESHMGET: self._h_eshmget,
            Primitive.ESHMAT: self._h_eshmat,
            Primitive.ESHMDT: self._h_eshmdt,
            Primitive.ESHMSHR: self._h_eshmshr,
            Primitive.ESHMDES: self._h_eshmdes,
            Primitive.EATTEST: self._h_eattest,
        }

    # -- the pump ----------------------------------------------------------------------

    def pause(self, rounds: int) -> None:
        """Freeze the runtime for ``rounds`` pump rounds.

        The shard pool uses this to model a failed shard
        (``ems.shard.fail``): the shard's core stops draining its
        mailbox while its siblings keep serving, and the CS gate's
        retry/deadline machinery rides out the outage.
        """
        if rounds > 0:
            self._pause_rounds += rounds

    def pump(self) -> int:
        """Drain pending requests; returns the number served.

        Requests are shuffled before service: attackers cannot control
        the relative order of their own and a victim's primitives.

        Under fault injection the pump also models degraded weather: an
        ``ems.core.pause`` freezes whole rounds, and stalled responses
        (``ems.handler.stall``) are delivered only once their deferral
        rounds have elapsed.
        """
        if self._pause_rounds > 0:
            self._pause_rounds -= 1
            self.stats.paused_rounds += 1
            return 0
        if self.faults is not None:
            pause = self.faults.magnitude("ems.core.pause")
            if pause > 0:
                self._pause_rounds = pause - 1
                self.stats.paused_rounds += 1
                return 0
        self._deliver_stalled()
        requests = self.mailbox.fetch_requests()
        if not requests:
            return 0
        if len(requests) > 1:
            # Shuffling one request would draw nothing; skip the call.
            self._rng.stream("ems-schedule").shuffle(requests)
        if self.obs is not None:
            self.obs.record_ems_pump(len(requests))
        for request in requests:
            if isinstance(request, BatchRequest):
                response = self._post_response(self.dispatch_batch(request))
                self.stats.batches_served += 1
                self.stats.batched_elements += len(request)
                self._account(request.requests, response.responses)
            else:
                response = self._post_response(self.dispatch(request))
                self._account((request,), (response,))
        return len(requests)

    def _account(self, requests: Sequence[PrimitiveRequest],
                 responses: Sequence[PrimitiveResponse]) -> None:
        """Per-element service accounting, hooks, and core rotation.

        Round-robin assignment across the EMS cores: concurrent requests
        land on different cores (Section III-C), which the utilization
        stats and the Fig. 6 queueing model reflect.
        """
        for request, response in zip(requests, responses):
            self.stats.per_core_cycles[self._next_core] += \
                response.service_cycles
            if self.obs is not None:
                self.obs.record_ems_dispatch(
                    request_id=request.request_id,
                    primitive=request.primitive.value,
                    status=response.status.value,
                    service_cycles=response.service_cycles,
                    core_index=self._next_core,
                    enclave_id=request.enclave_id)
            if self.san is not None:
                self.san.on_ems_dispatch(request.primitive.value,
                                         response.status.value,
                                         response.service_cycles)
            self._next_core = (self._next_core + 1) % self.num_cores

    def dispatch_batch(self, batch: BatchRequest) -> BatchResponse:
        """Run each element through the full scalar dispatch pipeline.

        Elements run in submission order (they are independent by the
        batch API contract, and submission order is exactly how the
        scalar path would have serialized them — the differential suite
        pins this). Each element gets its own status; a failing element
        never poisons its siblings.

        Sanity checks, idempotent replay, and the per-element fault
        points (``ems.handler.exception`` among them) all apply to every
        element individually — injected chaos lands on batch *elements*,
        not just envelopes.
        """
        corrupted: list = [None] * len(batch)
        if self.faults is not None:
            corrupted = self.faults.fires_each(
                "mailbox.batch.element_corrupt", len(batch))
        responses = []
        for request, hit in zip(batch.requests, corrupted):
            if hit is not None:
                # The element's CRC failed at the Rx edge: its handler
                # never ran, so TRANSIENT — EMCall re-sends it alone.
                self.stats.transient_failures += 1
                responses.append(PrimitiveResponse(
                    request.request_id, ResponseStatus.TRANSIENT,
                    result={"error": "batch element CRC discard "
                                     "(no state touched)"}))
                continue
            responses.append(self.dispatch(request))
        return BatchResponse(
            batch_id=batch.batch_id, responses=tuple(responses),
            service_cycles=sum(r.service_cycles for r in responses))

    def _post_response(self, response: PrimitiveResponse) -> PrimitiveResponse:
        """Post one response, modelling stalls; returns what was (or will
        be) posted — possibly inflated by an injected slow handler."""
        if self.faults is not None:
            stall = self.faults.magnitude("ems.handler.stall")
            if stall > 0:
                # The slow handler burns `stall` extra EMS cycles
                # (cycle-accounted) and its response reaches the mailbox
                # only after the matching number of pump rounds.
                rounds = max(1, stall // _STALL_CYCLES_PER_ROUND)
                response = dataclasses.replace(
                    response,
                    service_cycles=response.service_cycles + stall)
                self.stats.stalled_responses += 1
                self._stalled.append([rounds, response])
                return response
        self._push_now(response)
        return response

    def _push_now(self, response: PrimitiveResponse) -> None:
        """Push to the mailbox; a full response queue re-queues for the
        next round instead of crashing the runtime."""
        try:
            self.mailbox.push_response(response)
        except MailboxError:
            self._stalled.append([1, response])

    def _deliver_stalled(self) -> None:
        """Age the stalled responses; post the ones whose time has come."""
        if not self._stalled:
            return
        ready = []
        for entry in self._stalled:
            entry[0] -= 1
            if entry[0] <= 0:
                ready.append(entry)
        for entry in ready:
            self._stalled.remove(entry)
            self._push_now(entry[1])

    def dispatch(self, request: PrimitiveRequest) -> PrimitiveResponse:
        """Sanity-check, execute, and package one primitive.

        Retried non-idempotent requests (same idempotency key) are
        answered from the replay cache — the handler is *not* re-applied,
        so a retry after a lost response can never double-create or
        double-add. An injected handler crash fails *before* the handler
        runs and answers TRANSIENT: safe for EMCall to re-send.
        """
        handler = self._handlers.get(request.primitive)
        if handler is None:
            self.stats.sanity_rejects += 1
            return PrimitiveResponse(request.request_id,
                                     ResponseStatus.SANITY_FAILED)
        key = request.idempotency_key
        if key is not None:
            cached = self._idempotency_cache.get(key)
            if cached is not None:
                result, status = cached
                self.stats.idempotent_replays += 1
                replay_cycles = \
                    self.core_config.cycles_for_instructions(_REPLAY_INSTR)
                return PrimitiveResponse(
                    request.request_id, status,
                    result={**result, "replayed": True},
                    service_cycles=replay_cycles)
        if self.faults is not None and \
                self.faults.fires("ems.handler.exception"):
            self.stats.transient_failures += 1
            return PrimitiveResponse(
                request.request_id, ResponseStatus.TRANSIENT,
                result={"error": "injected handler crash (no state touched)"})
        try:
            result, instr, crypto_cycles = handler(request)
        except EMSError as exc:
            self.stats.failed += 1
            if isinstance(exc, SanityCheckError):
                self.stats.sanity_rejects += 1
            status = next(s for t, s in _STATUS_FOR_ERROR if isinstance(exc, t))
            return PrimitiveResponse(request.request_id, status,
                                     result={"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — a crashed handler must
            # not take the whole EMS down with it; the CS gets a typed
            # failure and the runtime keeps serving other enclaves.
            self.stats.failed += 1
            return PrimitiveResponse(request.request_id, ResponseStatus.ERROR,
                                     result={"error": f"handler crashed: {exc!r}"})

        service_cycles = (self.core_config.cycles_for_instructions(instr)
                          + crypto_cycles)
        self.stats.served += 1
        self.stats.total_service_cycles += service_cycles
        if key is not None:
            self._idempotency_cache[key] = (dict(result), ResponseStatus.OK)
            while len(self._idempotency_cache) > _IDEMPOTENCY_CACHE_SIZE:
                self._idempotency_cache.popitem(last=False)
        if self._fabric_probe is not None:
            # The primitive's memory/I/O traffic crosses the fabric; an
            # interconnect observer sees only the aggregate count per
            # window (Section VIII-C) — concurrent primitives mix here.
            self._fabric_probe.record(max(1, instr // 50))
        return PrimitiveResponse(request.request_id, ResponseStatus.OK,
                                 result=result, service_cycles=service_cycles)

    # -- argument extraction with sanity checks -----------------------------------------------

    @staticmethod
    def _required(request: PrimitiveRequest, name: str, kind: type) -> Any:
        value = request.args.get(name)
        if not isinstance(value, kind):
            raise SanityCheckError(
                f"{request.primitive.value} argument {name!r} must be "
                f"{kind.__name__}, got {type(value).__name__}")
        return value

    @staticmethod
    def _caller(request: PrimitiveRequest) -> int:
        """The hardware-stamped enclave identity; never caller-supplied."""
        if request.enclave_id is None:
            raise SanityCheckError(
                f"{request.primitive.value} must be invoked from an enclave")
        return request.enclave_id

    @staticmethod
    def _target(request: PrimitiveRequest) -> int:
        """An OS-named target enclave (for OS-privilege lifecycle ops)."""
        return EMSRuntime._required(request, "enclave_id", int)

    # -- handlers -----------------------------------------------------------------------------

    def _h_ecreate(self, request: PrimitiveRequest) -> HandlerOutput:
        config = request.args.get("config")
        if not isinstance(config, EnclaveConfig):
            raise SanityCheckError("ECREATE requires an EnclaveConfig")
        preassigned = request.args.get("preassigned_id")
        if preassigned is not None and not isinstance(preassigned, int):
            raise SanityCheckError("preassigned_id must be an int")
        return self.enclaves.ecreate(config, preassigned_id=preassigned)

    def _h_eadd(self, request: PrimitiveRequest) -> HandlerOutput:
        content = self._required(request, "content", bytes)
        perm = request.args.get("perm", Permission.RX)
        if not isinstance(perm, Permission):
            raise SanityCheckError("EADD perm must be a Permission")
        return self.enclaves.eadd(self._target(request), content, perm)

    def _h_emeas(self, request: PrimitiveRequest) -> HandlerOutput:
        return self.enclaves.emeas(self._target(request))

    def _h_eenter(self, request: PrimitiveRequest) -> HandlerOutput:
        return self.enclaves.eenter(self._target(request))

    def _h_eresume(self, request: PrimitiveRequest) -> HandlerOutput:
        return self.enclaves.eresume(self._target(request))

    def _h_eexit(self, request: PrimitiveRequest) -> HandlerOutput:
        return self.enclaves.eexit(self._caller(request))

    def _h_edestroy(self, request: PrimitiveRequest) -> HandlerOutput:
        return self.enclaves.edestroy(self._target(request))

    def _h_ealloc(self, request: PrimitiveRequest) -> HandlerOutput:
        caller = self._caller(request)
        fault_vaddr = request.args.get("fault_vaddr")
        if fault_vaddr is not None:
            if not isinstance(fault_vaddr, int):
                raise SanityCheckError("fault_vaddr must be an int")
            return self.pages.service_fault(caller, fault_vaddr)
        pages = self._required(request, "pages", int)
        perm = request.args.get("perm", Permission.RW)
        if not isinstance(perm, Permission):
            raise SanityCheckError("EALLOC perm must be a Permission")
        return self.pages.ealloc(caller, pages, perm)

    def _h_efree(self, request: PrimitiveRequest) -> HandlerOutput:
        vaddr = self._required(request, "vaddr", int)
        return self.pages.efree(self._caller(request), vaddr)

    def _h_ewb(self, request: PrimitiveRequest) -> HandlerOutput:
        pages = self._required(request, "pages", int)
        return self.swap.ewb(pages)

    def _h_eshmget(self, request: PrimitiveRequest) -> HandlerOutput:
        pages = self._required(request, "pages", int)
        perm = request.args.get("max_perm", Permission.RW)
        if not isinstance(perm, Permission):
            raise SanityCheckError("ESHMGET max_perm must be a Permission")
        return self.shm.eshmget(self._caller(request), pages, perm)

    def _h_eshmat(self, request: PrimitiveRequest) -> HandlerOutput:
        shm_id = self._required(request, "shm_id", int)
        return self.shm.eshmat(self._caller(request), shm_id)

    def _h_eshmdt(self, request: PrimitiveRequest) -> HandlerOutput:
        shm_id = self._required(request, "shm_id", int)
        return self.shm.eshmdt(self._caller(request), shm_id)

    def _h_eshmshr(self, request: PrimitiveRequest) -> HandlerOutput:
        shm_id = self._required(request, "shm_id", int)
        device_id = request.args.get("device_id")
        perm = request.args.get("perm", Permission.READ)
        if not isinstance(perm, Permission):
            raise SanityCheckError("ESHMSHR perm must be a Permission")
        if device_id is not None:
            if not isinstance(device_id, str):
                raise SanityCheckError("device_id must be a string")
            return self.shm.grant_device(self._caller(request), shm_id,
                                         device_id, perm)
        receiver = self._required(request, "receiver_id", int)
        return self.shm.eshmshr(self._caller(request), shm_id, receiver, perm)

    def _h_eshmdes(self, request: PrimitiveRequest) -> HandlerOutput:
        shm_id = self._required(request, "shm_id", int)
        return self.shm.eshmdes(self._caller(request), shm_id)

    def _h_eattest(self, request: PrimitiveRequest) -> HandlerOutput:
        mode = request.args.get("mode", "quote")
        if mode == "quote":
            report_data = request.args.get("report_data", b"")
            if not isinstance(report_data, bytes):
                raise SanityCheckError("report_data must be bytes")
            return self.attestation.eattest(self._caller(request), report_data)
        if mode == "local_report":
            challenger = self._required(request, "challenger_measurement", bytes)
            return self.attestation.local_report(self._caller(request), challenger)
        if mode == "local_verify":
            cert = request.args.get("certificate")
            if not isinstance(cert, Certificate):
                raise SanityCheckError("certificate must be a Certificate")
            return self.attestation.local_verify(self._caller(request), cert)
        raise SanityCheckError(f"unknown EATTEST mode {mode!r}")
