"""The probe-point facade every instrumented subsystem reports through.

One :class:`Observability` instance exists per :class:`HyperTEESystem`.
Subsystems hold an ``obs`` attribute that is ``None`` by default — the
probes cost nothing until ``HyperTEESystem.enable_observability()``
attaches the facade. Probe methods translate low-level events into
registry instruments (:mod:`repro.obs.metrics`), the SLO digests, the
attribution table and the flight recorder. Lifecycle spans
(:mod:`repro.obs.trace`) are built only while ``tracer.enabled`` is set:
serve and the other readers of the registry read no span, so attaching
the probes does not start the tracer.

Each recorded root (a scalar or batch invocation) advances the facade's
cycle clock (:attr:`Observability.clock`) by its ``cs_cycles``, traced
or not; root spans, flight-recorder events and fault markers read it.

Probe-point map (who calls what):

====================  ==========================================
caller                probe
====================  ==========================================
``cs/emcall.py``      :meth:`record_invocation` — the root span and the
                      gate/transfer/service/poll decomposition (traced)
``ems/runtime.py``    :meth:`record_ems_dispatch`, :meth:`record_ems_pump`
``hw/mailbox.py``     :meth:`record_mailbox_push`,
                      :meth:`record_mailbox_response`,
                      :meth:`record_mailbox_reject`,
                      :meth:`record_mailbox_fetch`
``ems/memory_pool``   :meth:`record_pool_refill`, :meth:`record_pool_take`,
                      :meth:`record_pool_return`
``ems/swapping.py``   :meth:`record_swap_round`
``hw/tlb.py``         :meth:`record_tlb_flush`
``hw/page_table.py``  :meth:`record_ptw_walk`
``crypto/engine.py``  :meth:`record_crypto_op`
``eval/slo.py``       :meth:`record_slo_latency`
``faults/injector``   :meth:`record_fault` — every fired fault, plus an
                      instant marker on the ``faults`` trace track
``cs/emcall.py``      :meth:`record_emcall_retry`,
                      :meth:`record_emcall_timeout`,
                      :meth:`record_emcall_degraded`,
                      :meth:`record_demand_fault`, :meth:`trip_flightrec`
``cs/os.py``          :meth:`record_os_alloc` — frame traffic by
                      normalized requestor
====================  ==========================================

PR-6 layers riding the same facade (all out-of-band):

* the **SLO engine** (:mod:`repro.obs.slo`) — every Table IV primitive,
  batch envelopes, and mailbox enqueue->drain residency feed per-
  operation quantile digests with targets and error budgets;
* **per-enclave attribution** (:mod:`repro.obs.attribution`) — a
  cardinality-bounded tenant dimension over cycles, retries, faults,
  pool pages, and swap traffic;
* the **flight recorder** (:mod:`repro.obs.flightrec`) — a ring of
  recent structured events, frozen to a JSON black box on
  ``EMCallTimeout``, chaos invariant violations, or CLI request.

**Out-of-band contract.** A probe may read whatever its caller hands it
and write registry/tracer state, and nothing else: no model RNG draws,
no mutation of modelled cycle counters, queues, or enclave state. This
is the model-level analogue of the paper's claim that EMS-side
management activity is invisible to the CS, and it is regression-tested
by ``tests/obs/test_noninterference.py``.
"""

from __future__ import annotations

from typing import Any

import collections

from repro.common.constants import CS_CORE_FREQ_HZ, EMS_CORE_FREQ_HZ
from repro.common.types import Primitive
from repro.obs.attribution import Attribution
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import BATCH_OPERATION, MAILBOX_WAIT_OPERATION, SLOEngine
from repro.obs.trace import Tracer

#: Bound on the mailbox-residency FIFO: under sustained drops/cancels
#: the push and fetch streams can drift apart; stale entries age out
#: instead of growing without bound.
_MAILBOX_PENDING_MAX = 1024

#: SLO operations that are Table IV primitives (the latency table's rows).
_PRIMITIVES = frozenset(primitive.value for primitive in Primitive)


class Observability:
    """Metrics registry + tracer + the probe-point methods."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        #: Set once HyperTEESystem.enable_observability() attached the
        #: probes (sanitizers and chaos guards consult it).
        self.enabled = False
        #: The cycle timeline, in CS cycles: each recorded root advances
        #: it by its ``cs_cycles``. Roots start here.
        self.clock = 0.0
        #: request_id -> EMS dispatch detail, kept only while tracing and
        #: consumed by the invocation's root to nest the handler span in
        #: its service span; cleared once the root is recorded.
        self._pending_ems: dict[int, dict[str, Any]] = {}
        self.slo = SLOEngine(self.metrics)
        self.attribution = Attribution(self.metrics)
        self.flightrec = FlightRecorder()
        #: Push-event sequence numbers of requests still queued, FIFO —
        #: the mailbox enqueue->drain residency series (in probe-event
        #: ticks; the mailbox has no modelled clock of its own).
        self._mailbox_pending: collections.deque[int] = collections.deque(
            maxlen=_MAILBOX_PENDING_MAX)
        self._mailbox_event_seq = 0

        reg = self.metrics
        self._invocations = reg.counter(
            "hypertee_primitive_invocations_total",
            "Primitive invocations through EMCall, by primitive and status",
            ("primitive", "status"))
        self._ems_service = reg.histogram(
            "hypertee_ems_service_cycles",
            "EMS-side handler service time, in EMS-core cycles",
            ("primitive",))
        self._polls = reg.histogram(
            "hypertee_emcall_poll_rounds",
            "Response-poll rounds per invocation")
        self._batch_size = reg.histogram(
            "hypertee_emcall_batch_size",
            "Elements per EMCall batch envelope (invoke_batch)")
        self._pump_batch = reg.histogram(
            "hypertee_ems_pump_batch_size",
            "Requests drained per EMS pump round")
        self._mailbox_depth = reg.gauge(
            "hypertee_mailbox_request_queue_depth",
            "Requests waiting in the mailbox after the last push/fetch")
        self._mailbox_events = reg.counter(
            "hypertee_mailbox_events_total",
            "Mailbox traffic events", ("event",))
        self._pool_refill_pages = reg.histogram(
            "hypertee_pool_refill_pages",
            "Frames requested from the CS OS per pool refill")
        self._pool_free = reg.gauge(
            "hypertee_pool_free_frames", "Pool frames currently free",
            ("shard",))
        self._pool_used = reg.gauge(
            "hypertee_pool_used_frames", "Pool frames handed to enclaves",
            ("shard",))
        self._swap_pages = reg.histogram(
            "hypertee_swap_surrendered_pages",
            "Pages surrendered per EWB round (request + random overshoot)")
        self._tlb_flushes = reg.counter(
            "hypertee_tlb_flushes_total",
            "TLB flushes by kind", ("kind",))
        self._tlb_dropped = reg.histogram(
            "hypertee_tlb_flush_dropped_entries",
            "Entries dropped per TLB flush")
        self._ptw_walks = reg.counter(
            "hypertee_ptw_walks_total",
            "Hardware page-table walks, by bitmap-check outcome",
            ("bitmap_checked",))
        self._ptw_cycles = reg.histogram(
            "hypertee_ptw_walk_cycles", "Cycles per hardware walk")
        self._crypto_ops = reg.counter(
            "hypertee_crypto_ops_total", "Crypto engine operations", ("op",))
        self._crypto_cycles = reg.histogram(
            "hypertee_crypto_op_cycles",
            "EMS cycles per crypto operation", ("op",))
        self._slo_latency = reg.histogram(
            "hypertee_slo_latency_seconds",
            "Fig. 6 queueing-sim primitive latencies", ("config",))
        self._faults = reg.counter(
            "hypertee_faults_injected_total",
            "Injected faults fired, by fault point", ("point",))
        self._fault_magnitude = reg.histogram(
            "hypertee_fault_magnitude",
            "Magnitude of injected faults (cycles/rounds/burst)", ("point",))
        self._retries = reg.counter(
            "hypertee_emcall_retries_total",
            "EMCall re-sends after timeout/backpressure/transient failure",
            ("primitive",))
        self._backoff_cycles = reg.histogram(
            "hypertee_emcall_backoff_cycles",
            "CS cycles waited per EMCall backoff")
        self._timeouts = reg.counter(
            "hypertee_emcall_timeouts_total",
            "Poll deadlines that expired without a response", ("primitive",))
        self._degraded = reg.counter(
            "hypertee_emcall_degraded_total",
            "Invocations that returned a DegradedResult", ("primitive",))
        self._shard_requests = reg.counter(
            "hypertee_shard_requests_total",
            "Requests served per EMS shard", ("shard",))
        self._shard_service_cycles = reg.counter(
            "hypertee_shard_service_cycles_total",
            "EMS service cycles burned per shard", ("shard",))
        self._shard_transfers = reg.counter(
            "hypertee_shard_transfers_total",
            "Cross-shard enclave ownership transfers",
            ("src", "dst"))
        self._shard_transfer_pages = reg.histogram(
            "hypertee_shard_transfer_pages",
            "Frames moved per cross-shard ownership transfer")

    # -- EMCall: the root probe ------------------------------------------------------

    def record_invocation(self, *, primitive: str, status: str,
                          request_id: int, cs_cycles: int,
                          dispatch_cycles: int, transfer_cycles: int,
                          service_cycles: int, jitter_cycles: int,
                          polls: int, enclave_id: int | None,
                          core_id: int, attempts: int = 1) -> None:
        """One EMCall.invoke completed: metrics + (traced) the span tree.

        The span layout mirrors the request's actual journey; the five
        child durations sum exactly to ``cs_cycles``. Retried
        invocations (``attempts > 1``) fold their wasted attempts into
        the trailing poll/backoff span.
        """
        self._invocations.labels(primitive, status).inc()
        self._polls.observe(polls)
        self.slo.record(primitive, cs_cycles)
        self.attribution.record_invocation(enclave_id, cs_cycles)
        t0 = self.clock
        self.clock = t0 + cs_cycles
        self.flightrec.record(
            "invocation", t0, primitive=primitive,
            status=status, request_id=request_id, cs_cycles=cs_cycles,
            enclave_id=enclave_id, attempts=attempts)

        tracer = self.tracer
        if not tracer.enabled:
            self._pending_ems.clear()
            return
        track = f"cs{core_id}"
        extra = {"attempts": attempts} if attempts > 1 else {}
        root = tracer.add_span(
            primitive, "primitive", t0, cs_cycles, track=track,
            request_id=request_id, status=status, enclave_id=enclave_id,
            **extra)
        ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
        service_cs = int(service_cycles * ems_to_cs)
        cursor = t0
        gate = tracer.add_span("emcall.gate", "emcall", cursor,
                               dispatch_cycles, parent=root, track=track,
                               primitive=primitive)
        del gate
        cursor += dispatch_cycles
        tracer.add_span("mailbox.request", "mailbox", cursor,
                        transfer_cycles, parent=root, track=track,
                        request_id=request_id)
        cursor += transfer_cycles
        service = tracer.add_span(
            "ems.service", "ems", cursor, service_cs, parent=root,
            track=track, ems_cycles=service_cycles)
        detail = self._pending_ems.pop(request_id, None)
        if detail is not None and service is not None:
            tracer.add_span(
                f"ems.handler:{detail['primitive']}", "ems", cursor,
                service_cs, parent=service, track=track, **{
                    k: v for k, v in detail.items() if k != "primitive"})
        cursor += service_cs
        tracer.add_span("mailbox.response", "mailbox", cursor,
                        transfer_cycles, parent=root, track=track,
                        request_id=request_id)
        cursor += transfer_cycles
        # The remainder of the CS-visible latency is poll obfuscation
        # jitter; spans must tile the root exactly.
        tail = cs_cycles - (cursor - t0)
        tracer.add_span("emcall.poll", "emcall", cursor, tail, parent=root,
                        track=track, polls=polls, jitter_cycles=jitter_cycles)
        self._pending_ems.clear()

    def record_batch_invocation(self, *, primitives: list[str],
                                statuses: list[str], cs_cycles: int,
                                dispatch_cycles: int, transfer_cycles: int,
                                service_cycles: list[int],
                                request_ids: list[int], jitter_cycles: int,
                                polls: int, enclave_id: int | None,
                                core_id: int, attempts: int = 1) -> None:
        """One EMCall.invoke_batch completed: metrics + (traced) the span tree.

        Metrics stay comparable with the scalar probe: every element
        counts in the per-primitive invocation counter and contributes an
        *amortized* share of the batch latency to its primitive's SLO
        digest. The trace gets one ``emcall.batch[N]`` root whose
        children tile it exactly — gate, one request crossing, the N
        handler spans in dispatch order, one response crossing, and the
        poll/jitter tail.
        """
        n = len(primitives)
        self._batch_size.observe(n)
        self._polls.observe(polls)
        self.slo.record(BATCH_OPERATION, cs_cycles)
        self.attribution.record_invocation(enclave_id, cs_cycles, count=n)
        t0 = self.clock
        self.clock = t0 + cs_cycles
        self.flightrec.record(
            "batch", t0, batch_size=n, cs_cycles=cs_cycles,
            enclave_id=enclave_id, attempts=attempts,
            statuses=sorted(set(statuses)))
        share, remainder = divmod(cs_cycles, n)
        for index, (primitive, status) in enumerate(zip(primitives, statuses)):
            self._invocations.labels(primitive, status).inc()
            # The per-primitive SLO series stays live under batching:
            # each element contributes its amortized envelope share.
            self.slo.record(primitive,
                            share + (1 if index < remainder else 0))

        tracer = self.tracer
        if not tracer.enabled:
            self._pending_ems.clear()
            return
        track = f"cs{core_id}"
        extra = {"attempts": attempts} if attempts > 1 else {}
        root = tracer.add_span(
            f"emcall.batch[{n}]", "primitive", t0, cs_cycles, track=track,
            batch_size=n, enclave_id=enclave_id, **extra)
        ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
        cursor = t0
        tracer.add_span("emcall.gate", "emcall", cursor, dispatch_cycles,
                        parent=root, track=track, batch_size=n)
        cursor += dispatch_cycles
        tracer.add_span("mailbox.request", "mailbox", cursor,
                        transfer_cycles, parent=root, track=track,
                        batch_size=n)
        cursor += transfer_cycles
        for primitive, request_id, ems_cycles in zip(
                primitives, request_ids, service_cycles):
            service_cs = int(ems_cycles * ems_to_cs)
            span = tracer.add_span(
                f"ems.service:{primitive}", "ems", cursor, service_cs,
                parent=root, track=track, request_id=request_id,
                ems_cycles=ems_cycles)
            detail = self._pending_ems.pop(request_id, None)
            if detail is not None and span is not None:
                tracer.add_span(
                    f"ems.handler:{detail['primitive']}", "ems", cursor,
                    service_cs, parent=span, track=track, **{
                        k: v for k, v in detail.items() if k != "primitive"})
            cursor += service_cs
        tracer.add_span("mailbox.response", "mailbox", cursor,
                        transfer_cycles, parent=root, track=track,
                        batch_size=n)
        cursor += transfer_cycles
        tail = cs_cycles - (cursor - t0)
        tracer.add_span("emcall.poll", "emcall", cursor, tail, parent=root,
                        track=track, polls=polls,
                        jitter_cycles=jitter_cycles)
        self._pending_ems.clear()

    # -- EMS runtime ----------------------------------------------------------------

    def record_ems_dispatch(self, *, request_id: int, primitive: str,
                            status: str, service_cycles: int,
                            core_index: int,
                            enclave_id: int | None = None) -> None:
        """The EMS dispatched one request (handler detail for the trace)."""
        self._ems_service.labels(primitive).observe(service_cycles)
        self.attribution.record_ems_service(enclave_id, service_cycles)
        if self.tracer.enabled:
            self._pending_ems[request_id] = {
                "primitive": primitive, "status": status,
                "service_cycles": service_cycles, "ems_core": core_index,
            }

    def record_ems_pump(self, batch_size: int) -> None:
        """One pump round drained ``batch_size`` requests."""
        self._pump_batch.observe(batch_size)

    # -- EMS shard pool ---------------------------------------------------------------

    def record_shard_pump(self, shard: int, served: int,
                          service_cycles: int) -> None:
        """One shard's pump round served ``served`` requests."""
        self._shard_requests.labels(str(shard)).inc(served)
        self._shard_service_cycles.labels(str(shard)).inc(service_cycles)

    def record_shard_transfer(self, src: int, dst: int, pages: int) -> None:
        """A cross-shard ownership transfer committed."""
        self._shard_transfers.labels(str(src), str(dst)).inc()
        self._shard_transfer_pages.observe(pages)
        self.flightrec.record("shard_transfer", self.clock,
                              src=src, dst=dst, pages=pages)

    # -- mailbox ---------------------------------------------------------------------

    def record_mailbox_push(self, queue_depth: int) -> None:
        """A request entered the mailbox."""
        self._mailbox_events.labels("request_pushed").inc()
        self._mailbox_depth.set(queue_depth)
        self._mailbox_event_seq += 1
        self._mailbox_pending.append(self._mailbox_event_seq)

    def record_mailbox_fetch(self, drained: int, remaining: int) -> None:
        """The EMS drained ``drained`` requests; ``remaining`` still queued."""
        self._mailbox_events.labels("requests_fetched").inc(drained)
        self._mailbox_depth.set(remaining)
        # Enqueue->drain residency in probe-event ticks, FIFO-matched to
        # the push stream (1 on the clean synchronous path). Drops and
        # cancellations can leave the streams slightly offset; the FIFO
        # is bounded and drains at most what it holds.
        self._mailbox_event_seq += 1
        for _ in range(min(drained, len(self._mailbox_pending))):
            pushed = self._mailbox_pending.popleft()
            self.slo.record(MAILBOX_WAIT_OPERATION,
                            self._mailbox_event_seq - pushed)

    def record_mailbox_response(self) -> None:
        """A response packet was posted."""
        self._mailbox_events.labels("response_pushed").inc()

    def record_mailbox_reject(self, kind: str) -> None:
        """The mailbox refused a packet (capacity, forgery, ...)."""
        self._mailbox_events.labels(f"rejected_{kind}").inc()
        self.flightrec.record("reject", self.clock, reject=kind)

    # -- fault injection / EMCall hardening ---------------------------------------------

    def record_fault(self, point: str, magnitude: int) -> None:
        """One injected fault fired; metrics + an instant trace marker.

        Every fault lands on a dedicated ``faults`` Perfetto track at the
        current timeline cursor, so a chaos run's weather reads alongside
        the primitive flame graph it disturbed.
        """
        self._faults.labels(point).inc()
        self._fault_magnitude.labels(point).observe(magnitude)
        self.flightrec.record("fault", self.clock, point=point,
                              magnitude=magnitude)
        tracer = self.tracer
        if tracer.enabled:
            tracer.add_span(f"fault:{point}", "fault", self.clock, 0,
                            track="faults", point=point, magnitude=magnitude)

    def record_emcall_retry(self, primitive: str, attempt: int,
                            backoff_cycles: int,
                            enclave_id: int | None = None) -> None:
        """EMCall is about to re-send after backing off."""
        self._retries.labels(primitive).inc()
        self._backoff_cycles.observe(backoff_cycles)
        self.attribution.record_retry(enclave_id)
        self.flightrec.record("retry", self.clock,
                              primitive=primitive, attempt=attempt,
                              backoff_cycles=backoff_cycles,
                              enclave_id=enclave_id)

    def record_emcall_timeout(self, primitive: str, attempt: int,
                              enclave_id: int | None = None) -> None:
        """A poll deadline expired with no response collected."""
        self._timeouts.labels(primitive).inc()
        self.attribution.record_timeout(enclave_id)
        self.flightrec.record("timeout", self.clock,
                              primitive=primitive, attempt=attempt,
                              enclave_id=enclave_id)

    def record_emcall_degraded(self, primitive: str, attempts: int,
                               enclave_id: int | None = None) -> None:
        """Retries exhausted; the caller received a DegradedResult.

        A degraded return means the EMS was unreachable for the whole
        retry budget — black-box-worthy weather, so the ring is frozen
        alongside the counters.
        """
        self._degraded.labels(primitive).inc()
        self.flightrec.record("degraded", self.clock,
                              primitive=primitive, attempts=attempts,
                              enclave_id=enclave_id)
        self.flightrec.trip("emcall-degraded",
                            {"primitive": primitive, "attempts": attempts})

    def record_demand_fault(self, enclave_id: int | None) -> None:
        """An in-enclave page fault was routed to the EMS as EALLOC."""
        self.attribution.record_demand_fault(enclave_id)

    def trip_flightrec(self, reason: str, **detail: Any) -> dict[str, Any]:
        """Freeze the flight-recorder ring (EMCallTimeout, invariants)."""
        return self.flightrec.trip(reason, detail or None)

    # -- enclave memory pool -----------------------------------------------------------

    def _pool_occupancy(self, shard: int, free: int, used: int) -> None:
        self._pool_free.labels(shard).set(free)
        self._pool_used.labels(shard).set(used)

    def record_pool_refill(self, shard: int, pages: int, free: int,
                           used: int) -> None:
        """Shard ``shard``'s pool bulk-requested ``pages`` frames."""
        self._pool_refill_pages.observe(pages)
        self._pool_occupancy(shard, free, used)

    def record_pool_take(self, shard: int, pages: int, free: int, used: int,
                         owner: Any = None) -> None:
        """Frames left shard ``shard``'s pool for an enclave."""
        self._pool_occupancy(shard, free, used)
        self.attribution.record_pool_take(pages, owner)

    def record_pool_return(self, shard: int, pages: int, free: int,
                           used: int, owner: Any = None) -> None:
        """Frames came back to shard ``shard``'s pool, zeroed."""
        self._pool_occupancy(shard, free, used)
        self.attribution.record_pool_return(pages, owner)

    def record_os_alloc(self, requestor: str, pages: int) -> None:
        """The CS OS handed out frames (bulk pool refills included)."""
        self.attribution.record_os_alloc(requestor, pages)

    # -- swapping ------------------------------------------------------------------------

    def record_swap_round(self, requested: int, surrendered: int) -> None:
        """One EWB round surrendered ``surrendered`` pool pages."""
        del requested
        self._swap_pages.observe(surrendered)
        self.attribution.record_swap(surrendered)

    # -- TLB / PTW ------------------------------------------------------------------------

    def record_tlb_flush(self, kind: str, dropped: int) -> None:
        """A TLB flush (``full``/``asid``/``frame``) dropped entries."""
        self._tlb_flushes.labels(kind).inc()
        self._tlb_dropped.observe(dropped)

    def record_ptw_walk(self, cycles: int, bitmap_checked: bool) -> None:
        """One hardware page-table walk completed."""
        self._ptw_walks.labels(str(bitmap_checked).lower()).inc()
        self._ptw_cycles.observe(cycles)

    # -- crypto engine -----------------------------------------------------------------------

    def record_crypto_op(self, op: str, nbytes: int, cycles: int) -> None:
        """The crypto engine performed one operation."""
        del nbytes
        self._crypto_ops.labels(op).inc()
        self._crypto_cycles.labels(op).observe(cycles)

    # -- Fig. 6 queueing simulation ---------------------------------------------------------------

    def record_slo_latency(self, config: str, latency_seconds: float) -> None:
        """One Fig. 6 simulated primitive completed."""
        self._slo_latency.labels(config).observe(latency_seconds)

    # -- queries -------------------------------------------------------------------------

    def primitive_latency_table(self) -> list[dict[str, Any]]:
        """Per-primitive p50/p90/p99 over the CS-visible latency.

        Reads the primitives' SLO digests: exact order statistics up to
        512 samples, quarter-octave estimates past that.
        """
        rows = []
        for primitive in self.slo.operations():
            if primitive not in _PRIMITIVES:
                continue
            digest = self.slo.digest(primitive)
            rows.append({
                "primitive": primitive,
                "count": digest.count,
                "p50": digest.percentile(0.50),
                "p90": digest.percentile(0.90),
                "p99": digest.percentile(0.99),
                "mean": digest.mean,
                "max": digest.max,
            })
        rows.sort(key=lambda r: -r["count"])
        return rows
