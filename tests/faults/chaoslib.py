"""Shared machinery for the chaos suite: plans, lifecycles, invariants."""

from __future__ import annotations

import contextlib
import os

from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.cs.emcall import RetryPolicy
from repro.faults import FaultPlan, FaultRule


def chaos_seed_count(default: int = 3) -> int:
    """How many plan seeds to sweep (CI sets CHAOS_SEEDS for depth)."""
    return int(os.environ.get("CHAOS_SEEDS", default))


def transport_chaos_plan(seed: int, drop: float = 0.10,
                         corrupt: float = 0.05,
                         duplicate: float = 0.05) -> FaultPlan:
    """Degraded transport on both mailbox queues."""
    return FaultPlan(seed=seed, rules=(
        FaultRule("mailbox.request.drop", probability=drop),
        FaultRule("mailbox.response.drop", probability=drop),
        FaultRule("mailbox.request.corrupt", probability=corrupt),
        FaultRule("mailbox.response.corrupt", probability=corrupt),
        FaultRule("mailbox.request.duplicate", probability=duplicate),
        FaultRule("mailbox.response.duplicate", probability=duplicate),
    ))


def kitchen_sink_plan(seed: int) -> FaultPlan:
    """Every fault point at once, at survivable rates."""
    return FaultPlan(seed=seed, rules=(
        FaultRule("mailbox.request.drop", probability=0.06),
        FaultRule("mailbox.response.drop", probability=0.06),
        FaultRule("mailbox.request.corrupt", probability=0.04),
        FaultRule("mailbox.response.corrupt", probability=0.04),
        FaultRule("mailbox.request.duplicate", probability=0.04),
        FaultRule("mailbox.response.duplicate", probability=0.04),
        FaultRule("mailbox.queue_full", probability=0.02, magnitude=2),
        FaultRule("ems.handler.exception", probability=0.04),
        FaultRule("ems.handler.stall", probability=0.04, magnitude=60_000),
        FaultRule("ems.core.pause", probability=0.02, magnitude=3),
        FaultRule("fabric.latency", probability=0.05, magnitude=500),
    ))


def chaos_sanitizers() -> tuple[str, ...]:
    """Which teesan sanitizers the chaos suite attaches (opt-out).

    ``CHAOS_SANITIZE=`` (empty) disables them; any other value is a
    comma list. The default runs SECRET+OWN under every chaos plan —
    the sanitizers assert the decoupling invariants *while* the fault
    injector is actively trying to break them.
    """
    from repro.sanitize.manager import parse_sanitizer_list

    return parse_sanitizer_list(os.environ.get("CHAOS_SANITIZE",
                                               "secret,own"))


def chaos_tee(plan: FaultPlan, *, max_attempts: int = 16,
              observability: bool = True, **config) -> HyperTEE:
    """A booted platform with the plan wired in and retries deepened.

    Chaos rates are far above anything a real fabric would see, so the
    gate gets a deeper retry budget than the production default: at a
    ~27% per-attempt loss rate the retry feedback loop (every failed
    attempt creates the next fault opportunity) can walk through a
    cluster of bad draws, and 16 attempts pushes the residual timeout
    probability below 1e-9 per invocation. ``observability`` attaches the
    probes and records spans, so fault markers land on the trace.
    """
    config.setdefault("cs_memory_mb", 96)
    config.setdefault("ems_memory_mb", 4)
    tee = HyperTEE(SystemConfig(**config))
    if observability:
        tee.system.enable_observability()
        tee.system.obs.tracer.enabled = True
    sanitizers = chaos_sanitizers()
    if sanitizers:
        tee.system.enable_sanitizers(sanitizers)
    tee.system.enable_fault_injection(plan)
    tee.system.emcall.retry_policy = RetryPolicy(max_attempts=max_attempts)
    return tee


def run_lifecycle(tee: HyperTEE, enclaves: int = 8,
                  heap_pages: int = 2) -> list[bytes]:
    """The full enclave lifecycle for N concurrently-live enclaves.

    Launch all N (create + add + measure), then for each: enter, alloc,
    write/read its own secret, attest, free, exit — and finally destroy
    all N. Returns each enclave's read-back, which must match what that
    enclave wrote (response binding: no cross-delivery).
    """
    handles = [
        tee.launch_enclave(f"chaos-enclave-{i}".encode() * 8,
                           EnclaveConfig(name=f"chaos{i}",
                                         heap_pages_max=64))
        for i in range(enclaves)
    ]
    readbacks = []
    for i, enclave in enumerate(handles):
        secret = f"secret-of-{i}".encode()
        with enclave.running():
            vaddr = enclave.ealloc(heap_pages)
            enclave.write(vaddr, secret)
            readbacks.append(enclave.read(vaddr, len(secret)))
            quote = enclave.attest(report_data=f"chaos{i}".encode())
            assert quote.enclave.measurement  # attestation still works
            enclave.efree(vaddr)
    for enclave in handles:
        enclave.destroy()
    return readbacks


def run_batched_lifecycle(tee: HyperTEE, enclaves: int = 4,
                          rounds: int = 2, batch: int = 8) -> list[bytes]:
    """The lifecycle of :func:`run_lifecycle`, over the batched fast path.

    Launches via ``launch_enclave_batched`` (bulk EADD envelopes) and
    drives each enclave through ``rounds`` rounds of ``batch``-wide
    ealloc_many / write / read / efree_many, plus an attestation.
    Returns each enclave's final read-back.
    """
    handles = [
        tee.launch_enclave_batched(f"chaos-batch-{i}".encode() * 8,
                                   EnclaveConfig(name=f"chaosb{i}",
                                                 heap_pages_max=4 * batch),
                                   batch_size=batch)
        for i in range(enclaves)
    ]
    readbacks = []
    for i, enclave in enumerate(handles):
        secret = f"batch-secret-of-{i}".encode()
        with enclave.running():
            for _ in range(rounds):
                vaddrs = enclave.ealloc_many([1] * batch)
                enclave.write(vaddrs[0], secret)
                readback = enclave.read(vaddrs[0], len(secret))
                enclave.efree_many(vaddrs)
            quote = enclave.attest(report_data=f"chaosb{i}".encode())
            assert quote.enclave.measurement
        readbacks.append(readback)
    for enclave in handles:
        enclave.destroy()
    return readbacks


@contextlib.contextmanager
def flight_guard(tee: HyperTEE, label: str = "chaos"):
    """Trip the flight recorder's black box if the guarded block dies.

    Wrap a chaos workload (and its invariant checks) in this: on any
    exception the last N structured events — fault fires, retries,
    rejects, timeouts — are frozen into a dump, written to
    ``$REPRO_FLIGHTREC_DIR`` when set (the chaos CI job uploads that
    directory as an artifact on failure), and the exception re-raised.
    """
    try:
        yield tee
    except BaseException as exc:
        obs = getattr(tee.system, "obs", None)
        if obs is not None and obs.enabled:
            obs.trip_flightrec(f"{label}-failure",
                               error=type(exc).__name__,
                               detail=str(exc)[:500])
        raise


@contextlib.contextmanager
def sanitize_guard(tee: HyperTEE, label: str = "chaos"):
    """Fail the guarded block if any runtime sanitizer fired inside it.

    The complement of :func:`flight_guard`: that one preserves evidence
    when the workload *crashes*; this one turns silent invariant
    violations — a secret on the wire, a double-granted frame — into a
    hard failure with the teesan report attached, even though the
    workload itself "passed". A no-op on unsanitized platforms.
    """
    san = getattr(tee.system, "san", None)
    before = len(san.violations) if san is not None else 0
    yield tee
    if san is not None and len(san.violations) > before:
        san.check_clean(label)


def check_invariants(system: HyperTEESystem) -> None:
    """Pool / bitmap / ownership invariants that no fault may break.

    Every shard's pool/ownership/manager triple is checked
    independently, plus the fleet-level invariant that no enclave ID is
    resident on two shards at once.
    """
    from repro.common.types import EnclaveState
    from repro.ems.ownership import Owner

    cells = [(s.pool, s.ownership, s.enclaves)
             for s in system.shard_pool.shards]
    seen: dict[int, int] = {}
    for shard in system.shard_pool.shards:
        for enclave_id in shard.enclaves.enclaves:
            assert enclave_id not in seen, (
                f"enclave {enclave_id} resident on shards "
                f"{seen[enclave_id]} and {shard.index}")
            seen[enclave_id] = shard.index

    san = getattr(system, "san", None)
    if san is not None:
        # The dynamic invariants ride along with the structural ones:
        # any sanitizer finding accumulated so far fails the run here,
        # with the full teesan report and event trail in the message.
        san.check_clean("chaos invariants")

    for pool, ownership, enclaves in cells:
        assert pool.used_count + pool.free_count == pool.capacity, \
            "pool frame conservation violated"
        assert pool.used_count >= 0 and pool.free_count >= 0

        live_ids = {i for i, c in enclaves.enclaves.items()
                    if c.state is not EnclaveState.DESTROYED}
        for enclave_id in live_ids:
            for frame in ownership.frames_owned_by(
                    Owner.enclave(enclave_id)):
                assert system.bitmap.is_enclave(frame), (
                    f"enclave {enclave_id} owns frame {frame} "
                    "outside the bitmap")
