"""The serve load driver: sustained multi-enclave traffic with SLOs.

Every other evaluation entry point runs one scripted scenario; ``serve``
models what the platform looks like *in service* — a fleet of worker
HostApps launching, entering, exercising, attesting, migrating, and
destroying enclaves in a long deterministic loop, with the
:mod:`repro.obs` SLO engine and per-enclave attribution watching. Its
report answers the operations questions the scripted scenarios cannot:
are the latency SLOs met under sustained mixed traffic, which shard
served what, and does the gate degrade (rather than wedge) when the
mailbox backpressures?

The driver is fully deterministic: the op mix is drawn from a
:class:`~repro.common.rng.DeterministicRng` stream seeded by the config,
and the platform itself is seeded the same way, so one
``(seed, shards, workers, ops)`` tuple always produces the same
report document (pinned by tests/eval/test_serve.py).

Chaos mode ``queuefull`` pins the request queue full for the whole run
(probability 1.0, effectively unbounded burst) with a degrading retry
policy — the canonical *starvation* scenario. The report's
``starvation`` section records whether the run made forward progress;
``python -m repro serve --chaos queuefull`` exiting nonzero is the CI
self-check that the starvation detector actually detects.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.common.rng import DeterministicRng
from repro.common.types import Permission, Primitive
from repro.core.api import APIError, HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.cs.emcall import RetryPolicy
from repro.errors import ShardError, TransferInterrupted
from repro.eval.report import render_table
from repro.faults.plan import FaultPlan, FaultRule

#: Report document version; bump on any schema change.
SCHEMA = "hypertee.serve/1"

#: Chaos modes the driver knows how to stage.
CHAOS_MODES = ("none", "queuefull")

#: Worker phase cycle; each serve step advances one worker one phase.
_PHASES = ("launch", "enter", "memory", "batch", "attest", "exit",
           "transfer", "destroy")


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """One serve run, fully specified (the report embeds this verbatim)."""

    #: EMS shards backing the platform (1 = the classic single EMS).
    shards: int = 4
    #: Concurrent worker HostApps cycling through enclave lifecycles.
    workers: int = 3
    #: Total serve steps (each advances one worker one lifecycle phase).
    ops: int = 400
    #: Seed for both the platform and the op-mix stream.
    seed: int = 0x5E12
    #: Every Nth enclave generation migrates shards before destroy
    #: (ignored at shards=1).
    transfer_every: int = 3
    #: OS-driven EWB pressure every N steps (0 disables).
    ewb_every: int = 50
    #: Adversarial weather: one of :data:`CHAOS_MODES`.
    chaos: str = "none"
    #: Runtime sanitizers (teesan) to attach; empty tuple = off, which
    #: keeps the run bit-identical to the pre-sanitizer driver.
    sanitize: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.transfer_every < 1:
            raise ValueError(
                f"transfer_every must be >= 1, got {self.transfer_every}")
        if self.ewb_every < 0:
            raise ValueError(
                f"ewb_every must be >= 0, got {self.ewb_every}")
        if self.chaos not in CHAOS_MODES:
            raise ValueError(
                f"chaos must be one of {CHAOS_MODES}, got {self.chaos!r}")
        from repro.sanitize.manager import SANITIZERS

        for name in self.sanitize:
            if name not in SANITIZERS:
                raise ValueError(
                    f"sanitize must name only {SANITIZERS}, got {name!r}")


class _Worker:
    """One HostApp's lifecycle state machine (driver-internal)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.enclave = None
        self.phase = 0
        self.generation = 0
        self.vaddrs: list[int] = []

    def reset(self) -> None:
        """Abandon the current enclave (after a degraded primitive)."""
        self.enclave = None
        self.phase = 0
        self.vaddrs = []


def _build_platform(cfg: ServeConfig) -> HyperTEE:
    # One CS core per worker: each worker holds its own enclave context
    # (entered enclaves pin the core's privilege/context registers, so
    # two workers sharing a core would nest their EENTERs).
    tee = HyperTEE(SystemConfig(seed=cfg.seed, ems_shards=cfg.shards,
                                cs_cores=cfg.workers))
    tee.system.enable_observability()
    if cfg.sanitize:
        tee.system.enable_sanitizers(cfg.sanitize)
    if cfg.chaos == "queuefull":
        tee.system.enable_fault_injection(FaultPlan.build(
            [FaultRule(point="mailbox.queue_full", probability=1.0,
                       magnitude=1_000_000)],
            seed=cfg.seed))
        # Degrade instead of raising: the serve loop observes structured
        # DegradedResults (surfaced as APIError) and keeps driving.
        tee.system.emcall.retry_policy = RetryPolicy(degrade=True)
    return tee


def _step_worker(tee: HyperTEE, worker: _Worker, rng: DeterministicRng,
                 cfg: ServeConfig, totals: dict[str, int]) -> None:
    """Advance one worker one phase; raises APIError when degraded."""
    phase = _PHASES[worker.phase]
    stream = f"serve-w{worker.index}"
    if phase == "launch":
        code = rng.randbytes(rng.randint(600, 9000, stream), stream)
        worker.enclave = tee.launch_enclave_batched(
            code, EnclaveConfig(name=f"serve-w{worker.index}",
                                heap_pages_max=64),
            core=tee.system.cores[worker.index])
    elif phase == "enter":
        worker.enclave.enter()
    elif phase == "memory":
        enc = worker.enclave
        vaddr = enc.ealloc(rng.randint(1, 4, stream))
        payload = rng.randbytes(rng.randint(8, 64, stream), stream)
        enc.write(vaddr, payload)
        if enc.read(vaddr, len(payload)) != payload:
            raise APIError("serve readback mismatch")  # pragma: no cover
        worker.vaddrs.append(vaddr)
    elif phase == "batch":
        enc = worker.enclave
        counts = [rng.randint(1, 3, stream)
                  for _ in range(rng.randint(2, 4, stream))]
        enc.efree_many(enc.ealloc_many(counts, Permission.RW))
        for vaddr in worker.vaddrs:
            enc.efree(vaddr)
        worker.vaddrs = []
    elif phase == "attest":
        worker.enclave.attest(report_data=rng.randbytes(16, stream))
    elif phase == "exit":
        worker.enclave.exit()
    elif phase == "transfer":
        pool = tee.system.shard_pool
        if pool.num_shards > 1 and \
                worker.generation % cfg.transfer_every == 0:
            eid = worker.enclave.enclave_id
            dst = (pool.resolve(eid) + 1) % pool.num_shards
            try:
                pool.transfer_enclave(eid, dst)
                totals["transfers"] += 1
            except TransferInterrupted:
                totals["transfers_interrupted"] += 1
            except ShardError:
                pass  # already home after an earlier migration chain
    elif phase == "destroy":
        worker.enclave.destroy()
        worker.enclave = None
        worker.generation += 1
    worker.phase = (worker.phase + 1) % len(_PHASES)


def run_serve(cfg: ServeConfig,
              on_step: Callable[[int, HyperTEE], None] | None = None,
              ) -> dict[str, Any]:
    """Drive the load loop; returns the serve report document.

    ``on_step`` (tests/soak hook) runs after every serve step with the
    step index and the live facade — per-step invariants go there.
    """
    tee = _build_platform(cfg)
    rng = DeterministicRng(cfg.seed)
    workers = [_Worker(i) for i in range(cfg.workers)]
    totals = {"steps": 0, "completed": 0, "degraded": 0,
              "transfers": 0, "transfers_interrupted": 0}

    for step in range(cfg.ops):
        worker = workers[rng.randint(0, cfg.workers - 1, "serve-mix")]
        totals["steps"] += 1
        try:
            _step_worker(tee, worker, rng, cfg, totals)
            totals["completed"] += 1
        except APIError:
            # Degraded transport (or a failed primitive under weather):
            # the worker abandons its enclave and starts a fresh
            # lifecycle; the platform itself must stay serviceable.
            totals["degraded"] += 1
            worker.reset()
        if cfg.ewb_every and (step + 1) % cfg.ewb_every == 0:
            try:
                tee.invoke_os(Primitive.EWB, {"pages": 1})
            except APIError:
                totals["degraded"] += 1
        if on_step is not None:
            on_step(step, tee)

    # Starvation: the run degraded and never completed a single phase —
    # the platform made zero forward progress under backpressure.
    starved = totals["degraded"] > 0 and totals["completed"] == 0
    report: dict[str, Any] = {
        "schema": SCHEMA,
        # The platform has one execution engine; the document still
        # names it, so its schema (and every pinned digest) is unchanged.
        "config": {**dataclasses.asdict(cfg), "engine": "reference"},
        "totals": {
            **totals,
            "requests_served": tee.system.ems_requests_served(),
            "primitive_cycles": tee.primitive_cycles,
        },
        "slo": tee.system.obs.slo.report(),
        "attribution": tee.system.obs.attribution.table(),
        "shards": tee.system.shard_pool.stats_summary(),
        "starvation": {
            "starved": starved,
            "degraded_ops": totals["degraded"],
            "completed_ops": totals["completed"],
        },
    }
    if cfg.sanitize:
        # Present only on sanitized runs: the default document (and the
        # report pinned by the determinism tests) is unchanged.
        report["sanitize"] = tee.system.san.to_dict()
    return report


def render_report(report: dict[str, Any]) -> str:
    """Human-readable serve report (tables over the JSON document)."""
    cfg = report["config"]
    totals = report["totals"]
    lines = [
        f"serve: {totals['steps']} steps, {totals['completed']} completed, "
        f"{totals['degraded']} degraded | "
        f"shards={cfg['shards']} workers={cfg['workers']} "
        f"seed={cfg['seed']:#x}",
        f"EMS requests served: {totals['requests_served']}, transfers: "
        f"{totals['transfers']} committed / "
        f"{totals['transfers_interrupted']} interrupted",
        "",
    ]

    def fmt(value, spec=".0f"):
        return "-" if value is None else format(value, spec)

    slo_rows = [[r["operation"], r["count"],
                 fmt(r["p50"]), fmt(r["p95"]), fmt(r["p99"]),
                 "-" if r["threshold"] is None
                 else f"{r['percentile']}<={r['threshold']:.0f}",
                 {True: "yes", False: "NO", None: "-"}[r["compliant"]]]
                for r in report["slo"]]
    lines.append(render_table(
        "SLO report under serve load",
        ["operation", "count", "p50", "p95", "p99", "target", "ok"],
        slo_rows))
    lines.append("")

    shard_rows = [[s["shard"], s["served"], s["failed"], s["enclaves"],
                   s["pool_used"], s["transfers_in"], s["transfers_out"]]
                  for s in report["shards"]["per_shard"]]
    lines.append(render_table(
        f"Per-shard attribution ({report['shards']['num_shards']} shards)",
        ["shard", "served", "failed", "enclaves", "pool used",
         "xfer in", "xfer out"],
        shard_rows))
    lines.append("")

    attr_rows = [[r["enclave"], r["invocations"], r["cs_cycles"],
                  r["ems_cycles"], r["retries"], r["demand_faults"]]
                 for r in report["attribution"][:10]]
    lines.append(render_table(
        "Per-enclave attribution (top 10 by CS cycles)",
        ["enclave", "invocations", "cs cycles", "ems cycles", "retries",
         "faults"],
        attr_rows))

    sanitize = report.get("sanitize")
    if sanitize is not None:
        lines.append("")
        lines.append(
            f"teesan: sanitizers={','.join(sanitize['sanitizers'])} "
            f"events={sanitize['stats']['events']} "
            f"violations={len(sanitize['violations'])} "
            f"{'CLEAN' if sanitize['ok'] else 'VIOLATIONS'}")

    starvation = report["starvation"]
    if starvation["starved"]:
        lines.append("")
        lines.append(
            f"STARVATION: {starvation['degraded_ops']} ops degraded, "
            f"{starvation['completed_ops']} completed — the platform made "
            "no forward progress")
    return "\n".join(lines)
