"""What the probes record, and for whom.

``enable_observability()`` attaches the probes: the registry, the SLO
digests, attribution and the flight recorder go live, and the cycle
clock advances with every recorded root. Span trees, and the EMS
handler detail they nest, are built only while ``obs.tracer.enabled``
is set, so a serve run (which reads only the SLO report and the
attribution table) keeps neither.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.eval.serve import ServeConfig, run_serve
from repro.obs.cli import run_instrumented_scenario
from tests.faults.chaoslib import chaos_tee, run_lifecycle, transport_chaos_plan


class _RecordingStash(dict):
    """A handler-detail stash that remembers every key ever stored."""

    def __init__(self) -> None:
        super().__init__()
        self.stored: list[int] = []

    def __setitem__(self, key, value) -> None:
        self.stored.append(key)
        super().__setitem__(key, value)


def test_serve_records_no_span_and_stashes_no_handler_detail():
    seen = {}

    def on_step(step: int, tee: HyperTEE) -> None:
        obs = tee.system.obs
        if step == 0:
            seen["obs"], seen["after_step_0"] = obs, dict(obs._pending_ems)
            obs._pending_ems = _RecordingStash()

    report = run_serve(ServeConfig(ops=200), on_step=on_step)
    obs = seen["obs"]
    assert obs.enabled and not obs.tracer.enabled
    assert len(obs.tracer) == 0 and obs.tracer.dropped == 0
    assert seen["after_step_0"] == {}
    assert obs._pending_ems.stored == [] and obs._pending_ems == {}
    # The readers serve has still got what they read.
    assert report["slo"] and obs.attribution.table()


def _mixed_workload(tee: HyperTEE) -> None:
    """Scalar and batched roots on one platform."""
    scalar = tee.launch_enclave(b"clock scalar " * 24,
                                EnclaveConfig(name="cs", heap_pages_max=64))
    batched = tee.launch_enclave_batched(b"clock batched " * 24,
                                         EnclaveConfig(name="cb",
                                                       heap_pages_max=64),
                                         batch_size=4)
    with scalar.running():
        vaddr = scalar.ealloc(2)
        scalar.write(vaddr, b"tick")
        scalar.efree(vaddr)
    with batched.running():
        vaddrs = batched.ealloc_many([1] * 4)
        batched.efree_many(vaddrs)
    scalar.destroy()
    batched.destroy()


def _flight_events(trace: bool) -> list[dict]:
    tee = HyperTEE(SystemConfig(seed=21))
    tee.system.enable_observability()
    tee.system.obs.tracer.enabled = trace
    _mixed_workload(tee)
    dump = tee.system.obs.flightrec.snapshot()
    assert dump["dropped"] == 0
    return dump["events"]


def test_untraced_clock_is_the_sum_of_earlier_roots():
    events = _flight_events(trace=False)
    roots = [e for e in events if e["kind"] in ("invocation", "batch")]
    assert {e["kind"] for e in roots} == {"invocation", "batch"}
    elapsed = 0
    for event in roots:
        assert event["clock"] == elapsed, event
        elapsed += event["cs_cycles"]
    assert elapsed > 0
    # Tracing adds spans, never a different flight-recorder timeline.
    assert _flight_events(trace=True) == events


def test_primitive_latency_table_reads_the_slo_digests():
    tee = run_instrumented_scenario(seed=11)
    _mixed_workload(tee)
    obs = tee.system.obs
    rows = obs.primitive_latency_table()
    assert {row["primitive"] for row in rows} == \
        set(obs.slo.operations()) - {"emcall.batch", "mailbox.wait"}
    for row in rows:
        digest = obs.slo.digest(row["primitive"])
        assert row == {"primitive": row["primitive"],
                       "count": digest.count,
                       "p50": digest.percentile(0.50),
                       "p90": digest.percentile(0.90),
                       "p99": digest.percentile(0.99),
                       "mean": digest.mean, "max": digest.max}
    counts = [row["count"] for row in rows]
    assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("shards", [1, 4])
def test_pool_gauges_report_every_shard(shards):
    tee = HyperTEE(SystemConfig(ems_shards=shards, seed=3))
    tee.system.enable_observability()
    for i in range(6):
        tee.launch_enclave(f"code{i}".encode() * 40,
                           EnclaveConfig(name=f"e{i}", heap_pages_max=64))
    reg = tee.system.obs.metrics
    free = reg.get("hypertee_pool_free_frames")
    used = reg.get("hypertee_pool_used_frames")
    pools = [shard.pool for shard in tee.system.shard_pool.shards]
    assert len(pools) == shards
    for index, pool in enumerate(pools):
        assert free.labels(str(index)).value == pool.free_count
        assert used.labels(str(index)).value == pool.used_count
    assert sum(gauge.value for _, gauge in used.samples()) == \
        sum(pool.used_count for pool in pools) > 0


def test_retried_requests_leave_no_handler_detail():
    tee = chaos_tee(transport_chaos_plan(3))
    assert tee.system.obs.tracer.enabled
    run_lifecycle(tee, enclaves=8)
    assert tee.system.faults.stats.total_fired > 0
    assert tee.system.obs.tracer.find("ems.handler:")
    assert tee.system.obs._pending_ems == {}


def _obs_bytes(snapshot: tracemalloc.Snapshot) -> int:
    obs_only = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/obs/*")])
    return sum(stat.size for stat in obs_only.statistics("filename"))


@pytest.mark.slow
def test_serve_obs_memory_stays_bounded():
    """ROADMAP item 5's bound: obs stops growing once serve is warm."""
    marks = {}

    def on_step(step: int, tee: HyperTEE) -> None:
        if step in (1000, 2999):
            marks[step] = _obs_bytes(tracemalloc.take_snapshot())

    tracemalloc.start()
    try:
        run_serve(ServeConfig(ops=3000), on_step=on_step)
    finally:
        tracemalloc.stop()
    growth = marks[2999] - marks[1000]
    assert growth < 512 * 1024, f"obs grew {growth / 2**20:.2f} MB"
