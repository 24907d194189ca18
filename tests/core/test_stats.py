"""Platform statistics: per-core EMS accounting and the summary view."""

from __future__ import annotations

import pytest

from repro.common.packets import PrimitiveRequest
from repro.common.types import Primitive, Privilege
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem


def test_per_core_accounting_spreads_work():
    sys_ = HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                       ems_cores=2))
    ems = sys_.shard_pool.shards[0]
    for i in range(8):
        ems.mailbox.push_request(PrimitiveRequest(
            500 + i, Primitive.ECREATE, None, Privilege.SUPERVISOR,
            {"config": EnclaveConfig(name=f"e{i}")}))
    ems.runtime.pump()
    cycles = ems.runtime.stats.per_core_cycles
    assert len(cycles) == 2
    assert all(c > 0 for c in cycles)
    utilization = ems.runtime.stats.utilization()
    assert sum(utilization) == pytest.approx(1.0)
    # Round-robin keeps the split roughly balanced.
    assert 0.3 < utilization[0] < 0.7


def test_utilization_of_idle_runtime():
    sys_ = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                       ems_cores=2))
    runtime = sys_.shard_pool.shards[0].runtime
    assert runtime.stats.utilization() == [0.0, 0.0]


def test_stats_summary_structure():
    tee = HyperTEE(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                cs_cores=2))
    enclave = tee.launch_enclave(b"code")
    with enclave.running():
        enclave.write(enclave.ealloc(1), b"x")

    summary = tee.system.stats_summary()
    assert set(summary) == {"ems", "mailbox", "fabric", "pool", "emcall",
                            "tlb", "interrupts", "faults"}
    assert summary["ems"]["served"] >= 6           # lifecycle + alloc
    assert summary["mailbox"]["requests_sent"] >= 6
    assert summary["pool"]["takes"] > 0
    assert "core0" in summary["tlb"] and "core1" in summary["tlb"]


def _exercised_tee() -> HyperTEE:
    tee = HyperTEE(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                cs_cores=2))
    enclave = tee.launch_enclave(b"stats coverage")
    with enclave.running():
        vaddr = enclave.ealloc(2)
        enclave.write(vaddr, b"x")
        enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 1})
    enclave.destroy()
    return tee


def _numeric_leaves(tree: dict) -> list[tuple[str, float]]:
    out = []
    for key, value in tree.items():
        if isinstance(value, dict):
            out.extend((f"{key}.{inner}", v)
                       for inner, v in _numeric_leaves(value))
        elif isinstance(value, (int, float)):
            out.append((key, value))
    return out


def test_stats_summary_counters_non_negative():
    summary = _exercised_tee().system.stats_summary()
    leaves = _numeric_leaves(summary)
    assert leaves
    for name, value in leaves:
        assert value >= 0, name


def test_stats_summary_matches_legacy_dataclasses():
    """The registry federates the live *Stats; it must not fork them."""
    tee = _exercised_tee()
    sys_ = tee.system
    ems = sys_.shard_pool.shards[0]
    summary = sys_.stats_summary()
    assert summary["mailbox"]["requests_sent"] == ems.mailbox.stats.requests_sent
    assert summary["mailbox"]["response_rejects"] == \
        ems.mailbox.stats.response_rejects
    assert summary["ems"]["served"] == ems.runtime.stats.served
    assert summary["pool"]["takes"] == ems.pool.stats.takes
    assert summary["emcall"]["bitmap_flushes"] == \
        sys_.emcall.bitmap_flush_count
    # A later snapshot reflects new traffic without re-registration.
    before = summary["mailbox"]["requests_sent"]
    enclave = tee.launch_enclave(b"second wave")
    enclave.destroy()
    assert sys_.stats_summary()["mailbox"]["requests_sent"] > before


def test_stats_summary_sources_match_schema():
    sys_ = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))
    assert set(sys_.obs.metrics.source_names()) == set(sys_.stats_summary())
