"""Traces and the micro-simulation executor."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SIZE
from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.workloads.executor import TraceExecutor, measure_bitmap_overhead
from repro.workloads.trace import (
    hotspot_trace,
    pointer_chase_trace,
    random_trace,
    sequential_trace,
)

BASE = 0x10000000


def make_system(bitmap: bool = True) -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                                       bitmap_checking=bitmap))


def make_executor(bitmap: bool = True, footprint: int = 64 * PAGE_SIZE):
    executor = TraceExecutor(make_system(bitmap))
    executor.map_region(BASE, footprint)
    return executor


def test_sequential_trace_shape():
    accesses = list(sequential_trace(BASE, 2 * PAGE_SIZE, stride=64))
    assert len(accesses) == 2 * PAGE_SIZE // 64
    assert accesses[0].vaddr == BASE
    assert accesses[-1].vaddr == BASE + 2 * PAGE_SIZE - 64


def test_traces_stay_in_footprint():
    footprint = 8 * PAGE_SIZE
    for trace in (random_trace(BASE, footprint, accesses=200),
                  hotspot_trace(BASE, footprint, accesses=200),
                  pointer_chase_trace(BASE, footprint, accesses=200)):
        for access in trace:
            assert BASE <= access.vaddr < BASE + footprint


def test_executor_counts_accesses():
    executor = make_executor()
    stats = executor.run(sequential_trace(BASE, 4 * PAGE_SIZE))
    assert stats.accesses == 4 * PAGE_SIZE // 64
    assert stats.total_cycles > 0


def test_sequential_has_low_tlb_miss_rate():
    executor = make_executor()
    stats = executor.run(sequential_trace(BASE, 16 * PAGE_SIZE, passes=4))
    # One miss per page on the first pass, hits afterwards.
    assert stats.tlb_miss_rate < 0.005


def test_random_misses_more_than_sequential():
    footprint = 256 * PAGE_SIZE
    seq = make_executor(footprint=footprint).run(
        sequential_trace(BASE, footprint, passes=1))
    rnd = make_executor(footprint=footprint).run(
        random_trace(BASE, footprint, accesses=seq.accesses))
    assert rnd.tlb_miss_rate > 4 * seq.tlb_miss_rate


def test_hotspot_between_extremes():
    footprint = 256 * PAGE_SIZE
    kwargs = dict(accesses=4000)
    seq = make_executor(footprint=footprint).run(
        sequential_trace(BASE, footprint, passes=1))
    hot = make_executor(footprint=footprint).run(
        hotspot_trace(BASE, footprint, **kwargs))
    rnd = make_executor(footprint=footprint).run(
        random_trace(BASE, footprint, **kwargs))
    assert seq.tlb_miss_rate < hot.tlb_miss_rate < rnd.tlb_miss_rate


def test_bitmap_checks_follow_tlb_misses():
    executor = make_executor(footprint=128 * PAGE_SIZE)
    stats = executor.run(random_trace(BASE, 128 * PAGE_SIZE, accesses=2000))
    assert stats.bitmap_checks == stats.tlb_misses


def test_no_bitmap_checks_when_disabled():
    executor = make_executor(bitmap=False, footprint=32 * PAGE_SIZE)
    stats = executor.run(random_trace(BASE, 32 * PAGE_SIZE, accesses=500))
    assert stats.bitmap_checks == 0


def test_measured_overhead_matches_analytic_formula():
    """Cross-validation: the measured bitmap overhead equals the Fig. 10
    formula evaluated at the *measured* TLB miss rate."""
    footprint = 200 * PAGE_SIZE
    factory = lambda: random_trace(BASE, footprint, accesses=3000, seed=5)
    overhead, stats = measure_bitmap_overhead(
        make_system(True), make_system(False), factory, BASE, footprint)

    from repro.eval.calibration import BITMAP_SERIAL_CYCLES

    predicted_extra = stats.tlb_miss_rate * BITMAP_SERIAL_CYCLES
    base_per_access = stats.avg_cycles_per_access - predicted_extra
    predicted = predicted_extra / base_per_access
    assert overhead == pytest.approx(predicted, rel=0.05)
    assert overhead > 0


def test_analytic_formula_holds_across_locality_regimes():
    """Model validation: the Fig. 10 formula at the measured TLB miss
    rate agrees with replayed traces within 8%, from sequential through
    hotspot to random locality."""
    from repro.eval.calibration import BITMAP_SERIAL_CYCLES

    footprint = 200 * PAGE_SIZE
    regimes = {
        "sequential": lambda: sequential_trace(BASE, footprint, passes=1),
        "hotspot": lambda: hotspot_trace(BASE, footprint, accesses=3000,
                                         seed=2),
        "random": lambda: random_trace(BASE, footprint, accesses=3000,
                                       seed=2),
    }
    miss_rates = {}
    for name, factory in regimes.items():
        measured, stats = measure_bitmap_overhead(
            make_system(True), make_system(False), factory, BASE, footprint)
        extra = stats.tlb_miss_rate * BITMAP_SERIAL_CYCLES
        predicted = extra / (stats.avg_cycles_per_access - extra)
        assert measured == pytest.approx(predicted, rel=0.08), name
        miss_rates[name] = stats.tlb_miss_rate
    assert (miss_rates["sequential"] < miss_rates["hotspot"]
            < miss_rates["random"])
