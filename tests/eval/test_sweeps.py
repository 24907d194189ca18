"""Sensitivity-sweep machinery."""

from __future__ import annotations

import repro.cs.emcall as emcall_module
import repro.eval.slo as slo_module
from repro.eval.sweeps import jitter_sweep, pool_exposure_sweep, slo_load_sweep


def test_pool_sweep_shape():
    points = pool_exposure_sweep(demand_pages=512,
                                 initial_sizes=(64, 512))
    assert [p.initial_pages for p in points] == [64, 512]
    assert all(p.refill_events >= 1 for p in points)
    assert points[0].refill_events >= points[1].refill_events


def test_slo_sweep_restores_think_time():
    original = slo_module.SLO_THINK_TIME_SECONDS
    points = slo_load_sweep(cs_cores=16, think_times=(20e-3, 5e-3))
    assert slo_module.SLO_THINK_TIME_SECONDS == original
    assert points[0].p99_factor <= points[1].p99_factor


def test_jitter_sweep_restores_window():
    original = emcall_module.EMCALL_POLL_JITTER_CYCLES
    points = jitter_sweep(windows=(0, 100), samples=8)
    assert emcall_module.EMCALL_POLL_JITTER_CYCLES == original
    assert points[0].latency_spread == 0
    assert points[1].latency_spread > 0


def test_bigger_pools_expose_fewer_refills():
    """2048 pages of demand: refills are bulk and demand-decoupled. Even
    the largest pool refills proactively (the randomized threshold), and
    the smallest stays far below the 256 per-demand events an SGX-style
    design would expose."""
    points = pool_exposure_sweep()
    refills = [p.refill_events for p in points]
    assert refills == sorted(refills, reverse=True)
    by_size = {p.initial_pages: p.refill_events for p in points}
    assert by_size[2048] <= 4
    assert by_size[64] < 40


def test_slo_load_sweep_finds_the_knee():
    """p99 rises with offered load; the paper's 10 ms operating point
    meets the SLO and 4x its load does not."""
    points = slo_load_sweep()
    factors = [p.p99_factor for p in points]
    assert factors == sorted(factors)
    assert next(p for p in points if p.think_time_seconds == 10e-3).slo_met
    assert not points[-1].slo_met


def test_jitter_window_sets_the_noise_floor():
    """No window gives deterministic latency; the spread grows with it."""
    points = jitter_sweep()
    spreads = {p.window_cycles: p.latency_spread for p in points}
    assert spreads[0] == 0
    assert list(spreads.values()) == sorted(spreads.values())
    assert spreads[800] > spreads[50]
