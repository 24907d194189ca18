"""Varys-style interrupt-frequency anomaly detection."""

from __future__ import annotations

import pytest

from repro.common.constants import CS_CORE_FREQ_HZ
from repro.common.types import EnclaveState
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig


@pytest.fixture
def rig():
    tee = HyperTEE()
    enclave = tee.launch_enclave(b"stepped", EnclaveConfig(name="victim"))
    return tee, enclave


def cycles_at_hz(hz: float, count: int) -> list[int]:
    period = int(CS_CORE_FREQ_HZ / hz)
    return [i * period for i in range(count)]


def test_benign_timer_rate_passes(rig):
    """A 1 kHz OS timer tick never trips the detector."""
    tee, enclave = rig
    monitor = tee.system.interrupt_monitor
    enclave.enter()
    for cycle in cycles_at_hz(1000, 200):
        flagged = monitor.observe(enclave.enclave_id, cycle)
    assert not flagged
    assert not monitor.is_flagged(enclave.enclave_id)


def test_single_stepping_rate_flagged(rig):
    """SGX-Step-style ~100 kHz interrupt storms are flagged and the
    enclave is pulled off the core."""
    tee, enclave = rig
    monitor = tee.system.interrupt_monitor
    enclave.enter()
    flagged = False
    for cycle in cycles_at_hz(100_000, 64):
        flagged = monitor.observe(enclave.enclave_id, cycle) or flagged
    assert flagged
    enclave_id = enclave.enclave_id
    control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    assert control.state is EnclaveState.SUSPENDED


def test_window_slides(rig):
    """Bursts separated by quiet periods are fine if each window is."""
    tee, enclave = rig
    monitor = tee.system.interrupt_monitor
    enclave.enter()
    window = monitor.window_cycles
    flagged = False
    for burst in range(5):
        base = burst * window * 10
        for i in range(monitor.max_per_window - 2):
            flagged = monitor.observe(enclave.enclave_id,
                                      base + i * 100) or flagged
    assert not flagged


def test_clear_resets(rig):
    tee, enclave = rig
    monitor = tee.system.interrupt_monitor
    enclave.enter()
    for cycle in cycles_at_hz(100_000, 64):
        monitor.observe(enclave.enclave_id, cycle)
    assert monitor.is_flagged(enclave.enclave_id)
    monitor.clear(enclave.enclave_id)
    assert not monitor.is_flagged(enclave.enclave_id)


def test_stats(rig):
    tee, enclave = rig
    monitor = tee.system.interrupt_monitor
    enclave.enter()
    for cycle in cycles_at_hz(1000, 10):
        monitor.observe(enclave.enclave_id, cycle)
    assert monitor.stats.observed == 10
