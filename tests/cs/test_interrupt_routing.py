"""EMCall interrupt routing (paper Section III-B exception handling)."""

from __future__ import annotations

import pytest

from repro.common.constants import CS_CORE_FREQ_HZ
from repro.common.types import EnclaveState
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig


@pytest.fixture
def rig():
    tee = HyperTEE()
    enclave = tee.launch_enclave(b"interruptible",
                                 EnclaveConfig(name="victim"))
    return tee, enclave


def test_host_interrupts_go_to_os(rig):
    tee, _ = rig
    route = tee.system.emcall.handle_interrupt(
        tee.system.primary_core, "timer")
    assert route == "cs"


def test_page_faults_route_to_ems(rig):
    tee, enclave = rig
    enclave.enter()
    route = tee.system.emcall.handle_interrupt(enclave.core, "page-fault")
    assert route == "ems"
    # The enclave keeps running — the fault is serviced, not delivered
    # to the untrusted OS.
    enclave_id = enclave.enclave_id
    control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    assert control.state is EnclaveState.RUNNING


def test_timer_suspends_enclave_then_routes_to_os(rig):
    tee, enclave = rig
    enclave.enter()
    route = tee.system.emcall.handle_interrupt(enclave.core, "timer")
    assert route == "cs"
    enclave_id = enclave.enclave_id
    control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    assert control.state is EnclaveState.SUSPENDED
    assert not enclave.core.in_enclave  # host context restored atomically


def test_resume_after_timer(rig):
    tee, enclave = rig
    enclave.enter()
    vaddr = enclave.ealloc(1)
    enclave.write(vaddr, b"across interrupts")
    tee.system.emcall.handle_interrupt(enclave.core, "timer")
    enclave.resume()
    assert enclave.read(vaddr, 17) == b"across interrupts"
    enclave.exit()


def test_interrupt_storm_flags_and_evicts(rig):
    """Single-stepping storms trip the anomaly detector through the
    EMCall path, pulling the enclave off the core."""
    tee, enclave = rig
    enclave.enter()
    period = int(CS_CORE_FREQ_HZ / 200_000)  # ~200 kHz
    route = "ems"
    for i in range(64):
        if not enclave.core.in_enclave:
            break
        route = tee.system.emcall.handle_interrupt(
            enclave.core, "page-fault", cycle=i * period)
    assert tee.system.interrupt_monitor.is_flagged(enclave.enclave_id)
    assert not enclave.core.in_enclave
    assert route == "cs"


def test_benign_interrupt_rate_not_flagged(rig):
    tee, enclave = rig
    enclave.enter()
    period = int(CS_CORE_FREQ_HZ / 100)  # 100 Hz timer
    for i in range(1, 20):
        tee.system.emcall.handle_interrupt(enclave.core, "timer",
                                           cycle=i * period)
        if i < 19:
            enclave.resume()
    assert not tee.system.interrupt_monitor.is_flagged(enclave.enclave_id)
