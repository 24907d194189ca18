"""Preemptive scheduling of hosts and enclaves together."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SIZE
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig
from repro.cs.scheduler import EnclaveTask, HostTask, Scheduler


@pytest.fixture
def tee() -> HyperTEE:
    return HyperTEE()


def counting_enclave_program(total_steps: int, log: list):
    """An enclave program writing a counter to its heap each quantum."""
    state = {"vaddr": None, "step": 0}

    def program(enclave) -> bool:
        if state["vaddr"] is None:
            state["vaddr"] = enclave.ealloc(1)
        state["step"] += 1
        enclave.write(state["vaddr"], state["step"].to_bytes(4, "little"))
        log.append(("enclave", state["step"]))
        return state["step"] >= total_steps

    return program, state


def counting_host_program(tee: HyperTEE, process, total_steps: int, log: list):
    """A host program bumping a counter in its own memory each quantum."""
    vaddr, _ = tee.system.os.malloc(process, PAGE_SIZE)
    state = {"step": 0}

    def program(core) -> bool:
        state["step"] += 1
        core.store(vaddr, state["step"].to_bytes(4, "little"))
        log.append(("host", state["step"]))
        return state["step"] >= total_steps

    return program, vaddr, state


def test_interleaves_enclave_and_host(tee: HyperTEE):
    log: list = []
    enclave = tee.launch_enclave(b"scheduled", EnclaveConfig(name="e"))
    eprog, estate = counting_enclave_program(4, log)
    process = tee.system.os.create_process("app")
    hprog, hvaddr, hstate = counting_host_program(tee, process, 4, log)

    scheduler = Scheduler(tee)
    scheduler.add(EnclaveTask("e", enclave, eprog))
    scheduler.add(HostTask("h", process, hprog))
    scheduler.run()

    assert scheduler.pending == 0
    assert scheduler.stats.completed == 2
    # Genuinely interleaved, not run-to-completion.
    kinds = [kind for kind, _ in log]
    assert kinds[:4] == ["enclave", "host", "enclave", "host"]


def test_enclave_state_survives_preemption(tee: HyperTEE):
    """Heap contents written in slice N are intact in slice N+1, across
    real EEXIT/ERESUME transitions."""
    log: list = []
    enclave = tee.launch_enclave(b"persistent", EnclaveConfig(name="p"))
    prog, state = counting_enclave_program(5, log)
    other = tee.system.os.create_process("noise")
    nprog, _, _ = counting_host_program(tee, other, 5, log)

    scheduler = Scheduler(tee)
    scheduler.add(EnclaveTask("p", enclave, prog))
    scheduler.add(HostTask("noise", other, nprog))
    scheduler.run()

    with enclave.running():
        final = int.from_bytes(enclave.read(state["vaddr"], 4), "little")
    assert final == 5


def test_preemption_goes_through_emcall(tee: HyperTEE):
    """Every enclave preemption is a timer delivered to EMCall — the
    scheduler never touches enclave context directly."""
    log: list = []
    enclave = tee.launch_enclave(b"preempted", EnclaveConfig(name="x"))
    prog, _ = counting_enclave_program(3, log)
    scheduler = Scheduler(tee)
    scheduler.add(EnclaveTask("x", enclave, prog))

    observed_before = tee.system.interrupt_monitor.stats.observed
    scheduler.run()
    # Two preemptions (slices 1 and 2; slice 3 finishes).
    assert scheduler.stats.timer_interrupts == 2
    assert tee.system.interrupt_monitor.stats.observed == observed_before + 2


def test_hosts_cannot_see_enclave_data_between_slices(tee: HyperTEE):
    """After a preemption, the next host slice runs with the host context
    and only ciphertext in DRAM."""
    log: list = []
    enclave = tee.launch_enclave(b"secret-holder", EnclaveConfig(name="s"))
    prog, state = counting_enclave_program(2, log)
    process = tee.system.os.create_process("spy")

    leaks: list = []

    def spy(core) -> bool:
        enclave_id = enclave.enclave_id
        control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
        if state["vaddr"] is not None:
            frame = control.page_table.lookup(state["vaddr"] >> 12)
            if frame is not None:
                raw = tee.system.memory.read_raw(frame.ppn << 12, 4)
                leaks.append(raw)
        return len(leaks) >= 2

    scheduler = Scheduler(tee)
    scheduler.add(EnclaveTask("s", enclave, prog))
    scheduler.add(HostTask("spy", process, spy))
    scheduler.run()

    for raw in leaks:
        # Counter values are 1, 2, ... — the raw view must never show them.
        assert int.from_bytes(raw, "little") not in (1, 2, 3)


def test_normal_quantum_does_not_trip_anomaly_detector(tee: HyperTEE):
    log: list = []
    enclave = tee.launch_enclave(b"long-runner", EnclaveConfig(name="l"))
    prog, _ = counting_enclave_program(30, log)
    scheduler = Scheduler(tee)
    scheduler.add(EnclaveTask("l", enclave, prog))
    scheduler.run()
    assert not tee.system.interrupt_monitor.is_flagged(enclave.enclave_id)


def test_tiny_quantum_storm_is_flagged(tee: HyperTEE):
    """A malicious scheduler shrinking the quantum to single-step the
    enclave trips the detector, which evicts the enclave."""
    log: list = []
    enclave = tee.launch_enclave(b"stepped", EnclaveConfig(name="v"))
    prog, _ = counting_enclave_program(10_000, log)
    scheduler = Scheduler(tee, quantum_cycles=10_000)  # ~250 kHz
    scheduler.add(EnclaveTask("v", enclave, prog))
    with pytest.raises(Exception):
        # The detector suspends the enclave mid-schedule; the facade's
        # next resume/step then fails — the storm cannot continue.
        scheduler.run(max_slices=100)
    assert tee.system.interrupt_monitor.is_flagged(enclave.enclave_id)
