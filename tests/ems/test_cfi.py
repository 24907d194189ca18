"""CFI monitoring task on the EMS."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SHIFT
from repro.common.types import EnclaveState
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig
from repro.ems.cfi import RECORDS_PER_BUFFER
from repro.errors import SanityCheckError

CFG = {(0x100, 0x200), (0x200, 0x300), (0x300, 0x100)}


@pytest.fixture
def rig():
    tee = HyperTEE()
    enclave = tee.launch_enclave(b"monitored", EnclaveConfig(name="mon"))
    tee.system.cfi.register_policy(enclave.enclave_id, CFG)
    return tee, enclave


def test_benign_trace_passes(rig):
    tee, enclave = rig
    cfi = tee.system.cfi
    for src, dst in [(0x100, 0x200), (0x200, 0x300), (0x300, 0x100)]:
        cfi.record_transfer(enclave.enclave_id, src, dst)
    assert cfi.scan(enclave.enclave_id) == []
    assert not cfi.is_terminated(enclave.enclave_id)


def test_rop_style_edge_terminates(rig):
    """A transfer outside the CFG (ROP gadget chain) kills the enclave."""
    tee, enclave = rig
    cfi = tee.system.cfi
    cfi.record_transfer(enclave.enclave_id, 0x100, 0x200)
    cfi.record_transfer(enclave.enclave_id, 0x200, 0xDEAD)  # not in CFG
    violations = cfi.scan(enclave.enclave_id)
    assert violations == [(0x200, 0xDEAD)]
    assert cfi.is_terminated(enclave.enclave_id)
    enclave_id = enclave.enclave_id
    control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    assert control.state is EnclaveState.DESTROYED


def test_terminated_enclave_records_ignored(rig):
    tee, enclave = rig
    cfi = tee.system.cfi
    cfi.record_transfer(enclave.enclave_id, 0x100, 0xBAD)
    cfi.scan(enclave.enclave_id)
    cfi.record_transfer(enclave.enclave_id, 0x100, 0x200)  # no-op now
    assert cfi.is_terminated(enclave.enclave_id)


def test_running_enclave_terminated_cleanly():
    tee = HyperTEE()
    enclave = tee.launch_enclave(b"monitored", EnclaveConfig(name="mon"))
    tee.system.cfi.register_policy(enclave.enclave_id, CFG)
    enclave.enter()
    tee.system.cfi.record_transfer(enclave.enclave_id, 0x1, 0x2)
    tee.system.cfi.scan(enclave.enclave_id)
    enclave_id = enclave.enclave_id
    control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    assert control.state is EnclaveState.DESTROYED


def test_buffer_wraparound_forces_scan(rig):
    tee, enclave = rig
    cfi = tee.system.cfi
    for _ in range(RECORDS_PER_BUFFER + 5):
        cfi.record_transfer(enclave.enclave_id, 0x100, 0x200)
    assert not cfi.is_terminated(enclave.enclave_id)


def test_buffer_is_ciphertext_to_host(rig):
    """The transfer buffer lives in enclave memory: raw reads are noise."""
    tee, enclave = rig
    cfi = tee.system.cfi
    cfi.record_transfer(enclave.enclave_id, 0x100, 0x200)
    state = cfi._states[enclave.enclave_id]
    raw = tee.system.memory.read_raw(state.buffer_frame << PAGE_SHIFT, 16)
    assert raw != (0x100).to_bytes(8, "little") + (0x200).to_bytes(8, "little")


def test_unregistered_enclave_rejected(rig):
    tee, _ = rig
    with pytest.raises(SanityCheckError):
        tee.system.cfi.scan(999)
