"""The interrupt and CFI monitors act on the shard serving each enclave.

One detector and one CFI task serve the whole platform, and every
shard's gate feeds the detector. On a fleet they must resolve an enclave
through the shard pool, not reach for shard 0's manager.
"""

from __future__ import annotations

import pytest

from repro.common.constants import CS_CORE_FREQ_HZ
from repro.common.types import EnclaveState
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig

CFG = {(0x100, 0x200), (0x200, 0x300)}


@pytest.fixture
def fleet():
    """A 2-shard platform and an enclave that shard 1 serves."""
    tee = HyperTEE(SystemConfig(ems_shards=2))
    pool = tee.system.shard_pool
    for index in range(8):
        enclave = tee.launch_enclave(b"on a sibling shard",
                                     EnclaveConfig(name=f"e{index}"))
        if pool.resolve(enclave.enclave_id) == 1:
            manager = pool.shard_of(enclave.enclave_id).enclaves
            assert manager is not tee.system.enclaves
            return tee, enclave, manager
    pytest.fail("no enclave landed on shard 1")


def test_interrupt_storm_suspends_an_enclave_on_shard_one(fleet):
    tee, enclave, manager = fleet
    enclave.enter()
    period = int(CS_CORE_FREQ_HZ / 100_000)
    route = "ems"
    for i in range(64):
        if not enclave.core.in_enclave:
            break
        route = tee.system.emcall.handle_interrupt(
            enclave.core, "page-fault", cycle=i * period)
    assert tee.system.interrupt_monitor.is_flagged(enclave.enclave_id)
    assert manager.enclaves[enclave.enclave_id].state is EnclaveState.SUSPENDED
    assert not enclave.core.in_enclave
    assert route == "cs"


def test_cfi_monitors_an_enclave_on_shard_one(fleet):
    tee, enclave, manager = fleet
    cfi = tee.system.cfi
    cfi.register_policy(enclave.enclave_id, CFG)
    cfi.record_transfer(enclave.enclave_id, 0x100, 0x200)
    assert cfi.scan(enclave.enclave_id) == []
    cfi.record_transfer(enclave.enclave_id, 0x200, 0xDEAD)
    assert cfi.scan(enclave.enclave_id) == [(0x200, 0xDEAD)]
    assert cfi.is_terminated(enclave.enclave_id)
    assert manager.enclaves[enclave.enclave_id].state is EnclaveState.DESTROYED
