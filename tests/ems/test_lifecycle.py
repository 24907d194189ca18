"""Enclave lifecycle: state machine, static allocation, teardown,
KeyID-slot exhaustion."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SIZE
from repro.common.types import EnclaveState
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard
from repro.errors import EnclaveStateError, SanityCheckError


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


@pytest.fixture
def shard(sys_: HyperTEESystem) -> EMSShard:
    """The platform's one EMS, whose enclave manager is under test."""
    return sys_.shard_pool.shards[0]


def create(shard: EMSShard, **kwargs) -> int:
    result, _, _ = shard.enclaves.ecreate(EnclaveConfig(**kwargs))
    return result["enclave_id"]


def test_ecreate_static_allocation(sys_: HyperTEESystem, shard: EMSShard):
    enclave_id = create(shard, name="e", code_pages=2, stack_pages=3)
    control = shard.enclaves.get(enclave_id)
    assert control.state is EnclaveState.CREATED
    # Stack is mapped at create; table frames + stack frames owned.
    assert len(control.frames) >= 3
    assert control.keyid > 0
    assert sys_.engine.has_key(control.keyid)


def test_eadd_respects_declared_code_pages(shard: EMSShard):
    enclave_id = create(shard, code_pages=1)
    shard.enclaves.eadd(enclave_id, b"code")
    with pytest.raises(SanityCheckError):
        shard.enclaves.eadd(enclave_id, b"more")


def test_eadd_oversized_content(shard: EMSShard):
    enclave_id = create(shard)
    with pytest.raises(SanityCheckError):
        shard.enclaves.eadd(enclave_id, b"x" * (PAGE_SIZE + 1))


def test_eadd_content_encrypted_in_memory(sys_: HyperTEESystem,
                                          shard: EMSShard):
    enclave_id = create(shard)
    shard.enclaves.eadd(enclave_id, b"SECRET-CODE-PAGE")
    control = shard.enclaves.get(enclave_id)
    frame = control.frames[-1]
    raw = sys_.memory.read_raw(frame * PAGE_SIZE, 16)
    assert raw != b"SECRET-CODE-PAGE"


def test_state_machine_happy_path(shard: EMSShard):
    enclave_id = create(shard)
    shard.enclaves.eadd(enclave_id, b"code")
    shard.enclaves.emeas(enclave_id)
    control = shard.enclaves.get(enclave_id)
    assert control.state is EnclaveState.MEASURED
    assert control.measurement is not None
    shard.enclaves.eenter(enclave_id)
    assert control.state is EnclaveState.RUNNING
    shard.enclaves.eexit(enclave_id)
    assert control.state is EnclaveState.SUSPENDED
    shard.enclaves.eresume(enclave_id)
    assert control.state is EnclaveState.RUNNING


def test_measurement_depends_on_content(shard: EMSShard):
    a = create(shard)
    shard.enclaves.eadd(a, b"image-one")
    result_a, _, _ = shard.enclaves.emeas(a)
    b = create(shard)
    shard.enclaves.eadd(b, b"image-two")
    result_b, _, _ = shard.enclaves.emeas(b)
    assert result_a["measurement"] != result_b["measurement"]


def test_eenter_requires_measured(shard: EMSShard):
    enclave_id = create(shard)
    with pytest.raises(EnclaveStateError):
        shard.enclaves.eenter(enclave_id)


def test_eadd_after_measure_rejected(shard: EMSShard):
    enclave_id = create(shard)
    shard.enclaves.eadd(enclave_id, b"code")
    shard.enclaves.emeas(enclave_id)
    with pytest.raises(EnclaveStateError):
        shard.enclaves.eadd(enclave_id, b"late")


def test_eresume_requires_suspended(shard: EMSShard):
    enclave_id = create(shard)
    shard.enclaves.eadd(enclave_id, b"code")
    shard.enclaves.emeas(enclave_id)
    with pytest.raises(EnclaveStateError):
        shard.enclaves.eresume(enclave_id)


def test_destroy_running_rejected(shard: EMSShard):
    enclave_id = create(shard)
    shard.enclaves.eadd(enclave_id, b"code")
    shard.enclaves.emeas(enclave_id)
    shard.enclaves.eenter(enclave_id)
    with pytest.raises(EnclaveStateError):
        shard.enclaves.edestroy(enclave_id)


def test_destroy_reclaims_everything(sys_: HyperTEESystem, shard: EMSShard):
    enclave_id = create(shard)
    shard.enclaves.eadd(enclave_id, b"code")
    control = shard.enclaves.get(enclave_id)
    keyid = control.keyid
    frames = list(control.frames)
    pool_free_before = shard.pool.free_count
    shard.enclaves.edestroy(enclave_id)
    assert control.state is EnclaveState.DESTROYED
    assert not sys_.engine.has_key(keyid)
    assert shard.pool.free_count >= pool_free_before + len(frames)
    # Frames were zeroed on the way back to the pool.
    for frame in frames:
        assert sys_.memory.read_raw(frame * PAGE_SIZE, 64) == bytes(64)
    with pytest.raises(EnclaveStateError):
        shard.enclaves.get(enclave_id)


def test_unknown_enclave_rejected(shard: EMSShard):
    with pytest.raises(SanityCheckError):
        shard.enclaves.get(9999)
    with pytest.raises(SanityCheckError):
        shard.enclaves.get(None)


def test_keyid_exhaustion_suspends_and_recovers(sys_: HyperTEESystem,
                                                shard: EMSShard):
    """Section IV-C: on KeyID exhaustion the EMS suspends an enclave to
    free a slot; the suspended enclave gets its own slot number back on
    resume."""
    sys_.engine.key_slots = sys_.engine.slots_in_use() + 2
    enclaves = shard.enclaves

    first_id = None
    ids = []
    for i in range(3):  # one more than the remaining slots
        result, _, _ = enclaves.ecreate(EnclaveConfig(name=f"e{i}"))
        ids.append(result["enclave_id"])
        if first_id is None:
            first_id = result["enclave_id"]

    first = enclaves.get(first_id)
    assert not sys_.engine.has_key(first.keyid)  # its slot was reclaimed

    # Bring it back: needs a slot again, evicting someone else.
    enclaves.eadd(first_id, b"code")
    enclaves.emeas(first_id)
    enclaves.eenter(first_id)
    assert sys_.engine.has_key(first.keyid)
