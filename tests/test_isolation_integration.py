"""Cross-cutting isolation integration tests — the paper's core security
claims exercised end to end on a booted platform."""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.types import Permission
from repro.core.api import APIError, HyperTEE
from repro.core.enclave import EnclaveConfig
from repro.errors import BitmapViolation, IsolationViolation


def find_secret_frame(tee: HyperTEE, enclave, vaddr: int) -> int:
    enclave_id = enclave.enclave_id
    control = tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
    return control.page_table.lookup(vaddr >> PAGE_SHIFT).ppn


def test_host_raw_read_sees_ciphertext(tee: HyperTEE):
    """Cold-boot style: enclave data on DRAM is ciphertext."""
    enclave = tee.launch_enclave(b"code")
    with enclave.running():
        vaddr = enclave.ealloc(1)
        enclave.write(vaddr, b"top secret value")
        frame = find_secret_frame(tee, enclave, vaddr)
    raw = tee.system.memory.read_raw(frame << PAGE_SHIFT, 16)
    assert raw != b"top secret value"


def test_host_mapped_read_hits_bitmap(tee: HyperTEE):
    """A hostile OS maps the enclave frame into a host process: the PTW
    bitmap check blocks the access (Fig. 5)."""
    enclave = tee.launch_enclave(b"code")
    with enclave.running():
        vaddr = enclave.ealloc(1)
        enclave.write(vaddr, b"top secret value")
        frame = find_secret_frame(tee, enclave, vaddr)

    process = tee.system.os.create_process("attacker")
    process.table.map(0x500, frame, Permission.RW)
    core = tee.system.primary_core
    core.set_host_context(process.table)
    with pytest.raises(BitmapViolation):
        core.load(0x500 << PAGE_SHIFT, 16)


def test_enclaves_isolated_from_each_other(tee: HyperTEE):
    """Enclave B never observes enclave A's plaintext: distinct KeyIDs
    and page ownership keep frames disjoint."""
    a = tee.launch_enclave(b"code-a", EnclaveConfig(name="a"))
    b = tee.launch_enclave(b"code-b", EnclaveConfig(name="b"))
    with a.running():
        va = a.ealloc(1)
        a.write(va, b"a's secret")
    with b.running():
        vb = b.ealloc(1)
        b.write(vb, b"b's secret")

    ctrl_a = tee.system.enclaves_of(a.enclave_id).enclaves[a.enclave_id]
    ctrl_b = tee.system.enclaves_of(b.enclave_id).enclaves[b.enclave_id]
    assert ctrl_a.keyid != ctrl_b.keyid
    assert not (set(ctrl_a.frames) & set(ctrl_b.frames))
    frame_a = ctrl_a.page_table.lookup(va >> PAGE_SHIFT).ppn
    # Even reading A's frame under B's key yields garbage.
    assert tee.system.memory.read(
        frame_a << PAGE_SHIFT, 10, ctrl_b.keyid) != b"a's secret"


def test_cs_cannot_touch_ems_private_memory(tee: HyperTEE):
    """Unidirectional isolation through the iHub."""
    process = tee.system.os.create_process("prober")
    ems_frame = tee.system.partition.ems_base >> PAGE_SHIFT
    process.table.map(0x600, ems_frame, Permission.RW)
    core = tee.system.primary_core
    core.set_host_context(process.table)
    with pytest.raises(IsolationViolation):
        core.load(0x600 << PAGE_SHIFT, 8)


def test_host_processes_unaffected_by_enclaves(tee: HyperTEE):
    """Normal host execution continues to work alongside enclaves."""
    process = tee.system.os.create_process("app")
    vaddr, _ = tee.system.os.malloc(process, 2 * PAGE_SIZE)
    core = tee.system.primary_core
    core.set_host_context(process.table)
    core.store(vaddr, b"host business as usual")
    assert core.load(vaddr, 22) == b"host business as usual"

    enclave = tee.launch_enclave(b"code")
    with enclave.running():
        enclave.write(enclave.ealloc(1), b"enclave data")

    core.set_host_context(process.table)
    assert core.load(vaddr, 22) == b"host business as usual"


def test_enclave_cannot_reach_host_pages(tee: HyperTEE):
    """The dedicated table contains only enclave mappings: arbitrary
    host addresses fault inside the enclave."""
    process = tee.system.os.create_process("app")
    host_vaddr, _ = tee.system.os.malloc(process, PAGE_SIZE)
    enclave = tee.launch_enclave(b"code")
    with enclave.running():
        from repro.errors import SanityCheckError

        with pytest.raises((APIError, SanityCheckError)):
            enclave.read(host_vaddr, 4)


def test_destroyed_enclave_frames_recycle_cleanly(tee: HyperTEE):
    """Frames freed by EDESTROY are zeroed before any reuse: a host
    process that later receives them via EWB sees only zeros."""
    enclave = tee.launch_enclave(b"code")
    with enclave.running():
        vaddr = enclave.ealloc(2)
        enclave.write(vaddr, b"residual secret")
    enclave.destroy()

    from repro.common.types import Primitive

    result = tee.invoke_os(Primitive.EWB, {"pages": 8})
    for frame in result.result("frames"):
        assert tee.system.memory.read_raw(
            frame << PAGE_SHIFT, PAGE_SIZE) == bytes(PAGE_SIZE)


def test_shared_region_invisible_to_host(tee: HyperTEE):
    a = tee.launch_enclave(b"code-a", EnclaveConfig(name="a"))
    with a.running():
        region = a.create_shared_region(1)
        va = a.attach(region)
        a.write(va, b"shared secret")
    shm = tee.system.shard_pool.shard_of(a.enclave_id).shm
    control = shm.regions[region.shm_id]
    raw = tee.system.memory.read_raw(control.base_paddr, 13)
    assert raw != b"shared secret"
