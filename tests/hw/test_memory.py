"""Physical memory: bounds, frames, KeyID routing, raw vs bus views."""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import PAGE_SIZE
from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.errors import PhysicalAddressError
from repro.hw.memory import PhysicalMemory


def test_size_must_be_page_multiple():
    with pytest.raises(ValueError):
        PhysicalMemory(PAGE_SIZE + 1)
    with pytest.raises(ValueError):
        PhysicalMemory(0)


def test_out_of_range_access_faults(plain_memory: PhysicalMemory):
    with pytest.raises(PhysicalAddressError):
        plain_memory.read(plain_memory.size_bytes, 1)
    with pytest.raises(PhysicalAddressError):
        plain_memory.write(plain_memory.size_bytes - 1, b"ab")


def test_plain_roundtrip(plain_memory: PhysicalMemory):
    plain_memory.write(0x1234, b"hello")
    assert plain_memory.read(0x1234, 5) == b"hello"


def test_cross_page_write_and_read(plain_memory: PhysicalMemory):
    data = bytes(range(100)) * 100  # 10 KB, spans 3 frames
    plain_memory.write(PAGE_SIZE - 50, data)
    assert plain_memory.read(PAGE_SIZE - 50, len(data)) == data


def test_untouched_memory_reads_zero(plain_memory: PhysicalMemory):
    assert plain_memory.read(0x4000, 16) == bytes(16)


def test_keyed_write_is_ciphertext_on_dram(memory: PhysicalMemory):
    memory.encryption_engine.program_key(3, b"k" * 32, from_ems=True)
    memory.write(0x3000, b"confidential", keyid=3)
    assert memory.read_raw(0x3000, 12) != b"confidential"
    assert memory.read(0x3000, 12, keyid=3) == b"confidential"


def test_wrong_keyid_reads_garbage(memory: PhysicalMemory):
    memory.encryption_engine.program_key(3, b"k" * 32, from_ems=True)
    memory.encryption_engine.program_key(4, b"q" * 32, from_ems=True)
    memory.write(0x3000, b"confidential", keyid=3)
    assert memory.read(0x3000, 12, keyid=4) != b"confidential"


def test_host_keyid_is_plaintext(memory: PhysicalMemory):
    memory.write(0x5000, b"public data", keyid=0)
    assert memory.read_raw(0x5000, 11) == b"public data"


def test_zero_frame(memory: PhysicalMemory):
    memory.write_raw(2 * PAGE_SIZE, b"\xff" * PAGE_SIZE)
    memory.zero_frame(2)
    assert memory.read_raw(2 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)


def test_storage_is_kept_only_for_computed_lines(memory: PhysicalMemory):
    """Untouched and scrubbed frames keep no storage; a page of zeros under
    an enclave key computes only the lines an access touches."""
    memory.encryption_engine.program_key(5, b"s" * 32, from_ems=True)
    assert memory.read_raw(0, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)
    assert not memory._frames
    memory.write_frame(1, bytes(PAGE_SIZE), keyid=5)
    assert not memory._frames and 1 in memory._lazy
    assert memory.read(PAGE_SIZE + 72, 8, keyid=5) == bytes(8)
    assert memory._lazy[1][1] == 0b10  # the second line only
    assert memory.read_frame(1, keyid=5) == bytes(PAGE_SIZE)
    assert 1 in memory._frames and not memory._lazy
    memory.zero_frame(1)
    assert not memory._frames


def test_digesting_a_fresh_platform_allocates_no_frames():
    memory = HyperTEESystem(SystemConfig()).memory
    tracemalloc.start()
    try:
        digest = hashlib.sha256()
        step = 1 << 20
        for base in range(0, memory.size_bytes, step):
            digest.update(memory.read_raw(base, min(step, memory.size_bytes - base)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024


def test_zero_frame_out_of_range_faults(memory: PhysicalMemory):
    with pytest.raises(PhysicalAddressError):
        memory.zero_frame(memory.num_frames)


def test_write_frame_requires_full_page(memory: PhysicalMemory):
    with pytest.raises(ValueError):
        memory.write_frame(1, b"short")


def test_frame_roundtrip_keyed(memory: PhysicalMemory):
    memory.encryption_engine.program_key(9, b"z" * 32, from_ems=True)
    payload = bytes(range(256)) * 16
    memory.write_frame(3, payload, keyid=9)
    assert memory.read_frame(3, keyid=9) == payload


@given(addr=st.integers(min_value=0, max_value=8 * 1024 * 1024 - 256),
       data=st.binary(min_size=1, max_size=256))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(addr: int, data: bytes):
    mem = PhysicalMemory(8 * 1024 * 1024)
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data
