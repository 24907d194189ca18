"""Memory encryption engine: key slots, EMS gating, integrity MACs."""

from __future__ import annotations

import hashlib
import hmac

import pytest

import repro.hw.encryption_engine as engine_module
from repro.common.constants import MAC_BITS, PAGE_SIZE
from repro.crypto.cipher import KeystreamCipher
from repro.crypto.hashes import truncated_mac
from repro.errors import IntegrityViolation, IsolationViolation, KeySlotExhausted
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.memory import PhysicalMemory


def test_only_ems_programs_keys():
    engine = MemoryEncryptionEngine()
    with pytest.raises(IsolationViolation):
        engine.program_key(1, b"k" * 32, from_ems=False)
    with pytest.raises(IsolationViolation):
        engine.release_key(1, from_ems=False)


def test_keyid_zero_reserved():
    engine = MemoryEncryptionEngine()
    with pytest.raises(ValueError):
        engine.program_key(0, b"k" * 32, from_ems=True)


def test_slot_exhaustion():
    engine = MemoryEncryptionEngine(key_slots=2)
    engine.program_key(1, b"a" * 32, from_ems=True)
    engine.program_key(2, b"b" * 32, from_ems=True)
    with pytest.raises(KeySlotExhausted):
        engine.program_key(3, b"c" * 32, from_ems=True)
    engine.release_key(1, from_ems=True)
    engine.program_key(3, b"c" * 32, from_ems=True)  # now fits
    assert engine.slots_in_use() == 2


def test_reprogramming_same_keyid_is_not_a_new_slot():
    """Reprogramming replaces the slot's MAC pads; release drops them."""
    key_a, key_b = b"a" * 32, b"b" * 32
    mem = PhysicalMemory(1024 * 1024)
    engine = mem.encryption_engine = MemoryEncryptionEngine(key_slots=1)
    engine.program_key(1, key_a, from_ems=True)
    mem.write(0x2000, b"A" * 64, keyid=1)
    engine.program_key(1, key_b, from_ems=True)
    assert engine.slots_in_use() == 1

    mem.write(0x2000, b"B" * 64, keyid=1)
    raw = mem.read_raw(0x2000, 64)
    full = hmac.new(key_b, raw, hashlib.sha3_256).digest()
    mac_b = int.from_bytes(full[:8], "little") & ((1 << MAC_BITS) - 1)
    keyid, mac_key, start, stored = engine._macs[0x2000]
    at = 0x2000 - start
    assert keyid == 1
    assert truncated_mac(mac_key, stored[at:at + 64], MAC_BITS) == mac_b
    assert mem.read(0x2000, 64, keyid=1) == b"B" * 64
    mem.write_raw(0x2000, bytes([raw[0] ^ 1]) + raw[1:])
    with pytest.raises(IntegrityViolation):
        mem.read(0x2000, 64, keyid=1)

    engine.release_key(1, from_ems=True)
    assert 1 not in engine._mac_keys
    assert engine.slots_in_use() == 0


def test_physical_tamper_detected(memory: PhysicalMemory):
    """Cold-boot style raw modification trips the MAC on the next read."""
    engine = memory.encryption_engine
    engine.program_key(5, b"k" * 32, from_ems=True)
    memory.write(0x2000, b"A" * 64, keyid=5)
    raw = bytearray(memory.read_raw(0x2000, 64))
    raw[0] ^= 0xFF
    memory.write_raw(0x2000, bytes(raw))
    with pytest.raises(IntegrityViolation):
        memory.read(0x2000, 64, keyid=5)


def test_host_data_not_integrity_checked(memory: PhysicalMemory):
    memory.write(0x2000, b"host data here!!", keyid=0)
    raw = bytearray(memory.read_raw(0x2000, 16))
    raw[3] ^= 0xFF
    memory.write_raw(0x2000, bytes(raw))
    memory.read(0x2000, 16, keyid=0)  # no exception: host path unchecked


def test_host_overwrite_drops_stale_enclave_macs(memory: PhysicalMemory):
    """A frame returned to the host must not trip old MACs for the host."""
    engine = memory.encryption_engine
    engine.program_key(5, b"k" * 32, from_ems=True)
    memory.write(0x3000, b"C" * 64, keyid=5)
    memory.write(0x3000, b"host takes over." * 4, keyid=0)
    assert memory.read(0x3000, 64, keyid=0) == b"host takes over." * 4


def test_zero_frame_drops_macs(memory: PhysicalMemory):
    engine = memory.encryption_engine
    engine.program_key(6, b"k" * 32, from_ems=True)
    memory.write(4 * PAGE_SIZE, b"D" * 64, keyid=6)
    memory.zero_frame(4)
    # Freshly zeroed frame readable under the key without a violation.
    memory.read(4 * PAGE_SIZE, 64, keyid=6)


def test_a_recorded_span_is_one_record_shared_by_its_lines(
        memory: PhysicalMemory):
    """A write records its span's stored bytes once, not once per line."""
    engine = memory.encryption_engine
    engine.program_key(5, b"k" * 32, from_ems=True)
    memory.write(0x3000 + 10, b"s" * 200, keyid=5)  # lines 0x3000..0x30c0
    records = [engine._macs[line] for line in range(0x3000, 0x3100, 64)]
    assert all(record is records[0] for record in records)
    keyid, _, start, stored = records[0]
    assert (keyid, start, stored) == (5, 0x3000, memory.read_raw(0x3000, 256))


def test_unprogrammed_keyid_decrypts_to_garbage(memory: PhysicalMemory):
    memory.write(0x6000, b"plaintext-bytes!", keyid=0)
    out = memory.read(0x6000, 16, keyid=777)  # never programmed
    assert out != b"plaintext-bytes!"


def _rekey(engine: MemoryEncryptionEngine, keyid: int, key: bytes,
           how: str) -> None:
    """Install ``key`` in slot ``keyid``, over the old key or after release."""
    if how == "release":
        engine.release_key(keyid, from_ems=True)
    engine.program_key(keyid, key, from_ems=True)


@pytest.mark.parametrize("how", ["reprogram", "release"])
def test_new_key_does_not_reuse_the_old_keys_page_stream(how):
    """A frame's stream kept under key A is gone once key B is in the slot."""
    key_a, key_b, plain = b"a" * 32, b"b" * 32, bytes(range(256)) * 16
    mem = PhysicalMemory(1024 * 1024)
    engine = mem.encryption_engine = MemoryEncryptionEngine()
    engine.program_key(1, key_a, from_ems=True)
    for _ in range(2):
        mem.write(3 * PAGE_SIZE, plain, keyid=1)
    _rekey(engine, 1, key_b, how)
    mem.write(3 * PAGE_SIZE, plain, keyid=1)
    assert mem.read_raw(3 * PAGE_SIZE, PAGE_SIZE) == \
        KeystreamCipher(key_b).encrypt(plain, 3 * PAGE_SIZE)
    assert mem.read(3 * PAGE_SIZE, PAGE_SIZE, keyid=1) == plain


@pytest.mark.parametrize("how", ["reprogram", "release"])
def test_new_key_does_not_reuse_the_old_keys_line_macs(how):
    """A line recorded under key A fails its MAC when read under key B."""
    mem = PhysicalMemory(1024 * 1024)
    engine = mem.encryption_engine = MemoryEncryptionEngine()
    engine.program_key(1, b"a" * 32, from_ems=True)
    mem.write(0x2000, b"A" * 64, keyid=1)
    _rekey(engine, 1, b"b" * 32, how)
    with pytest.raises(IntegrityViolation,
                       match=r"^MAC mismatch at line 0x2000 \(keyid 1\)$"):
        mem.read(0x2000, 64, keyid=1)


def test_page_stream_is_kept_from_the_second_whole_page_access(monkeypatch):
    """Count the keystream windows and line MACs the engine computes.

    A clean write and read-back compute no MAC: the load's stored bytes
    equal the record's. A tampered line computes the recorded MAC and
    the MAC of the current bytes.
    """
    computed = {"stream": 0, "encrypt": 0, "mac": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            computed[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(KeystreamCipher, "keystream",
                        counting("stream", KeystreamCipher.keystream))
    monkeypatch.setattr(KeystreamCipher, "encrypt",
                        counting("encrypt", KeystreamCipher.encrypt))
    monkeypatch.setattr(engine_module, "truncated_mac",
                        counting("mac", engine_module.truncated_mac))
    mem = PhysicalMemory(1024 * 1024)
    engine = mem.encryption_engine = MemoryEncryptionEngine()
    engine.program_key(1, b"k" * 32, from_ems=True)
    frame = 5 * PAGE_SIZE

    def kept():
        return {number for number, stream in engine._streams[1].items()
                if stream is not None}

    mem.write(frame, b"x" * PAGE_SIZE, keyid=1)      # first: computed, not kept
    assert (computed, kept()) == ({"stream": 1, "encrypt": 0, "mac": 0}, set())
    assert mem.read(frame, PAGE_SIZE, keyid=1) == b"x" * PAGE_SIZE  # second
    assert (computed, kept()) == ({"stream": 2, "encrypt": 0, "mac": 0}, {5})
    mem.write(frame, b"y" * PAGE_SIZE, keyid=1)      # third: sliced
    assert mem.read(frame + 128, 64, keyid=1) == b"y" * 64
    assert computed == {"stream": 2, "encrypt": 0, "mac": 0}

    # A line whose stored bytes changed since the span was recorded
    # computes both MACs, and is rejected.
    raw = mem.read_raw(frame + 128, 64)
    mem.write_raw(frame + 128, bytes([raw[0] ^ 1]) + raw[1:])
    with pytest.raises(IntegrityViolation):
        mem.read(frame + 128, 64, keyid=1)
    assert computed["mac"] == 2

    engine.release_key(1, from_ems=True)
    assert 1 not in engine._streams
