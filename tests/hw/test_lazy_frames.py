"""Lazy zero pages against the eager datapath they stand for.

A page of zeros written under a programmed enclave KeyID stores nothing:
the frame keeps the slot's cipher and MAC key and computes each line's
ciphertext on first access. Any sanitizer keeps the write eager, so the
reference side below is the same memory with a sanitizer that does
nothing attached. Every op must leave the same raw bytes (the attacker's
view), the same plaintext and the same ``IntegrityViolation`` messages
on both sides.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, HOST_KEYID, MAC_BITS, PAGE_SIZE
from repro.crypto.hashes import truncated_mac
from repro.errors import IntegrityViolation
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.memory import PhysicalMemory

FRAMES = 4
SIZE = FRAMES * PAGE_SIZE
ZERO_PAGE = bytes(PAGE_SIZE)
#: Host, two programmed KeyIDs, one never programmed.
KEYIDS = (HOST_KEYID, 1, 2, 9)
LENGTHS = (0, 1, 8, CACHE_LINE_SIZE - 1, CACHE_LINE_SIZE, CACHE_LINE_SIZE + 1,
           256, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + CACHE_LINE_SIZE)


class _NoSanitizer:
    """A sanitizer that checks nothing; attaching it keeps every write eager."""

    def on_raw_write(self, memory, paddr, data):
        pass

    def on_zero_frame(self, frame):
        pass


def _memory(lazy: bool, integrity: bool = True) -> PhysicalMemory:
    memory = PhysicalMemory(SIZE)
    memory.encryption_engine = MemoryEncryptionEngine(integrity_enabled=integrity)
    if not lazy:
        memory.san = _NoSanitizer()
    return memory


def _pair(integrity: bool = True) -> tuple[PhysicalMemory, PhysicalMemory]:
    """(lazy, eager) memories with KeyIDs 1 and 2 programmed alike."""
    pair = _memory(True, integrity), _memory(False, integrity)
    for memory in pair:
        for keyid in (1, 2):
            memory.encryption_engine.program_key(keyid, bytes([keyid]) * 32,
                                                 from_ems=True)
    return pair


def _outcome(call, *args):
    try:
        return call(*args)
    except IntegrityViolation as exc:
        return f"IntegrityViolation: {exc}"


def _differ(what: str) -> None:
    # A plain failure: pytest's diff of two multi-KiB byte strings is
    # slow, and hypothesis fails many examples while it shrinks one.
    pytest.fail(f"lazy and eager memory differ: {what}")


def _line_macs(engine: MemoryEncryptionEngine) -> dict:
    """line -> (keyid, MAC of its slice of the record under the record's key)."""
    return {line: (keyid, truncated_mac(
                mac_key, stored[line - start:line - start + CACHE_LINE_SIZE],
                MAC_BITS))
            for line, (keyid, mac_key, start, stored) in engine._macs.items()}


@pytest.mark.parametrize("integrity", [True, False])
@settings(max_examples=120, deadline=None)
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(("zero", "zero", "write", "write", "load", "load",
                         "raw", "tamper", "scrub", "reprogram", "release")),
        st.integers(min_value=0, max_value=FRAMES - 1),  # frame
        st.integers(min_value=0, max_value=PAGE_SIZE - 1),  # offset
        st.sampled_from(LENGTHS),
        st.sampled_from(KEYIDS),
        st.integers(min_value=0, max_value=255)),  # fill / tamper mask
    min_size=1, max_size=24))
@example(ops=[("zero", 0, 0, 0, 1, 0), ("write", 0, 0, PAGE_SIZE, 9, 5),
              ("load", 0, 100, 8, 1, 0)])
@example(ops=[("zero", 1, 0, 0, 1, 0), ("write", 1, 100, 0, 0, 0),
              ("tamper", 1, 64, 0, 0, 1), ("load", 1, 64, 8, 1, 0)])
@example(ops=[("zero", 2, 0, 0, 1, 0), ("reprogram", 0, 0, 0, 1, 0),
              ("load", 2, 100, 0, 1, 0)])  # an empty load inside a line
def test_lazy_memory_matches_eager_memory_op_by_op(integrity, ops):
    pair = _pair(integrity)
    generation = 0
    for kind, frame, offset, length, keyid, fill in ops:
        paddr = frame * PAGE_SIZE
        if not (kind == "write" and length == PAGE_SIZE):
            paddr += offset  # a whole page is aligned, so the drop rule runs
        length = min(length, SIZE - paddr)
        if kind in ("reprogram", "release") and keyid in (HOST_KEYID, 9):
            continue
        if kind == "reprogram":
            generation += 1
        seen = []
        for memory in pair:
            engine = memory.encryption_engine
            if kind == "zero":
                memory.write_frame(frame, ZERO_PAGE, keyid)
            elif kind == "write":
                memory.write(paddr, bytes([fill]) * length, keyid)
            elif kind == "load":
                seen.append(_outcome(memory.read, paddr, length, keyid))
            elif kind == "raw":
                seen.append(memory.read_raw(paddr, length))
            elif kind == "tamper":
                byte = memory.read_raw(paddr, 1)[0]
                memory.write_raw(paddr, bytes([byte ^ (fill | 1)]))
            elif kind == "scrub":
                memory.zero_frame(frame)
            elif kind == "reprogram":
                engine.program_key(
                    keyid, b"KeyID %d, generation %d" % (keyid, generation),
                    from_ems=True)
            else:
                engine.release_key(keyid, from_ems=True)
        if seen and seen[0] != seen[1]:
            _differ(f"{kind} at {paddr:#x}, {length} bytes, KeyID {keyid}")
    lazy, eager = pair
    if lazy.read_raw(0, SIZE) != eager.read_raw(0, SIZE):
        _differ("raw memory at the end")
    if _line_macs(lazy.encryption_engine) != _line_macs(eager.encryption_engine):
        _differ("line records at the end")


def test_lazy_frame_raw_bytes_equal_the_eager_ciphertext():
    lazy, eager = _pair()
    for memory in (lazy, eager):
        memory.write_frame(2, ZERO_PAGE, keyid=1)
    assert lazy.read_raw(2 * PAGE_SIZE + 70, 8) == eager.read_raw(2 * PAGE_SIZE + 70, 8)
    assert lazy.read_raw(2 * PAGE_SIZE, PAGE_SIZE) == eager.read_raw(2 * PAGE_SIZE, PAGE_SIZE)
    assert lazy.read_raw(2 * PAGE_SIZE, PAGE_SIZE) != ZERO_PAGE
    assert lazy.read_frame(2, keyid=1) == ZERO_PAGE


def test_tampered_lazy_frame_raises_on_the_next_load_under_its_key():
    lazy, eager = _pair()
    verdicts = []
    for memory in (lazy, eager):
        memory.write_frame(1, ZERO_PAGE, keyid=2)
        memory.write_raw(PAGE_SIZE + 130, b"\x5a")
        with pytest.raises(IntegrityViolation) as caught:
            memory.read(PAGE_SIZE + 128, 16, keyid=2)
        verdicts.append(str(caught.value))
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("change", ["reprogram", "release"])
def test_lazy_frame_first_loaded_after_its_slot_changed(change):
    """Re-keyed: the eager IntegrityViolation. Released: the eager garbage."""
    lazy, eager = _pair()
    seen = []
    for memory in (lazy, eager):
        engine = memory.encryption_engine
        memory.write_frame(3, ZERO_PAGE, keyid=1)
        if change == "reprogram":
            engine.program_key(1, b"another key, same slot".ljust(32, b"."),
                               from_ems=True)
        else:
            engine.release_key(1, from_ems=True)
        seen.append(_outcome(memory.read, 3 * PAGE_SIZE + 64, 64, 1))
    assert seen[0] == seen[1]
    if change == "reprogram":
        assert seen[0].startswith("IntegrityViolation: MAC mismatch")
    else:
        assert seen[0] != bytes(64)


def test_whole_page_write_under_an_unprogrammed_keyid_keeps_the_zero_fill_records():
    lazy, eager = _pair()
    seen = []
    for memory in (lazy, eager):
        memory.write_frame(0, ZERO_PAGE, keyid=1)
        memory.write_frame(0, b"\x11" * PAGE_SIZE, keyid=9)
        seen.append(_outcome(memory.read, 0, 64, 1))
    assert seen[0] == seen[1]
    assert seen[0].startswith("IntegrityViolation: MAC mismatch")
