"""The memory datapath against a per-line, per-byte oracle (hypothesis).

:class:`MemoryEncryptionEngine` reads the line-aligned span of an access
once and slices it into lines, and :meth:`KeystreamCipher.encrypt` XORs
a whole span as one big integer. The oracle below is the plain form of
both: one raw read and one MAC per 64-byte line, one XOR per byte. Any
op stream — zero-length, unaligned and multi-page spans, host and
unknown KeyIDs, MAC drops, tampered raw bytes — must leave the same raw
DRAM bytes, the same plaintext, the same line MACs and the same
``IntegrityViolation`` messages on both. The engine records a span's
stored bytes rather than its MACs, so :func:`_line_macs` computes each
line's MAC from its record.
"""

from __future__ import annotations

import hashlib
import hmac

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, HOST_KEYID, MAC_BITS, PAGE_SIZE
from repro.crypto.cipher import KeystreamCipher
from repro.crypto.hashes import truncated_mac
from repro.errors import IntegrityViolation
from repro.hw.encryption_engine import MemoryEncryptionEngine

SIZE = 4 * PAGE_SIZE
LENGTHS = (0, 1, 7, 8, CACHE_LINE_SIZE - 1, CACHE_LINE_SIZE,
           CACHE_LINE_SIZE + 1, 256, PAGE_SIZE - 1, PAGE_SIZE,
           PAGE_SIZE + CACHE_LINE_SIZE, 2 * PAGE_SIZE)


def _oracle_lines(paddr: int, length: int):
    line = paddr - paddr % CACHE_LINE_SIZE
    while line < paddr + length:
        yield line
        line += CACHE_LINE_SIZE


class _PerLineOracle(MemoryEncryptionEngine):
    """One raw read and one MAC per line; a per-byte XOR.

    The line MAC is the stdlib's HMAC-SHA3-256 under the raw key bytes,
    truncated here, so a wrong MAC in ``repro.crypto.hashes`` shows as a
    differing MAC table rather than agreeing with itself.
    """

    def __init__(self):
        super().__init__()
        self._raw_keys: dict[int, bytes] = {}

    def program_key(self, keyid, key, *, from_ems):
        super().program_key(keyid, key, from_ems=from_ems)
        self._raw_keys[keyid] = key

    def encrypt_access(self, paddr, data, keyid):
        if keyid == HOST_KEYID:
            return data
        stream = self._cipher_for(keyid).keystream(paddr, len(data))
        return bytes(p ^ s for p, s in zip(data, stream))

    decrypt_access = encrypt_access

    def _line_mac(self, keyid, line, read_raw):
        full = hmac.new(self._raw_keys[keyid], read_raw(line, CACHE_LINE_SIZE),
                        hashlib.sha3_256).digest()
        return int.from_bytes(full[:8], "little") & ((1 << MAC_BITS) - 1)

    def record_macs(self, paddr, length, keyid, read_raw):
        for line in _oracle_lines(paddr, length):
            if keyid == HOST_KEYID:
                self._macs.pop(line, None)
            elif keyid in self._raw_keys:
                self._macs[line] = (keyid, self._line_mac(keyid, line, read_raw))

    def verify_macs(self, paddr, length, keyid, read_raw):
        for line in _oracle_lines(paddr, length):
            recorded = self._macs.get(line)
            if (recorded is not None and recorded[0] == keyid
                    and self._line_mac(keyid, line, read_raw) != recorded[1]):
                raise IntegrityViolation(
                    f"MAC mismatch at line {line:#x} (keyid {keyid})")


def _line_macs(engine):
    """line -> (keyid, MAC of its slice of the record under the record's key)."""
    return {line: (keyid, truncated_mac(
                mac_key, stored[line - start:line - start + CACHE_LINE_SIZE],
                MAC_BITS))
            for line, (keyid, mac_key, start, stored) in engine._macs.items()}


def _verdict(engine, paddr, length, keyid, read_raw):
    try:
        engine.verify_macs(paddr, length, keyid, read_raw)
    except IntegrityViolation as exc:
        return str(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(("write", "read", "drop", "tamper")),
        st.integers(min_value=0, max_value=SIZE - 1),  # paddr
        st.sampled_from(LENGTHS),
        st.sampled_from((0, 1, 2, 9)),  # keyid: host, programmed x2, unknown
        st.integers(min_value=0, max_value=255)),  # fill / tamper mask
    min_size=1, max_size=24))
@example(ops=[("write", 100, PAGE_SIZE, 1, 7), ("tamper", 200, 0, 0, 3),
              ("read", 64, 256, 1, 0)])
def test_engine_matches_per_line_oracle_on_arbitrary_spans(ops):
    engines = (MemoryEncryptionEngine(), _PerLineOracle())
    stores = (bytearray(SIZE), bytearray(SIZE))
    readers = [lambda addr, n, store=store: bytes(store[addr:addr + n])
               for store in stores]
    for engine in engines:
        for keyid in (1, 2):
            engine.program_key(keyid, bytes([keyid]) * 32, from_ems=True)

    for kind, paddr, length, keyid, fill in ops:
        length = min(length, SIZE - paddr)
        if kind == "tamper":
            for store in stores:
                store[paddr] ^= fill | 1
            continue
        seen = []
        for engine, store, read_raw in zip(engines, stores, readers):
            if kind == "drop":
                engine.drop_block_macs(paddr, length)
                continue
            if kind == "write":
                plain = bytes([fill]) * length
                store[paddr:paddr + length] = engine.encrypt_access(
                    paddr, plain, keyid)
                engine.record_macs(paddr, length, keyid, read_raw)
            raw = bytes(store[paddr:paddr + length])
            seen.append((_verdict(engine, paddr, length, keyid, read_raw),
                         engine.decrypt_access(paddr, raw, keyid)))
        if seen:
            assert seen[0] == seen[1]
    assert stores[0] == stores[1]
    assert _line_macs(engines[0]) == engines[1]._macs


@given(data=st.binary(max_size=2 * PAGE_SIZE),
       tweak=st.integers(min_value=0, max_value=1 << 40))
def test_xor_matches_scalar(data, tweak):
    cipher = KeystreamCipher(b"xor oracle key!!" * 2)
    stream = cipher.keystream(tweak, len(data))
    assert cipher.encrypt(data, tweak) == \
        bytes(p ^ s for p, s in zip(data, stream))


class _ReleasingOracle(_PerLineOracle):
    """The oracle with KeyID slots that can be released."""

    def release_key(self, keyid, *, from_ems):
        super().release_key(keyid, from_ems=from_ems)
        self._raw_keys.pop(keyid, None)

    def verify_macs(self, paddr, length, keyid, read_raw):
        if keyid in self._raw_keys:
            super().verify_macs(paddr, length, keyid, read_raw)


#: Frames the re-use property works over: few, so frames come back.
REUSED_FRAMES = 3


def _reused_span(shape, frame, offset, length):
    """(paddr, length) of a whole page, a line, or a sub-page access."""
    base = frame * PAGE_SIZE
    if shape == "page":
        return base, PAGE_SIZE
    if shape == "line":
        return base + offset - offset % CACHE_LINE_SIZE, CACHE_LINE_SIZE
    paddr = base + offset
    return paddr, min(length, REUSED_FRAMES * PAGE_SIZE - paddr)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(("write", "write", "read", "read", "tamper",
                         "reprogram", "release")),
        st.sampled_from(("page", "page", "page", "line", "sub")),
        st.integers(min_value=0, max_value=REUSED_FRAMES - 1),  # frame
        st.integers(min_value=0, max_value=PAGE_SIZE - 1),  # offset
        st.sampled_from((1, 8, CACHE_LINE_SIZE, 100, PAGE_SIZE)),  # sub length
        st.sampled_from((0, 1, 1, 2)),  # keyid: host, programmed x2
        st.integers(min_value=0, max_value=255)),  # fill / tamper mask
    min_size=1, max_size=32))
@example(ops=[("write", "page", 0, 0, 1, 1, 7), ("read", "page", 0, 0, 1, 1, 0),
              ("read", "line", 0, 64, 1, 1, 0), ("tamper", "sub", 0, 70, 1, 0, 3),
              ("read", "page", 0, 0, 1, 1, 0), ("reprogram", "page", 0, 0, 1, 1, 0),
              ("read", "page", 0, 0, 1, 1, 0), ("write", "page", 0, 0, 1, 1, 9),
              ("release", "page", 0, 0, 1, 1, 0), ("read", "sub", 0, 10, 100, 1, 0)])
def test_engine_matches_oracle_on_reused_frames_and_rekeyed_slots(ops):
    """Whole pages re-used under one key, and slots re-keyed between uses.

    Kept page streams and the span records must leave exactly what the
    oracle computes afresh, across re-programming and release.
    """
    engines = (MemoryEncryptionEngine(), _ReleasingOracle())
    stores = (bytearray(REUSED_FRAMES * PAGE_SIZE),
              bytearray(REUSED_FRAMES * PAGE_SIZE))
    readers = [lambda addr, n, store=store: bytes(store[addr:addr + n])
               for store in stores]
    generation = 0

    def program(keyid):
        for engine in engines:
            engine.program_key(keyid, bytes([keyid, generation]) * 16,
                               from_ems=True)

    for keyid in (1, 2):
        program(keyid)
    for kind, shape, frame, offset, length, keyid, fill in ops:
        paddr, length = _reused_span(shape, frame, offset, length)
        if kind == "tamper":
            for store in stores:
                store[paddr] ^= fill | 1
            continue
        if keyid == HOST_KEYID and kind in ("reprogram", "release"):
            continue
        if kind == "reprogram":
            generation += 1
            program(keyid)
            continue
        if kind == "release":
            for engine in engines:
                engine.release_key(keyid, from_ems=True)
            continue
        seen = []
        for engine, store, read_raw in zip(engines, stores, readers):
            if kind == "write":
                plain = bytes([fill]) * length
                store[paddr:paddr + length] = engine.encrypt_access(
                    paddr, plain, keyid)
                engine.record_macs(paddr, length, keyid, read_raw)
            raw = bytes(store[paddr:paddr + length])
            seen.append((_verdict(engine, paddr, length, keyid, read_raw),
                         engine.decrypt_access(paddr, raw, keyid)))
        assert seen[0] == seen[1]
    assert stores[0] == stores[1]
    assert _line_macs(engines[0]) == engines[1]._macs
