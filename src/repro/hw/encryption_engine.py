"""Multi-key memory encryption engine with integrity (paper Section IV-C).

Models a commercial MK-TME/SME-style engine:

* a KeyID -> key slot table, configurable **only by the EMS via iHub**
  (the engine refuses configuration from any other master);
* per-cache-line encryption tweaked by physical address;
* a 28-bit HMAC-SHA3 MAC per line for integrity, under the slot's key;
  violation raises :class:`~repro.errors.IntegrityViolation`;
* KeyID slot exhaustion, which the EMS resolves by suspending an enclave
  and reclaiming its slot (exercised in tests).

KeyID 0 (``HOST_KEYID``) is plaintext passthrough for non-enclave memory.

A KeyID slot holds its key's cipher, its MAC pads and the keystreams of
the frames it re-uses: a frame's stream is kept from its second
page-aligned whole-page access under the key, and later accesses inside
the frame slice it. Re-programming or releasing the slot drops all three.
A page of zeros that memory stores lazily holds on to the slot's cipher
and MAC key instead (``defer_zero_page``), and ``zero_lines`` computes
and records its lines under them when they are first touched.

MACs cover the *full stored line*, so the engine exposes ``record_macs``
/ ``verify_macs`` hooks that :class:`PhysicalMemory` calls with a raw
reader after the store has landed. Each hook reads the line-aligned span
of the access once. A write records the span's stored bytes and the
slot's MAC key once, shared by the span's lines. A load whose line still
holds its recorded bytes under that key passes on a byte compare, since
both MACs would be one function of the same inputs; any other line
compares the two MACs. Streams and MACs are pure functions, so every
outcome is the one computed afresh.
"""

from __future__ import annotations

from typing import Callable

from repro.common.constants import (
    CACHE_LINE_SIZE,
    DEFAULT_KEY_SLOTS,
    HOST_KEYID,
    MAC_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from repro.crypto.cipher import KeystreamCipher
from repro.crypto.hashes import MacKey, truncated_mac
from repro.errors import IntegrityViolation, IsolationViolation, KeySlotExhausted

LineReader = Callable[[int, int], bytes]


class MemoryEncryptionEngine:
    """The per-SoC encryption + integrity engine on the memory path."""

    def __init__(self, key_slots: int = DEFAULT_KEY_SLOTS,
                 integrity_enabled: bool = True) -> None:
        self.key_slots = key_slots
        self.integrity_enabled = integrity_enabled
        self._ciphers: dict[int, KeystreamCipher] = {}
        self._mac_keys: dict[int, MacKey] = {}
        #: keyid -> frame -> its page keystream, or None once seen whole
        self._streams: dict[int, dict[int, bytes | None]] = {}
        #: line physical address -> (keyid, MAC key, first line, stored
        #: bytes) of the span that recorded it, one record per span
        self._macs: dict[int, tuple[int, MacKey, int, bytes]] = {}
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None

    # -- configuration (iHub-gated) ---------------------------------------------

    def program_key(self, keyid: int, key: bytes, *, from_ems: bool) -> None:
        """Install ``key`` in slot ``keyid``.

        The slot keeps the key's cipher and its MAC pads, built once here
        for every line MAC under ``keyid``, and starts with no kept frame
        stream; re-programming a KeyID replaces all three, so a line
        recorded under the old pads no longer passes on a byte compare.
        Only the EMS, through its iHub configuration path, may program
        keys; any other master raises
        :class:`IsolationViolation` — "configured only by EMS via iHub"
        (paper Section IV-C).
        """
        if not from_ems:
            raise IsolationViolation("only EMS may program encryption keys")
        if keyid == HOST_KEYID:
            raise ValueError("KeyID 0 is reserved for host plaintext")
        if keyid not in self._ciphers and len(self._ciphers) >= self.key_slots:
            raise KeySlotExhausted(f"all {self.key_slots} KeyID slots in use")
        self._ciphers[keyid] = KeystreamCipher(key)
        self._mac_keys[keyid] = MacKey(key)
        self._streams[keyid] = {}
        if self.san is not None:
            self.san.on_key_programmed(keyid)

    def release_key(self, keyid: int, *, from_ems: bool) -> None:
        """Free a KeyID slot (enclave destroyed or suspended)."""
        if not from_ems:
            raise IsolationViolation("only EMS may release encryption keys")
        self._ciphers.pop(keyid, None)
        self._mac_keys.pop(keyid, None)
        self._streams.pop(keyid, None)
        if self.san is not None:
            self.san.on_key_released(keyid)

    def slots_in_use(self) -> int:
        """Programmed KeyID slots."""
        return len(self._ciphers)

    def has_key(self, keyid: int) -> bool:
        """Is ``keyid`` currently programmed?"""
        return keyid in self._ciphers

    # -- data transform -----------------------------------------------------------

    def encrypt_access(self, paddr: int, data: bytes, keyid: int) -> bytes:
        """Transform a store on its way to DRAM."""
        if keyid == HOST_KEYID:
            return data
        return self._xor_stream(paddr, data, keyid)

    def decrypt_access(self, paddr: int, raw: bytes, keyid: int) -> bytes:
        """Transform a load on its way from DRAM."""
        if keyid == HOST_KEYID:
            return raw
        return self._xor_stream(paddr, raw, keyid)

    def _xor_stream(self, paddr: int, data: bytes, keyid: int) -> bytes:
        """XOR ``data`` with ``keyid``'s keystream at ``paddr``.

        An access inside a frame whose stream the slot keeps slices it. A
        page-aligned whole-page access computes the frame's stream: the
        first one marks the frame as seen, the second keeps the stream.
        Any other access (sub-page on an unkept frame, a span across
        frames, an unprogrammed KeyID) computes just its own window.
        """
        streams = self._streams.get(keyid)
        if streams is None:
            return self._cipher_for(keyid).encrypt(data, tweak=paddr)
        length = len(data)
        frame, offset = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
        stream = streams.get(frame)
        if stream is not None and offset + length <= PAGE_SIZE:
            stream = stream[offset:offset + length]
        elif offset == 0 and length == PAGE_SIZE:
            stream = self._ciphers[keyid].keystream(paddr, PAGE_SIZE)
            streams[frame] = stream if frame in streams else None
        else:
            return self._ciphers[keyid].encrypt(data, tweak=paddr)
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(stream, "little")).to_bytes(length, "little")

    # -- integrity ------------------------------------------------------------------

    @staticmethod
    def _span(paddr: int, length: int) -> tuple[int, int]:
        """(first line address, byte size) of the lines an access touches."""
        start = paddr - (paddr % CACHE_LINE_SIZE)
        lines = -(-(paddr + length - start) // CACHE_LINE_SIZE)
        return start, lines * CACHE_LINE_SIZE

    @classmethod
    def _lines(cls, paddr: int, length: int) -> range:
        start, size = cls._span(paddr, length)
        return range(start, start + size, CACHE_LINE_SIZE)

    def record_macs(self, paddr: int, length: int, keyid: int,
                    read_raw: LineReader) -> None:
        """Record every stored line a write touched, computing no MAC.

        One record of the span's stored bytes and the slot's MAC key is
        shared by each line of the span. Host-KeyID writes drop any stale
        enclave record on the line instead (the line now holds host data).
        """
        if keyid == HOST_KEYID:
            for line in self._lines(paddr, length):
                self._macs.pop(line, None)
            return
        if not self.integrity_enabled:
            return
        mac_key = self._mac_keys.get(keyid)
        if mac_key is None:
            return
        start, size = self._span(paddr, length)
        record = (keyid, mac_key, start, read_raw(start, size))
        for line in range(start, start + size, CACHE_LINE_SIZE):
            self._macs[line] = record

    def verify_macs(self, paddr: int, length: int, keyid: int,
                    read_raw: LineReader) -> None:
        """Verify MACs before a load's data is released to the core.

        Raises :class:`IntegrityViolation` on mismatch — the paper's
        response to physical tampering (Section IV-C). Lines never written
        under this keyid (freshly zeroed pages) carry no record and pass.
        A line passes when its stored bytes equal its slice of the record
        and the slot still holds the record's MAC key; otherwise the MAC
        of that slice under the record's key must equal the MAC of the
        stored bytes under the slot's key.
        """
        if keyid == HOST_KEYID or not self.integrity_enabled:
            return
        mac_key = self._mac_keys.get(keyid)
        if mac_key is None:
            return
        start, size = self._span(paddr, length)
        raw = None
        for offset in range(0, size, CACHE_LINE_SIZE):
            line = start + offset
            record = self._macs.get(line)
            if record is None:
                continue
            rec_keyid, rec_key, rec_start, rec_raw = record
            if rec_keyid != keyid:
                # The line belongs to a different key domain: the access
                # simply decrypts to garbage (MK-TME behaviour); the MAC
                # guards the *owning* domain against tampering, not
                # cross-domain reads.
                continue
            if raw is None:
                raw = read_raw(start, size)
            content = raw[offset:offset + CACHE_LINE_SIZE]
            at = line - rec_start
            recorded = rec_raw[at:at + CACHE_LINE_SIZE]
            if rec_key is mac_key and recorded == content:
                continue
            if truncated_mac(rec_key, recorded, MAC_BITS) \
                    != truncated_mac(mac_key, content, MAC_BITS):
                raise IntegrityViolation(
                    f"MAC mismatch at line {line:#x} (keyid {keyid})"
                )

    def drop_block_macs(self, paddr: int, length: int) -> None:
        """Forget line records over a range (page zeroed / reassigned by EMS)."""
        for line in self._lines(paddr, length):
            self._macs.pop(line, None)

    # -- lazy zero pages (see repro.hw.memory) ----------------------------------

    def defer_zero_page(self, paddr: int, keyid: int) -> tuple[int, KeystreamCipher, MacKey]:
        """Capture programmed ``keyid``'s slot for a page of zeros at ``paddr``.

        Memory stores nothing for the page and later asks
        :meth:`zero_lines` for its lines under the returned ``(keyid,
        cipher, MacKey)``, so re-keying or releasing the slot in between
        changes nothing. The page marks the frame as seen under the key,
        as a first whole-page access does (see :meth:`_xor_stream`); a
        frame already seen keeps no stream until its next whole-page
        access.
        """
        self._streams[keyid].setdefault(paddr >> PAGE_SHIFT, None)
        return keyid, self._ciphers[keyid], self._mac_keys[keyid]

    def zero_lines(self, slot: tuple[int, KeystreamCipher, MacKey],
                   paddr: int, size: int) -> bytes:
        """Stored bytes of whole lines of a deferred page of zeros.

        The ciphertext of zeros is the captured cipher's keystream. The
        lines are recorded under the captured MAC key, as
        :meth:`record_macs` would have recorded the whole-page write.
        """
        keyid, cipher, mac_key = slot
        stored = cipher.keystream(paddr, size)
        if self.integrity_enabled:
            record = (keyid, mac_key, paddr, stored)
            for line in range(paddr, paddr + size, CACHE_LINE_SIZE):
                self._macs[line] = record
        return stored

    # -- helpers ---------------------------------------------------------------

    def _cipher_for(self, keyid: int) -> KeystreamCipher:
        cipher = self._ciphers.get(keyid)
        if cipher is None:
            # Unknown KeyID: decrypt-to-garbage via a keyid-bound throwaway
            # cipher. Accesses under a wrong/unprogrammed KeyID yield noise
            # rather than faulting, matching MK-TME behaviour.
            cipher = KeystreamCipher(b"unprogrammed-keyid-" + keyid.to_bytes(8, "little"))
        return cipher
