"""Physical memory model: frames, byte storage, per-access KeyID.

The front-side bus carries 56 bits: low 40 = physical address, high 16 =
KeyID (paper Section IV-C). The memory model therefore takes a KeyID on
every access and routes data through the memory encryption engine, so data
written under one KeyID reads back as garbage under another — the property
the paper relies on to make PTW-based exfiltration useless (Section
VIII-C, "CS PTW").

Storage is sparse (dict of frame -> bytearray). A frame with no storage
reads as zeros, so modelled memories can be "64 MB" without allocating
64 MB of host RAM until touched, and a scrubbed frame keeps none.

A page of zeros written under an enclave KeyID stores nothing either.
The frame keeps the KeyID slot's cipher and MAC key, and the first access
that touches one of its 64-byte lines computes that line's ciphertext and
has the engine record it, as the whole-page write would have. Raw and bus
accesses alike see the bytes and line records of the eager write.
"""

from __future__ import annotations

from repro.common.constants import CACHE_LINE_SIZE, HOST_KEYID, PAGE_SHIFT, PAGE_SIZE
from repro.errors import PhysicalAddressError

_ZERO_PAGE = bytes(PAGE_SIZE)
#: The computed-lines mask of a lazy frame whose lines are all computed.
_ALL_LINES = (1 << (PAGE_SIZE // CACHE_LINE_SIZE)) - 1


class PhysicalMemory:
    """Byte-addressable physical memory organised in 4 KiB frames."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError("memory size must be a positive multiple of the page size")
        self.size_bytes = size_bytes
        self.num_frames = size_bytes >> PAGE_SHIFT
        self._frames: dict[int, bytearray] = {}
        #: frame -> [captured (keyid, cipher, MacKey), mask of computed
        #: lines, their bytes (None until one is computed)] of a page of
        #: zeros written under an enclave KeyID; see :meth:`_storage`
        self._lazy: dict[int, list] = {}
        #: Optional encryption engine; attached by the SoC at construction.
        self.encryption_engine = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None

    # -- frame helpers ---------------------------------------------------------

    def _storage(self, frame_number: int, offset: int,
                 take: int) -> bytearray | None:
        """Storage of a frame missing from ``_frames``; None reads as zeros.

        A lazy frame first computes the lines under ``[offset, offset +
        take)`` it has not computed yet, one keystream call per run of
        them. An empty access inside a line counts that line, as the
        engine's line span does, so every line an engine hook reads or
        records is computed first. Once all 64 lines are computed the
        frame is an ordinary frame.
        """
        lazy = self._lazy.get(frame_number)
        if lazy is None:
            return None
        slot, done, stored = lazy
        want = ((1 << -(-(offset + take) // CACHE_LINE_SIZE))
                - (1 << offset // CACHE_LINE_SIZE))
        missing = want & ~done
        if not missing:
            return stored
        if stored is None:
            stored = lazy[2] = bytearray(PAGE_SIZE)
        base = frame_number << PAGE_SHIFT
        while missing:
            line = (missing & -missing).bit_length() - 1  # lowest missing
            end = line + 1
            while missing >> end & 1:
                end += 1
            start, size = line * CACHE_LINE_SIZE, (end - line) * CACHE_LINE_SIZE
            stored[start:start + size] = self.encryption_engine.zero_lines(
                slot, base + start, size)
            missing &= -1 << end
        lazy[1] = done | want
        if lazy[1] == _ALL_LINES:
            del self._lazy[frame_number]
            self._frames[frame_number] = stored
        return stored

    def check_range(self, paddr: int, length: int) -> None:
        """Raise PhysicalAddressError on out-of-range accesses."""
        if paddr < 0 or paddr + length > self.size_bytes:
            raise PhysicalAddressError(
                f"access [{paddr:#x}, {paddr + length:#x}) beyond {self.size_bytes:#x}"
            )

    # -- raw access (what lands on the DRAM bus: ciphertext) -------------------

    def read_raw(self, paddr: int, length: int) -> bytes:
        """Read stored (post-engine, i.e. ciphertext) bytes.

        A frame with no storage reads as zeros and gets none.
        """
        self.check_range(paddr, length)
        out = bytearray()
        end = paddr + length
        while True:
            frame_number, offset = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
            take = min(end - paddr, PAGE_SIZE - offset)
            frame = (self._frames.get(frame_number)
                     or self._storage(frame_number, offset, take))
            out += bytes(take) if frame is None else frame[offset:offset + take]
            paddr += take
            if paddr == end:
                return bytes(out)

    def write_raw(self, paddr: int, data: bytes) -> None:
        """Write bytes as-is, bypassing the encryption engine.

        This is the physical-attack surface: a cold-boot attacker reads
        and writes raw DRAM contents through these methods.
        """
        self.check_range(paddr, len(data))
        if self.san is not None:
            self.san.on_raw_write(self, paddr, data)
        view = memoryview(data)
        while True:
            frame_number, offset = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
            take = min(len(view), PAGE_SIZE - offset)
            frame = (self._frames.get(frame_number)
                     or self._storage(frame_number, offset, take))
            if frame is None:
                if not take:
                    return
                frame = self._frames[frame_number] = bytearray(PAGE_SIZE)
            frame[offset:offset + take] = view[:take]
            view = view[take:]
            if not view:
                return
            paddr += take

    # -- bus access (through the encryption engine) ----------------------------

    def read(self, paddr: int, length: int, keyid: int = HOST_KEYID) -> bytes:
        """Read through the memory encryption engine under ``keyid``.

        Integrity MACs are verified before data leaves the engine; a
        mismatch raises :class:`~repro.errors.IntegrityViolation`.
        """
        raw = self.read_raw(paddr, length)
        if self.encryption_engine is None:
            return raw
        self.encryption_engine.verify_macs(paddr, length, keyid, self.read_raw)
        return self.encryption_engine.decrypt_access(paddr, raw, keyid)

    def write(self, paddr: int, data: bytes, keyid: int = HOST_KEYID) -> None:
        """Write through the memory encryption engine under ``keyid``.

        A whole page under the host KeyID or a programmed KeyID replaces
        every line record of its frame, so it drops a lazy frame there
        without computing it; under any other KeyID the lazy lines are
        computed first, and their records outlive the write. A page of
        zeros under a programmed KeyID makes the frame lazy, unless a
        sanitizer is attached: the sanitizers inspect each raw write.
        """
        engine = self.encryption_engine
        if engine is None:
            self.write_raw(paddr, data)
            return
        if (len(data) == PAGE_SIZE and not paddr & (PAGE_SIZE - 1)
                and (keyid == HOST_KEYID or engine.has_key(keyid))):
            frame_number = paddr >> PAGE_SHIFT
            self._lazy.pop(frame_number, None)
            if keyid != HOST_KEYID and self.san is None and data == _ZERO_PAGE:
                self.check_range(paddr, PAGE_SIZE)
                self._frames.pop(frame_number, None)
                self._lazy[frame_number] = [
                    engine.defer_zero_page(paddr, keyid), 0, None]
                return
        self.write_raw(paddr, engine.encrypt_access(paddr, data, keyid))
        engine.record_macs(paddr, len(data), keyid, self.read_raw)

    # -- page-granularity conveniences ------------------------------------------

    def zero_frame(self, frame_number: int) -> None:
        """Zero one frame (EMS zeroes pages before pool return / mapping).

        A frame with no storage reads as zeros, so the frame gives up its
        storage, lazy or not, and the engine forgets its line records.
        """
        if not 0 <= frame_number < self.num_frames:
            raise PhysicalAddressError(f"frame {frame_number} out of range")
        self._frames.pop(frame_number, None)
        self._lazy.pop(frame_number, None)
        if self.san is not None:
            self.san.on_zero_frame(frame_number)
        if self.encryption_engine is not None:
            self.encryption_engine.drop_block_macs(frame_number << PAGE_SHIFT, PAGE_SIZE)

    def read_frame(self, frame_number: int, keyid: int = HOST_KEYID) -> bytes:
        """Read one full frame under ``keyid``."""
        return self.read(frame_number << PAGE_SHIFT, PAGE_SIZE, keyid)

    def write_frame(self, frame_number: int, data: bytes, keyid: int = HOST_KEYID) -> None:
        """Write one full frame under ``keyid``."""
        if len(data) != PAGE_SIZE:
            raise ValueError("frame writes must be exactly one page")
        self.write(frame_number << PAGE_SHIFT, data, keyid)
