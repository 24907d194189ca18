"""Sv39-style page tables and the page-table walker with bitmap checking.

The PTW implements the paper's Fig. 5 pipeline:

1. TLB lookup; on hit with ``checked`` set, translate immediately.
2. On miss, walk the 3-level table *in memory* (PTEs are real bytes in
   the modelled :class:`~repro.hw.memory.PhysicalMemory`, so an untrusted
   OS really can read and clobber PTEs of tables it owns — that is the
   page-table controlled channel).
3. For non-enclave accesses (``IS_ENCLAVE`` register clear), retrieve the
   enclave bitmap bit for the translated frame; if the frame is enclave
   memory, raise :class:`~repro.errors.BitmapViolation`.
4. Install the TLB entry with ``checked=True``.

PTE layout (64-bit)::

    bit  0      V (valid)
    bits 1-3    R / W / X
    bit  6      A (accessed)   <- set by walker; the classic SGX
    bit  7      D (dirty)         controlled-channel observable
    bits 10-37  PPN (28 bits; 40-bit physical addresses, 4 KiB pages)
    bits 48-63  KeyID (high 16 bits of the 56-bit bus, Section IV-C)
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.common.constants import HOST_KEYID, PAGE_SHIFT, PAGE_SIZE
from repro.common.types import AccessType, Permission
from repro.errors import AccessPermissionError, BitmapViolation, PageFault
from repro.eval.calibration import (
    PTW_BITMAP_CHECK_CYCLES,
    PTW_STEP_CYCLES,
    TLB_HIT_CYCLES,
)
from repro.hw.bitmap import BitmapReader
from repro.hw.memory import PhysicalMemory
from repro.hw.tlb import TLB, TLBEntry

PTE_SIZE = 8
LEVELS = 3
INDEX_BITS = 9
ENTRIES_PER_LEVEL = 1 << INDEX_BITS

_V_BIT = 1 << 0
_R_BIT = 1 << 1
_W_BIT = 1 << 2
_X_BIT = 1 << 3
_A_BIT = 1 << 6
_D_BIT = 1 << 7
_PPN_SHIFT = 10
_PPN_MASK = (1 << 28) - 1
_KEYID_SHIFT = 48
_KEYID_MASK = (1 << 16) - 1


def encode_pte(ppn: int, perm: Permission, keyid: int,
               accessed: bool = False, dirty: bool = False) -> int:
    """Pack a PTE word."""
    word = _V_BIT
    if perm & Permission.READ:
        word |= _R_BIT
    if perm & Permission.WRITE:
        word |= _W_BIT
    if perm & Permission.EXECUTE:
        word |= _X_BIT
    if accessed:
        word |= _A_BIT
    if dirty:
        word |= _D_BIT
    word |= (ppn & _PPN_MASK) << _PPN_SHIFT
    word |= (keyid & _KEYID_MASK) << _KEYID_SHIFT
    return word


@dataclasses.dataclass(frozen=True)
class DecodedPTE:
    valid: bool
    ppn: int
    perm: Permission
    keyid: int
    accessed: bool
    dirty: bool

    @classmethod
    def from_word(cls, word: int) -> "DecodedPTE":
        perm = Permission.NONE
        if word & _R_BIT:
            perm |= Permission.READ
        if word & _W_BIT:
            perm |= Permission.WRITE
        if word & _X_BIT:
            perm |= Permission.EXECUTE
        return cls(
            valid=bool(word & _V_BIT),
            ppn=(word >> _PPN_SHIFT) & _PPN_MASK,
            perm=perm,
            keyid=(word >> _KEYID_SHIFT) & _KEYID_MASK,
            accessed=bool(word & _A_BIT),
            dirty=bool(word & _D_BIT),
        )


class PageTable:
    """One 3-level page table rooted at a physical frame.

    ``table_keyid`` is the KeyID the table's own pages are stored under:
    ``HOST_KEYID`` for OS-owned tables (readable/forgeable by the OS —
    the attack surface), or the owning enclave's KeyID for the dedicated
    enclave tables the EMS maintains (Section IV-A), which makes raw reads
    of PTE frames yield ciphertext.
    """

    def __init__(self, memory: PhysicalMemory, root_frame: int,
                 allocate_frame: Callable[[], int],
                 table_keyid: int = HOST_KEYID, asid: int = 0) -> None:
        self.memory = memory
        self.root_frame = root_frame
        self.table_keyid = table_keyid
        self.asid = asid
        self._allocate_frame = allocate_frame
        self._table_frames: list[int] = [root_frame]
        self._zero_table_frame(root_frame)

    def _zero_table_frame(self, frame: int) -> None:
        """Write a frame of invalid PTEs *through* the table's KeyID.

        A raw zeroed frame would decrypt to keystream garbage under an
        enclave KeyID; table frames must hold zeros as seen by the
        walker, so they are initialized through the encryption engine.
        Under an enclave KeyID memory computes only the lines PTE
        accesses touch (see :mod:`repro.hw.memory`); the walker reads
        zeros either way.
        """
        self.memory.write(frame << PAGE_SHIFT, bytes(PAGE_SIZE),
                          self.table_keyid)

    # -- raw PTE access ----------------------------------------------------------

    @staticmethod
    def _indices(vpn: int) -> tuple[int, ...]:
        return tuple((vpn >> (INDEX_BITS * level)) & (ENTRIES_PER_LEVEL - 1)
                     for level in reversed(range(LEVELS)))

    def _pte_addr(self, table_frame: int, index: int) -> int:
        return (table_frame << PAGE_SHIFT) + index * PTE_SIZE

    def read_pte_word(self, table_frame: int, index: int) -> int:
        """Load one PTE word through the table's KeyID."""
        addr = self._pte_addr(table_frame, index)
        return int.from_bytes(self.memory.read(addr, PTE_SIZE, self.table_keyid), "little")

    def write_pte_word(self, table_frame: int, index: int, word: int) -> None:
        """Store one PTE word through the table's KeyID."""
        addr = self._pte_addr(table_frame, index)
        self.memory.write(addr, word.to_bytes(PTE_SIZE, "little"), self.table_keyid)

    # -- mapping management (called by the table's owner: OS or EMS) ----------------

    def map(self, vpn: int, ppn: int, perm: Permission,
            keyid: int = HOST_KEYID) -> None:
        """Create a leaf mapping vpn -> ppn, building intermediate levels."""
        frame = self.root_frame
        indices = self._indices(vpn)
        for index in indices[:-1]:
            word = self.read_pte_word(frame, index)
            pte = DecodedPTE.from_word(word)
            if not pte.valid:
                child = self._allocate_frame()
                self._zero_table_frame(child)
                self._table_frames.append(child)
                # Non-leaf: valid, no RWX, carries the child PPN.
                self.write_pte_word(frame, index,
                                    _V_BIT | ((child & _PPN_MASK) << _PPN_SHIFT))
                frame = child
            else:
                frame = pte.ppn
        self.write_pte_word(frame, indices[-1], encode_pte(ppn, perm, keyid))

    def unmap(self, vpn: int) -> bool:
        """Invalidate the leaf PTE. Returns False if nothing was mapped."""
        leaf = self.walk(vpn)
        if leaf is None or not leaf[2] & _V_BIT:
            return False
        self.write_pte_word(leaf[0], leaf[1], 0)
        return True

    def lookup(self, vpn: int) -> DecodedPTE | None:
        """Software walk without side effects (owner's own view)."""
        leaf = self.walk(vpn)
        if leaf is None:
            return None
        pte = DecodedPTE.from_word(leaf[2])
        return pte if pte.valid else None

    def walk(self, vpn: int) -> tuple[int, int, int] | None:
        """One walk to ``vpn``'s leaf: its table frame, index and word.

        ``None`` when an intermediate level is invalid; the leaf word
        itself may still be invalid.
        """
        frame = self.root_frame
        indices = self._indices(vpn)
        for index in indices[:-1]:
            pte = DecodedPTE.from_word(self.read_pte_word(frame, index))
            if not pte.valid:
                return None
            frame = pte.ppn
        return frame, indices[-1], self.read_pte_word(frame, indices[-1])

    def set_flags(self, vpn: int, accessed: bool | None = None,
                  dirty: bool | None = None) -> None:
        """Set/clear A/D flags on a leaf PTE (walker and OS both use this).

        The leaf is written back only when its word changes; rewriting the
        same word would store the same ciphertext and MAC.
        """
        leaf = self.walk(vpn)
        if leaf is None:
            raise PageFault(vpn << PAGE_SHIFT, "set_flags on unmapped vpn")
        frame, index, old = leaf
        word = old
        if accessed is not None:
            word = word | _A_BIT if accessed else word & ~_A_BIT
        if dirty is not None:
            word = word | _D_BIT if dirty else word & ~_D_BIT
        if word != old:
            self.write_pte_word(frame, index, word)

    def mapped_vpns(self) -> list[int]:
        """Enumerate all valid leaf VPNs (diagnostic/teardown helper)."""
        found: list[int] = []

        def recurse(frame: int, level: int, prefix: int) -> None:
            for index in range(ENTRIES_PER_LEVEL):
                pte = DecodedPTE.from_word(self.read_pte_word(frame, index))
                if not pte.valid:
                    continue
                vpn_part = (prefix << INDEX_BITS) | index
                if level == LEVELS - 1:
                    found.append(vpn_part)
                else:
                    recurse(pte.ppn, level + 1, vpn_part)

        recurse(self.root_frame, 0, 0)
        return found

    def table_frames(self) -> list[int]:
        """Physical frames holding this table's nodes (for protection)."""
        return list(self._table_frames)


@dataclasses.dataclass
class WalkResult:
    """Outcome of one hardware translation."""

    paddr: int
    ppn: int
    keyid: int
    perm: Permission
    tlb_hit: bool
    bitmap_checked: bool
    cycles: int


@dataclasses.dataclass
class PTWStats:
    walks: int = 0
    bitmap_checks: int = 0
    bitmap_violations: int = 0
    page_faults: int = 0


class PageTableWalker:
    """The hardware PTW of one CS core, with bitmap checking (Fig. 5).

    ``is_enclave_mode`` models the IS_ENCLAVE register: set only at the
    highest privilege level (by EMCall) when the core enters an enclave.
    Enclave accesses skip the bitmap check (their isolation comes from the
    dedicated EMS-managed table); non-enclave accesses must pass it.
    """

    #: Memory-access cycles per PTE load during a walk.
    WALK_STEP_CYCLES = PTW_STEP_CYCLES
    #: Extra cycles for the bitmap retrieval. The check runs in parallel
    #: with the original permission check (paper Section VII-C), so only
    #: the serialized tail is visible.
    BITMAP_CHECK_CYCLES = PTW_BITMAP_CHECK_CYCLES
    TLB_HIT_CYCLES = TLB_HIT_CYCLES

    def __init__(self, memory: PhysicalMemory, tlb: TLB,
                 bitmap_reader: BitmapReader | None) -> None:
        self.memory = memory
        self.tlb = tlb
        self.bitmap_reader = bitmap_reader
        self.is_enclave_mode = False  # IS_ENCLAVE register
        self.stats = PTWStats()
        #: Out-of-band observability hook (attached by the system). Only
        #: the miss/walk path probes; TLB hits stay probe-free.
        self.obs = None

    def translate(self, table: PageTable, vaddr: int,
                  access: AccessType) -> WalkResult:
        """Translate ``vaddr`` through ``table``, enforcing Fig. 5 checks."""
        vpn = vaddr >> PAGE_SHIFT
        offset = vaddr & (PAGE_SIZE - 1)

        entry = self.tlb.lookup(table.asid, vpn)
        if entry is not None and (entry.checked or self.is_enclave_mode):
            if not entry.perm.allows(access):
                raise AccessPermissionError(
                    f"{access.value} not permitted at {vaddr:#x}")
            if access is AccessType.WRITE:
                table.set_flags(vpn, dirty=True)
            return WalkResult(
                paddr=(entry.ppn << PAGE_SHIFT) | offset, ppn=entry.ppn,
                keyid=entry.keyid, perm=entry.perm, tlb_hit=True,
                bitmap_checked=False, cycles=self.TLB_HIT_CYCLES)

        # TLB miss: one hardware walk, which also sets A/D below.
        self.stats.walks += 1
        cycles = self.WALK_STEP_CYCLES * LEVELS
        leaf = table.walk(vpn)
        pte = None if leaf is None else DecodedPTE.from_word(leaf[2])
        if pte is None or not pte.valid:
            self.stats.page_faults += 1
            raise PageFault(vaddr)
        if not pte.perm.allows(access):
            raise AccessPermissionError(f"{access.value} not permitted at {vaddr:#x}")

        bitmap_checked = False
        if not self.is_enclave_mode and self.bitmap_reader is not None:
            self.stats.bitmap_checks += 1
            cycles += self.BITMAP_CHECK_CYCLES
            bitmap_checked = True
            if self.bitmap_reader.is_enclave(pte.ppn):
                self.stats.bitmap_violations += 1
                raise BitmapViolation(
                    f"non-enclave access to enclave frame {pte.ppn}")

        # Walker sets A (and D on stores) — the controlled-channel
        # observable on OS-owned tables. An unchanged leaf is not rewritten.
        frame, index, word = leaf
        flagged = word | _A_BIT | (_D_BIT if access is AccessType.WRITE else 0)
        if flagged != word:
            table.write_pte_word(frame, index, flagged)
        self.tlb.insert(TLBEntry(vpn=vpn, ppn=pte.ppn, perm=pte.perm,
                                 keyid=pte.keyid, asid=table.asid, checked=True))
        if self.obs is not None:
            self.obs.record_ptw_walk(cycles, bitmap_checked)
        return WalkResult(
            paddr=(pte.ppn << PAGE_SHIFT) | offset, ppn=pte.ppn,
            keyid=pte.keyid, perm=pte.perm, tlb_hit=False,
            bitmap_checked=bitmap_checked, cycles=cycles)
