"""Set-associative TLB with the bitmap-checked bit (paper Fig. 5).

After the PTW validates a translation against the enclave bitmap, the TLB
entry is installed with ``checked=True`` so subsequent hits skip the
bitmap retrieval. To prevent circumvention via stale entries, EMCall
flushes relevant entries on enclave context switches and bitmap changes
(paper Section IV-B); the flush interfaces here are what EMCall calls.

Timing: the model counts hits, misses, and flushes; the cycle cost of a
miss (PTW walk + optional bitmap retrieve) is accounted by the core model.
"""

from __future__ import annotations

import dataclasses

from repro.common.types import Permission


@dataclasses.dataclass
class TLBEntry:
    vpn: int
    ppn: int
    perm: Permission
    keyid: int
    asid: int
    checked: bool = False  # bitmap check already performed
    lru_tick: int = 0


@dataclasses.dataclass
class TLBStats:
    hits: int = 0
    misses: int = 0
    full_flushes: int = 0
    selective_flushes: int = 0


class TLB:
    """A ``sets`` x ``ways`` TLB keyed by (ASID, VPN)."""

    def __init__(self, entries: int = 32, ways: int = 4) -> None:
        if entries % ways:
            raise ValueError("entries must divide evenly into ways")
        self.sets = entries // ways
        self.ways = ways
        self._sets: list[list[TLBEntry]] = [[] for _ in range(self.sets)]
        self._tick = 0
        self.stats = TLBStats()
        #: Out-of-band observability hook (attached by the system). Only
        #: the flush paths probe; lookups stay probe-free (hot path).
        self.obs = None

    def _set_for(self, vpn: int) -> list[TLBEntry]:
        return self._sets[vpn % self.sets]

    def lookup(self, asid: int, vpn: int) -> TLBEntry | None:
        """Return the matching entry, updating LRU, or None on miss."""
        self._tick += 1
        for entry in self._set_for(vpn):
            if entry.vpn == vpn and entry.asid == asid:
                entry.lru_tick = self._tick
                self.stats.hits += 1
                return entry
        self.stats.misses += 1
        return None

    def insert(self, entry: TLBEntry) -> None:
        """Install an entry, evicting LRU within the set if needed."""
        self._tick += 1
        entry.lru_tick = self._tick
        bucket = self._set_for(entry.vpn)
        for i, existing in enumerate(bucket):
            if existing.vpn == entry.vpn and existing.asid == entry.asid:
                bucket[i] = entry
                return
        if len(bucket) >= self.ways:
            bucket.remove(min(bucket, key=lambda e: e.lru_tick))
        bucket.append(entry)

    # -- flush interfaces used by EMCall -------------------------------------------

    def flush_all(self) -> int:
        """Full flush (enclave context switch). Returns entries dropped."""
        dropped = sum(map(len, self._sets))
        for bucket in self._sets:
            bucket.clear()
        self.stats.full_flushes += 1
        if self.obs is not None:
            self.obs.record_tlb_flush("full", dropped)
        return dropped

    def flush_asid(self, asid: int) -> int:
        """Drop all entries for one address space."""
        dropped = 0
        for bucket in self._sets:
            keep = [e for e in bucket if e.asid != asid]
            dropped += len(bucket) - len(keep)
            bucket[:] = keep
        self.stats.selective_flushes += 1
        if self.obs is not None:
            self.obs.record_tlb_flush("asid", dropped)
        return dropped

    def flush_frame(self, ppn: int) -> int:
        """Drop entries translating to one physical page (bitmap change)."""
        dropped = 0
        for bucket in self._sets:
            keep = [e for e in bucket if e.ppn != ppn]
            dropped += len(bucket) - len(keep)
            bucket[:] = keep
        self.stats.selective_flushes += 1
        if self.obs is not None:
            self.obs.record_tlb_flush("frame", dropped)
        return dropped

    def entry_count(self) -> int:
        """Valid entries across all sets."""
        return sum(len(bucket) for bucket in self._sets)
