"""The enclave memory pool (paper Section IV-A).

The pool is the defense against *allocation-based controlled channels*:
the EMS proactively requests frames from the CS OS in bulk and serves
individual enclave allocations from the pool, so the OS never observes
per-enclave, per-demand allocation events — only rare, bulk, demand-
decoupled pool refills.

Two hardening details from the paper:

* the pool enlarges when usage crosses a **threshold that is re-randomized
  after every enlargement**, so an attacker cannot reverse-engineer the
  refill trigger and reconstruct demand from refill timing;
* frames returned to the CS OS are **zeroed first**.
"""

from __future__ import annotations

import dataclasses

from repro.common.constants import (
    POOL_ENLARGE_PAGES,
    POOL_INITIAL_PAGES,
    POOL_THRESHOLD_MAX,
    POOL_THRESHOLD_MIN,
)
from repro.common.rng import DeterministicRng
from repro.common.types import FrameSource
from repro.errors import OutOfEnclaveMemory
from repro.hw.memory import PhysicalMemory


@dataclasses.dataclass
class PoolStats:
    refills: int = 0
    frames_requested_from_os: int = 0
    takes: int = 0
    returns: int = 0


class EnclaveMemoryPool:
    """Bulk frame reservoir between the CS OS and enclave allocations."""

    def __init__(self, os: FrameSource, memory: PhysicalMemory,
                 rng: DeterministicRng, bitmap=None,
                 initial_pages: int = POOL_INITIAL_PAGES,
                 enlarge_pages: int = POOL_ENLARGE_PAGES) -> None:
        self._os = os
        self._memory = memory
        self._rng = rng
        self._bitmap = bitmap
        self._enlarge_pages = enlarge_pages
        self._free: list[int] = []
        self._capacity = 0
        self._used = 0
        self._threshold = self._draw_threshold()
        self.stats = PoolStats()
        #: Out-of-band observability hook (attached by the system).
        self.obs = None
        #: Index of the EMS shard that owns this pool (set where the
        #: system builds the shard); labels the occupancy gauges.
        self.shard = 0
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None
        #: Frames whose bitmap bit changed since the last drain; the EMS
        #: runtime folds these into the response's TLB-flush action.
        self._pending_flush: list[int] = []
        if initial_pages:
            self._refill(initial_pages)

    # -- internals -----------------------------------------------------------------

    def _draw_threshold(self) -> float:
        """Randomize the enlarge trigger (anti-reverse-engineering)."""
        return self._rng.uniform(POOL_THRESHOLD_MIN, POOL_THRESHOLD_MAX,
                                 stream="pool-threshold")

    def _refill(self, pages: int) -> None:
        frames = self._os.alloc_frames(pages, requestor="ems-pool")
        # Frames entering the pool become enclave memory immediately: the
        # OS can no longer observe which of them are in use vs free.
        if self._bitmap is not None:
            for frame in frames:
                self._bitmap.set_enclave(frame, True)
            self._pending_flush.extend(frames)
        self._free.extend(frames)
        self._capacity += pages
        self._threshold = self._draw_threshold()
        self.stats.refills += 1
        self.stats.frames_requested_from_os += pages
        if self.obs is not None:
            self.obs.record_pool_refill(self.shard, pages, len(self._free),
                                        self._used)

    def drain_flush_list(self) -> list[int]:
        """Frames needing a TLB shootdown since the last drain."""
        out, self._pending_flush = self._pending_flush, []
        return out

    def requeue_flush(self, frames: list[int]) -> None:
        """Put drained flush entries back for the *current* primitive.

        Used by deferred allocation paths (lazy page-table nodes) whose
        capture context is not the primitive being served: the entries
        are re-queued so the serving primitive's drain delivers them.
        """
        self._pending_flush.extend(frames)

    def _maybe_enlarge(self, needed: int) -> None:
        while len(self._free) < needed or (
                self._capacity and
                (self._used + needed) / self._capacity > self._threshold):
            shortfall = max(needed - len(self._free), 0)
            self._refill(max(self._enlarge_pages, shortfall))

    # -- public interface ---------------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_count(self) -> int:
        return self._used

    def take(self, pages: int, owner=None) -> list[int]:
        """Hand ``pages`` frames to an enclave — invisible to the CS OS."""
        if pages <= 0:
            raise ValueError("must take a positive number of pages")
        self._maybe_enlarge(pages)
        if len(self._free) < pages:
            raise OutOfEnclaveMemory(
                f"pool cannot supply {pages} pages (free {len(self._free)})")
        taken = self._free[:pages]
        del self._free[:pages]
        self._used += pages
        self.stats.takes += pages
        if self.obs is not None:
            self.obs.record_pool_take(self.shard, pages, len(self._free),
                                      self._used, owner=owner)
        if self.san is not None:
            self.san.on_pool_take(self._memory, taken, owner)
        return taken

    def take_contiguous(self, pages: int, owner=None) -> list[int]:
        """Take ``pages`` physically contiguous frames.

        DMA engines issue physically continuous accesses (Section V-C),
        so device-shared regions need a contiguous range; the DMA
        whitelist then covers it with a single register pair.
        """
        if pages <= 0:
            raise ValueError("must take a positive number of pages")
        for _ in range(64):  # bounded number of enlarge attempts
            self._maybe_enlarge(pages)
            run = self._find_run(pages)
            if run is not None:
                for frame in run:
                    self._free.remove(frame)
                self._used += pages
                self.stats.takes += pages
                if self.obs is not None:
                    self.obs.record_pool_take(self.shard, pages,
                                              len(self._free), self._used,
                                              owner=owner)
                if self.san is not None:
                    self.san.on_pool_take(self._memory, run, owner)
                return run
            self._refill(max(self._enlarge_pages, pages))
        raise OutOfEnclaveMemory(
            f"could not assemble {pages} contiguous pool pages")

    def _find_run(self, pages: int) -> list[int] | None:
        ordered = sorted(self._free)
        run_start = 0
        for i in range(1, len(ordered) + 1):
            if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
                if i - run_start >= pages:
                    return ordered[run_start:run_start + pages]
                run_start = i
        return None

    def give_back(self, frames: list[int], owner=None) -> None:
        """Return frames to the pool, zeroed (EFREE / EDESTROY path)."""
        for frame in frames:
            self._memory.zero_frame(frame)
        self._free.extend(frames)
        self._used -= len(frames)
        self.stats.returns += len(frames)
        if self.obs is not None:
            self.obs.record_pool_return(self.shard, len(frames),
                                        len(self._free), self._used,
                                        owner=owner)
        if self.san is not None:
            # Scanned *after* the zeroing loop: a surviving secret means
            # the scrub is broken (TEE004's freed-frame channel).
            self.san.on_pool_return(self._memory, frames, owner)

    def take_host_visible(self, pages: int) -> list[int]:
        """Frames for HostApp<->enclave transfer buffers.

        These are deliberately *not* enclave memory: both sides access
        them, so they come straight from the OS, stay unmarked in the
        bitmap, and carry HOST_KEYID (plaintext) — the paper's channel
        for remote users' encrypted inputs to reach the enclave.
        """
        frames = self._os.alloc_frames(pages, requestor="ems-hostshm")
        for frame in frames:
            self._memory.zero_frame(frame)
        return frames

    def release_host_visible(self, frames: list[int]) -> None:
        """Zero and return transfer-buffer frames to the OS."""
        for frame in frames:
            self._memory.zero_frame(frame)
        if self.san is not None:
            self.san.on_pool_surrender(self._memory, frames)
        self._os.release_frames(frames)

    def disown_used(self, pages: int) -> None:
        """Stop accounting ``pages`` in-use frames (cross-shard transfer).

        The frames themselves move with the enclave to the destination
        shard's pool (:meth:`adopt_used` there); this side only sheds
        the used/capacity accounting. Free frames are untouched, so
        fleet-wide ``used + free == capacity`` is conserved.
        """
        if pages < 0 or pages > self._used:
            raise ValueError(
                f"cannot disown {pages} used pages (used {self._used})")
        self._used -= pages
        self._capacity -= pages

    def adopt_used(self, pages: int) -> None:
        """Start accounting ``pages`` in-use frames (cross-shard transfer).

        Inverse of :meth:`disown_used`, called on the destination pool:
        the frames arrive already bitmap-marked, zero-free, and owned by
        the migrating enclave, so they enter as used capacity directly.
        """
        if pages < 0:
            raise ValueError(f"cannot adopt {pages} pages")
        self._used += pages
        self._capacity += pages

    def surrender_random(self, count: int) -> list[int]:
        """Remove random *unused* frames for EWB swap-out (Section IV-A).

        The EMS returns zeroed, never-hot pool frames instead of enclave
        working-set pages, denying the swap channel a victim signal.
        """
        count = min(count, len(self._free))
        chosen = self._rng.sample(self._free, count, stream="pool-swap")
        for frame in chosen:
            self._free.remove(frame)
            self._memory.zero_frame(frame)
            if self._bitmap is not None:
                self._bitmap.set_enclave(frame, False)
                self._pending_flush.append(frame)
        self._capacity -= count
        if self.san is not None:
            # These frames leave enclave memory for the CS OS: any
            # surviving key material would hand the swap channel a copy.
            self.san.on_pool_surrender(self._memory, chosen)
        return chosen
