"""Property-based invariants for the enclave memory pool.

Hypothesis drives random op sequences (take / give_back /
surrender_random) against a small pool and checks the structural
invariants after every step:

* **no double-grant** — a frame is never handed to two live grants, and
  a granted frame never sits on the free list;
* **free ⊆ pool accounting** — ``free + used == capacity`` at all times,
  and every free frame came from the OS under the ``ems-pool`` requestor
  (bulk, demand-decoupled refills only);
* **threshold stays in its band** — the re-randomized enlarge trigger
  never leaves ``[POOL_THRESHOLD_MIN, POOL_THRESHOLD_MAX]``;
* **growth is bounded** — randomized thresholds cannot make the pool
  balloon: capacity stays within the analytic bound implied by the
  minimum threshold plus one enlargement step;
* **FIFO reuse** — frames given back are granted again in the order
  they were returned, and only frames that were granted come back.

Example counts are bounded (this file runs in tier-1).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import (
    POOL_THRESHOLD_MAX,
    POOL_THRESHOLD_MIN,
)
from repro.common.rng import DeterministicRng
from repro.cs.os import CSOperatingSystem
from repro.ems.memory_pool import EnclaveMemoryPool
from repro.hw.bitmap import EnclaveBitmap
from repro.hw.memory import PhysicalMemory

_INITIAL = 8
_ENLARGE = 8
_MAX_TAKE = 6

# One op per step: ("take", pages) allocates a fresh grant,
# ("free", key) returns a previously taken grant (key picks which),
# ("surrender", count) simulates EWB pressure on unused frames.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("take"),
                  st.integers(min_value=1, max_value=_MAX_TAKE)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=31)),
        st.tuples(st.just("surrender"),
                  st.integers(min_value=0, max_value=4))),
    max_size=30)


def _make_pool(seed: int):
    memory = PhysicalMemory(32 * 1024 * 1024)
    os_ = CSOperatingSystem(memory, first_free_frame=16)
    bitmap = EnclaveBitmap(memory, base_paddr=0)
    pool = EnclaveMemoryPool(os_, memory, DeterministicRng(seed),
                             bitmap=bitmap, initial_pages=_INITIAL,
                             enlarge_pages=_ENLARGE)
    return pool, os_


def _check_invariants(pool, os_, grants: list[list[int]],
                      peak_demand: int) -> None:
    free = pool._free
    granted = [frame for grant in grants for frame in grant]

    # No double-grant: live grants are pairwise disjoint and disjoint
    # from the free list; the free list itself holds no duplicates.
    assert len(granted) == len(set(granted))
    assert not set(granted) & set(free)
    assert len(free) == len(set(free))

    # Accounting: free + used == capacity, and used mirrors live grants.
    assert pool.free_count + pool.used_count == pool.capacity
    assert pool.used_count == len(granted)

    # Every pool frame came from bulk ems-pool refills (the OS never saw
    # a per-demand enclave allocation).
    pool_frames = {frame for event in os_.allocation_log
                   if event.requestor == "ems-pool"
                   for frame in event.frames}
    assert set(free) <= pool_frames
    assert set(granted) <= pool_frames

    # The randomized enlarge trigger stays in its calibrated band.
    assert POOL_THRESHOLD_MIN <= pool._threshold <= POOL_THRESHOLD_MAX

    # Bounded growth: enlargement stops as soon as usage drops under the
    # drawn threshold, and every threshold is >= POOL_THRESHOLD_MIN, so
    # capacity can never exceed the *peak*-demand-implied bound plus one
    # enlargement step (no unbounded proactive ballooning). Capacity is
    # sticky — frees shrink `used`, never `capacity` — hence the peak.
    bound = max(_INITIAL, peak_demand / POOL_THRESHOLD_MIN) \
        + max(_ENLARGE, _MAX_TAKE)
    assert pool.capacity <= bound, (pool.capacity, bound)


@given(ops=_ops, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_pool_invariants_under_random_ops(ops, seed):
    pool, os_ = _make_pool(seed)
    grants: list[list[int]] = []
    peak_demand = 0
    _check_invariants(pool, os_, grants, peak_demand)
    for op, value in ops:
        if op == "take":
            peak_demand = max(peak_demand, pool.used_count + value)
            grants.append(pool.take(value))
        elif op == "free" and grants:
            pool.give_back(grants.pop(value % len(grants)))
        elif op == "surrender":
            surrendered = pool.surrender_random(value)
            # EWB hands back *unused* frames only — never a live grant.
            granted = {f for grant in grants for f in grant}
            assert not set(surrendered) & granted
        _check_invariants(pool, os_, grants, peak_demand)


@given(pages=st.lists(st.integers(min_value=1, max_value=_MAX_TAKE),
                      min_size=1, max_size=12),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_take_sequences_never_double_grant(pages, seed):
    """Pure allocation bursts: every grant is globally fresh."""
    pool, _ = _make_pool(seed)
    seen: set[int] = set()
    for count in pages:
        grant = pool.take(count)
        assert len(grant) == count
        assert not seen & set(grant)
        seen |= set(grant)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_thresholds_rerandomize_within_band(seed):
    """Across many forced enlargements, every draw stays in the band."""
    pool, _ = _make_pool(seed)
    draws = set()
    for _ in range(8):
        pool.take(_MAX_TAKE)
        draws.add(pool._threshold)
        assert POOL_THRESHOLD_MIN <= pool._threshold <= POOL_THRESHOLD_MAX
    assert len(draws) > 1  # the trigger actually moves


class _SequentialOS:
    """Minimal FrameSource: hands out fresh ascending frame numbers."""

    def __init__(self):
        self.next_frame = 0

    def alloc_frames(self, count, requestor=""):
        frames = list(range(self.next_frame, self.next_frame + count))
        self.next_frame += count
        return frames

    def free_frames(self, frames, requestor=""):
        pass


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=8)),
                    min_size=1, max_size=60),
       seed=st.integers(min_value=0, max_value=1 << 16))
def test_pool_grant_invariants(ops, seed):
    """No double-grant; freed subset of allocated; FIFO reuse order."""
    memory = PhysicalMemory(4 * 1024 * 1024)
    pool = EnclaveMemoryPool(_SequentialOS(), memory,
                             DeterministicRng(seed), initial_pages=64)
    outstanding: set[int] = set()
    returned_order: list[int] = []
    for is_take, pages in ops:
        if is_take:
            if pool.free_count < pages:
                continue
            frames = pool.take(pages)
            assert len(frames) == pages
            assert not outstanding & set(frames), "double-granted frame"
            # Stable FIFO reuse: among the frames we returned, recycling
            # happens in return order (fresh/initial frames may
            # interleave — they entered the queue at other times — but
            # never reorder the returned ones relative to each other).
            recycled = [f for f in frames if f in set(returned_order)]
            assert recycled == returned_order[:len(recycled)], \
                "recycled frames out of FIFO order"
            del returned_order[:len(recycled)]
            outstanding |= set(frames)
        elif outstanding:
            give = sorted(outstanding)[:pages]
            assert set(give) <= outstanding, "freed frame never granted"
            pool.give_back(give)
            outstanding -= set(give)
            returned_order.extend(give)
    assert pool.used_count == len(outstanding)
