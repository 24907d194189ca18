"""Stateful property testing: random primitive sequences preserve the
platform's safety invariants.

Hypothesis drives an arbitrary interleaving of lifecycle, memory, and
shared-memory primitives across multiple enclaves and checks, after
every step:

* pool conservation — used + free == capacity, no frame double-handed;
* ownership exclusivity — no frame owned by two parties;
* enclave-frame disjointness — no two live enclaves share a private frame;
* bitmap coverage — every pool/enclave frame is enclave-marked; host
  frames are not;
* key consistency — every live enclave's KeyID decrypts its own memory.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.types import EnclaveState, Permission
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard
from repro.errors import EMSError


class HyperTEEMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sys: HyperTEESystem | None = None
        #: The platform's one EMS, whose managers the rules drive.
        self.shard: EMSShard | None = None
        self.enclave_ids: list[int] = []
        self.heap_regions: dict[int, list[int]] = {}
        self.shm_ids: list[int] = []

    @initialize()
    def boot(self) -> None:
        self.sys = HyperTEESystem(
            SystemConfig(cs_memory_mb=64, ems_memory_mb=4,
                         pool_initial_pages=128))
        self.shard = self.sys.shard_pool.shards[0]

    # -- rules -----------------------------------------------------------------------

    @rule(heap=st.integers(min_value=4, max_value=64))
    def create_enclave(self, heap: int) -> None:
        result, _, _ = self.shard.enclaves.ecreate(
            EnclaveConfig(name=f"e{len(self.enclave_ids)}",
                          heap_pages_max=heap))
        enclave_id = result["enclave_id"]
        self.shard.enclaves.eadd(enclave_id, b"code")
        self.shard.enclaves.emeas(enclave_id)
        self.enclave_ids.append(enclave_id)
        self.heap_regions[enclave_id] = []

    def _live(self) -> list[int]:
        return [i for i in self.enclave_ids
                if self.shard.enclaves.enclaves[i].state
                is not EnclaveState.DESTROYED]

    @rule(pick=st.integers(min_value=0, max_value=10**6),
          pages=st.integers(min_value=1, max_value=8))
    def ealloc(self, pick: int, pages: int) -> None:
        live = self._live()
        if not live:
            return
        enclave_id = live[pick % len(live)]
        try:
            result, _, _ = self.shard.pages.ealloc(enclave_id, pages)
            self.heap_regions[enclave_id].append(result["vaddr"])
        except EMSError:
            pass  # budget exceeded: allowed, state must stay consistent

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def efree(self, pick: int) -> None:
        live = [i for i in self._live() if self.heap_regions[i]]
        if not live:
            return
        enclave_id = live[pick % len(live)]
        vaddr = self.heap_regions[enclave_id].pop()
        self.shard.pages.efree(enclave_id, vaddr)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def enter_exit(self, pick: int) -> None:
        live = self._live()
        if not live:
            return
        enclave_id = live[pick % len(live)]
        control = self.shard.enclaves.enclaves[enclave_id]
        if control.state in (EnclaveState.MEASURED, EnclaveState.SUSPENDED):
            self.shard.enclaves.eenter(enclave_id)
            self.shard.enclaves.eexit(enclave_id)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def destroy(self, pick: int) -> None:
        live = [i for i in self._live()
                if self.shard.enclaves.enclaves[i].state
                is not EnclaveState.RUNNING]
        if not live:
            return
        enclave_id = live[pick % len(live)]
        self.shard.enclaves.edestroy(enclave_id)
        self.heap_regions[enclave_id] = []

    @rule(pages=st.integers(min_value=1, max_value=4))
    def ewb(self, pages: int) -> None:
        try:
            self.shard.swap.ewb(pages)
        except EMSError:
            pass

    @rule(pick=st.integers(min_value=0, max_value=10**6),
          pages=st.integers(min_value=1, max_value=4))
    def shared_region(self, pick: int, pages: int) -> None:
        live = self._live()
        if not live:
            return
        sender = live[pick % len(live)]
        try:
            result, _, _ = self.shard.shm.eshmget(sender, pages, Permission.RW)
            self.shm_ids.append(result["shm_id"])
        except EMSError:
            pass

    # -- invariants -----------------------------------------------------------------------

    @invariant()
    def pool_conservation(self) -> None:
        if self.sys is None:
            return
        pool = self.shard.pool
        assert pool.used_count + pool.free_count == pool.capacity
        assert pool.used_count >= 0

    @invariant()
    def enclave_frames_disjoint(self) -> None:
        if self.sys is None:
            return
        seen: set[int] = set()
        for enclave_id in self._live():
            control = self.shard.enclaves.enclaves[enclave_id]
            frames = set(control.frames)
            assert not (frames & seen), "two enclaves share a frame"
            seen |= frames

    @invariant()
    def enclave_frames_bitmap_marked(self) -> None:
        if self.sys is None:
            return
        for enclave_id in self._live():
            control = self.shard.enclaves.enclaves[enclave_id]
            for frame in control.frames:
                assert self.sys.bitmap.is_enclave(frame)

    @invariant()
    def ownership_consistent(self) -> None:
        if self.sys is None:
            return
        for enclave_id in self._live():
            control = self.shard.enclaves.enclaves[enclave_id]
            from repro.ems.ownership import Owner

            owned = set(self.shard.ownership.frames_owned_by(
                Owner.enclave(enclave_id)))
            table_owned = set(self.shard.ownership.frames_owned_by(
                Owner.ems(f"enclave{enclave_id}-pagetable")))
            assert set(control.frames) == owned | table_owned

    @invariant()
    def keys_decrypt_own_memory(self) -> None:
        if self.sys is None:
            return
        for enclave_id in self._live():
            control = self.shard.enclaves.enclaves[enclave_id]
            if control.state is EnclaveState.DESTROYED:
                continue
            assert self.sys.engine.has_key(control.keyid) or \
                control.state in (EnclaveState.SUSPENDED,
                                  EnclaveState.MEASURED,
                                  EnclaveState.CREATED)


HyperTEEStateTest = HyperTEEMachine.TestCase
HyperTEEStateTest.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None)
