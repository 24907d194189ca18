"""Enclave lifecycle management (ECREATE / EADD / EMEAS / EENTER /
ERESUME / EEXIT / EDESTROY) — paper Table II, Sections III-B and IV-A.

Lifecycle rules enforced here:

* static allocation at ECREATE (remote attestation requires the initial
  image to be fixed before execution — Section IV-A);
* EADD only while ``CREATED``; EMEAS seals the image and transitions to
  ``MEASURED``; first EENTER requires ``MEASURED``;
* every frame an enclave receives is zeroed, bitmap-marked, and claimed
  in the ownership table before mapping;
* the dedicated page table lives in enclave memory under the enclave's
  KeyID, unreachable by CS software and by the enclave itself;
* KeyID-slot exhaustion is resolved by suspending a non-running enclave,
  releasing its slot, and reprogramming on resume — with the TLB and
  cache flushes the paper prescribes (Section IV-C).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.common.constants import PAGE_SIZE
from repro.common.types import EnclaveState
from repro.core.enclave import (
    CODE_BASE_VPN,
    STACK_TOP_VPN,
    EnclaveConfig,
    EnclaveControl,
)
from repro.common.rng import DeterministicRng
from repro.common.types import Permission
from repro.crypto.engine import CryptoEngine
from repro.crypto.hashes import measure
from repro.ems.key_mgmt import KeyManager
from repro.ems.memory_pool import EnclaveMemoryPool
from repro.ems.ownership import Owner, PageOwnershipTable
from repro.errors import (
    EnclaveStateError,
    KeySlotExhausted,
    SanityCheckError,
)
from repro.eval.calibration import PRIMITIVE_BASE_INSTR
from repro.hw.bitmap import EnclaveBitmap
from repro.hw.memory import PhysicalMemory
from repro.hw.page_table import PageTable

#: Handler return type: (result dict, EMS instructions, crypto cycles).
HandlerOutput = tuple[dict[str, Any], int, int]


class EnclaveManager:
    """Owns every :class:`EnclaveControl` on the platform."""

    def __init__(self, memory: PhysicalMemory, pool: EnclaveMemoryPool,
                 ownership: PageOwnershipTable, bitmap: EnclaveBitmap,
                 keys: KeyManager, crypto: CryptoEngine,
                 rng: DeterministicRng) -> None:
        self.memory = memory
        self.pool = pool
        self.ownership = ownership
        self.bitmap = bitmap
        self.keys = keys
        self.crypto = crypto
        self._rng = rng
        self._ids = itertools.count(1)
        self.enclaves: dict[int, EnclaveControl] = {}
        #: Callbacks run after an enclave is destroyed (the shared-memory
        #: manager registers one to drop stale attachments / reclaim
        #: orphaned regions). Called with the enclave id.
        self.on_destroy_hooks: list = []

    # -- shared helpers (also used by the page/shm managers) -------------------------

    def get(self, enclave_id: int | None) -> EnclaveControl:
        """Look up a live control structure or raise."""
        if enclave_id is None or enclave_id not in self.enclaves:
            raise SanityCheckError(f"unknown enclave id {enclave_id}")
        control = self.enclaves[enclave_id]
        if control.state is EnclaveState.DESTROYED:
            raise EnclaveStateError(f"enclave {enclave_id} was destroyed")
        return control

    def grant_frames(self, count: int, owner: Owner,
                     flush_list: list[int]) -> list[int]:
        """Pool frames -> zero -> claim ownership.

        Pool frames are already bitmap-marked (they became enclave memory
        on pool refill), so granting needs no bitmap change — one reason
        per-allocation events are invisible to the CS OS. ``flush_list``
        picks up any bits the refill path did flip.
        """
        frames = self.pool.take(count, owner=owner)
        self.ownership.claim_all(frames, owner)
        for frame in frames:
            self.memory.zero_frame(frame)
        flush_list.extend(self.pool.drain_flush_list())
        return frames

    def zero_under(self, frames: list[int], keyid: int) -> None:
        """Zero frames *as seen under* ``keyid``.

        Raw-zeroed DRAM decrypts to keystream noise under an enclave key;
        a freshly mapped page must read as zeros to its new owner, so the
        EMS writes zeros through the encryption engine. Memory computes
        each line's ciphertext on its first access (see
        :mod:`repro.hw.memory`); the page reads as zeros to its owner
        either way.
        """
        from repro.common.constants import PAGE_SIZE as _PS

        for frame in frames:
            self.memory.write_frame(frame, bytes(_PS), keyid)

    def reclaim_frames(self, frames: list[int], owner: Owner,
                       flush_list: list[int]) -> None:
        """Inverse of :meth:`grant_frames`: release ownership, zero, pool.

        Frames stay bitmap-marked — they return to the pool, which is
        enclave memory; bits only clear when the pool surrenders frames
        back to the CS OS (EWB).
        """
        self.ownership.release_all(frames, owner)
        self.pool.give_back(frames, owner=owner)
        flush_list.extend(self.pool.drain_flush_list())

    def ensure_keyid(self, control: EnclaveControl) -> None:
        """(Re)program the enclave's key, evicting a slot if necessary.

        The KeyID *number* is stable for the enclave's whole life (PTEs
        embed it); only the engine slot is released and reprogrammed.
        Every primitive that touches the enclave's page table or memory
        must call this first — a suspended-for-slot enclave's table is
        unreadable until its key is back in the engine.
        """
        if self._engine_has(control.keyid):
            return
        try:
            self.keys.reprogram_keyid(control.keyid, control.memory_key)
        except KeySlotExhausted:
            self._suspend_for_slot()
            self.keys.reprogram_keyid(control.keyid, control.memory_key)

    def _engine_has(self, keyid: int) -> bool:
        return keyid in self.keys.live_keyids()

    def _suspend_for_slot(self) -> None:
        """Release the KeyID slot of some non-running enclave."""
        for control in self.enclaves.values():
            if (control.state in (EnclaveState.MEASURED, EnclaveState.SUSPENDED,
                                  EnclaveState.CREATED)
                    and control.keyid and self._engine_has(control.keyid)):
                self.keys.release_keyid(control.keyid)
                return
        raise KeySlotExhausted("no suspendable enclave holds a KeyID slot")

    # -- primitives -----------------------------------------------------------------------

    def ecreate(self, config: EnclaveConfig,
                preassigned_id: int | None = None) -> HandlerOutput:
        """Create an enclave: identity, key, dedicated table, static pages.

        ``preassigned_id`` is used by the multi-EMS shard pool: the
        routing layer mints platform-global IDs so that the ID's home
        shard (``hw.routing.shard_for``) is the shard serving the
        ECREATE. Single-EMS systems never pass it and keep the local
        monotone counter.
        """
        if preassigned_id is not None:
            if not isinstance(preassigned_id, int) or preassigned_id < 1:
                raise SanityCheckError(
                    f"invalid preassigned enclave id {preassigned_id!r}")
            if preassigned_id in self.enclaves:
                raise SanityCheckError(
                    f"preassigned enclave id {preassigned_id} already exists")
            enclave_id = preassigned_id
        else:
            enclave_id = next(self._ids)
            # Skip over IDs a shard-pool placement already minted on
            # this shard (never taken on a pure single-EMS system, so
            # the legacy draw sequence is untouched there).
            while enclave_id in self.enclaves:
                enclave_id = next(self._ids)
        seed = measure(config.name.encode(),
                       enclave_id.to_bytes(8, "little"),
                       self._rng.randbytes(16, stream="enclave-seed"))
        memory_key = self.keys.enclave_memory_key(seed)
        try:
            keyid = self.keys.allocate_keyid(memory_key)
        except KeySlotExhausted:
            self._suspend_for_slot()
            keyid = self.keys.allocate_keyid(memory_key)

        flush: list[int] = []
        owner = Owner.enclave(enclave_id)
        table_owner = Owner.ems(f"enclave{enclave_id}-pagetable")
        # The accumulator list becomes control.frames itself, so table
        # nodes allocated lazily by later map() calls (EADD, EALLOC,
        # demand faults) are tracked too.
        all_frames: list[int] = []

        def allocate_table_frame() -> int:
            # Lazy node allocations happen during *later* primitives
            # (EADD, EALLOC, faults); their bitmap-flush entries are
            # re-queued so the primitive being served delivers them.
            local: list[int] = []
            frame = self.grant_frames(1, table_owner, local)[0]
            self.pool.requeue_flush(local)
            all_frames.append(frame)
            return frame

        root = allocate_table_frame()
        table = PageTable(self.memory, root, allocate_table_frame,
                          table_keyid=keyid, asid=1000 + enclave_id)
        control = EnclaveControl(
            enclave_id=enclave_id, config=config, keyid=keyid,
            memory_key=memory_key, page_table=table, frames=all_frames)

        # Static allocation: stack now, code frames reserved for EADD.
        stack_frames = self.grant_frames(config.stack_pages, owner, flush)
        self.zero_under(stack_frames, keyid)
        stack_base_vpn = STACK_TOP_VPN - config.stack_pages + 1
        for offset, frame in enumerate(stack_frames):
            table.map(stack_base_vpn + offset, frame, Permission.RW, keyid)
        control.frames.extend(stack_frames)

        # HostApp transfer buffer (Section IV-A): host-visible plaintext
        # frames mapped into the enclave at a fixed region; the HostApp
        # maps the same frames into its own table.
        if config.host_shared_pages:
            from repro.common.constants import HOST_KEYID
            from repro.core.enclave import HOST_SHM_BASE_VPN

            host_frames = self.pool.take_host_visible(config.host_shared_pages)
            for offset, frame in enumerate(host_frames):
                table.map(HOST_SHM_BASE_VPN + offset, frame,
                          Permission.RW, HOST_KEYID)
            control.host_shared_frames.extend(host_frames)

        self.enclaves[enclave_id] = control
        instr = PRIMITIVE_BASE_INSTR["ECREATE"] + 120 * config.static_pages
        result = {"enclave_id": enclave_id,
                  "cs_actions": {"flush_frames": flush}}
        return result, instr, self.crypto.hash_cycles(64)

    def eadd(self, enclave_id: int, content: bytes,
             perm: Permission = Permission.RX) -> HandlerOutput:
        """Load one page of code/data into the enclave image."""
        control = self.get(enclave_id)
        control.assert_state(EnclaveState.CREATED)
        self.ensure_keyid(control)
        if len(content) > PAGE_SIZE:
            raise SanityCheckError("EADD content exceeds one page")
        if control.code_next_vpn - CODE_BASE_VPN >= control.config.code_pages:
            raise SanityCheckError("EADD beyond the declared code pages")

        flush: list[int] = []
        frame = self.grant_frames(1, Owner.enclave(enclave_id), flush)[0]
        padded = content.ljust(PAGE_SIZE, b"\0")
        self.memory.write_frame(frame, padded, control.keyid)
        control.page_table.map(control.code_next_vpn, frame, perm, control.keyid)
        control.added_pages.append((control.code_next_vpn, measure(padded)))
        control.code_next_vpn += 1
        control.frames.append(frame)

        # No crypto-engine charge: page content is encrypted inline by the
        # *memory encryption engine* on the bus as it is written, and the
        # measurement hash is charged once, over the whole image, by EMEAS
        # (Table IV attributes the hashing cost to EMEAS).
        instr = (PRIMITIVE_BASE_INSTR["EADD"]
                 + PRIMITIVE_BASE_INSTR["EADD_PER_PAGE"])
        return {"vpn": control.code_next_vpn - 1,
                "cs_actions": {"flush_frames": flush}}, instr, 0

    def emeas(self, enclave_id: int) -> HandlerOutput:
        """Measure the enclave image (hash of all EADDed content)."""
        control = self.get(enclave_id)
        control.assert_state(EnclaveState.CREATED)
        chunks = [vpn.to_bytes(8, "little") + page_hash
                  for vpn, page_hash in control.added_pages]
        measurement, _ = self.crypto.measure(*chunks)
        control.measurement = measurement
        control.state = EnclaveState.MEASURED
        # The hash cost covers the full image, not just the per-page
        # digests: EMEAS reads and hashes every added byte. This is the
        # dominant primitive cost without a crypto engine (Table IV).
        crypto_cycles = self.crypto.hash_cycles(control.image_bytes())
        return ({"measurement": measurement},
                PRIMITIVE_BASE_INSTR["EMEAS"], crypto_cycles)

    def eenter(self, enclave_id: int) -> HandlerOutput:
        """Start enclave execution (context handed to EMCall to install)."""
        control = self.get(enclave_id)
        control.assert_state(EnclaveState.MEASURED, EnclaveState.SUSPENDED)
        self.ensure_keyid(control)
        control.state = EnclaveState.RUNNING
        control.entries += 1
        result = {
            "entry_vaddr": control.entry_vaddr,
            "cs_actions": {"enter_context": {
                "enclave_id": enclave_id,
                "page_table": control.page_table,
            }},
        }
        return result, PRIMITIVE_BASE_INSTR["EENTER"], 0

    def eresume(self, enclave_id: int) -> HandlerOutput:
        """Resume after an interrupt/exit; same install path as EENTER."""
        control = self.get(enclave_id)
        control.assert_state(EnclaveState.SUSPENDED)
        self.ensure_keyid(control)
        control.state = EnclaveState.RUNNING
        control.entries += 1
        result = {
            "cs_actions": {"enter_context": {
                "enclave_id": enclave_id,
                "page_table": control.page_table,
            }},
        }
        return result, PRIMITIVE_BASE_INSTR["ERESUME"], 0

    def eexit(self, enclave_id: int) -> HandlerOutput:
        """Leave enclave execution; EMCall restores the host context."""
        control = self.get(enclave_id)
        control.assert_state(EnclaveState.RUNNING)
        control.state = EnclaveState.SUSPENDED
        return ({"cs_actions": {"exit_context": True}},
                PRIMITIVE_BASE_INSTR["EEXIT"], 0)

    def edestroy(self, enclave_id: int) -> HandlerOutput:
        """Tear down: zero and reclaim every frame, retire id and KeyID."""
        control = self.get(enclave_id)
        if control.state is EnclaveState.RUNNING:
            raise EnclaveStateError("cannot destroy a running enclave")

        flush: list[int] = []
        owner = Owner.enclave(enclave_id)
        table_owner = Owner.ems(f"enclave{enclave_id}-pagetable")
        own_frames = self.ownership.frames_owned_by(owner)
        table_frames = self.ownership.frames_owned_by(table_owner)
        self.reclaim_frames(own_frames, owner, flush)
        self.reclaim_frames(table_frames, table_owner, flush)
        if control.host_shared_frames:
            self.pool.release_host_visible(control.host_shared_frames)
            control.host_shared_frames = []
        if control.keyid and self._engine_has(control.keyid):
            self.keys.release_keyid(control.keyid)
        control.state = EnclaveState.DESTROYED
        for hook in self.on_destroy_hooks:
            hook(enclave_id)
        pages = len(own_frames) + len(table_frames)
        instr = PRIMITIVE_BASE_INSTR["EDESTROY"] + 60 * pages
        return {"cs_actions": {"flush_frames": flush, "flush_all": True}}, instr, 0
