"""The workload profile datatype and shared cost helpers.

A :class:`WorkloadProfile` is everything the timing model needs to know
about one benchmark. Host-native runtime decomposes as::

    host_cycles = compute_cycles + allocation_cycles
    compute_cycles = instructions * cpi
    allocation_cycles = alloc_calls * host_malloc(alloc_pages)

and the enclave-mode runtime replaces the allocation path with EALLOC
primitives, adds the lifecycle primitives (ECREATE/EADD*/EMEAS/EENTER/
EEXIT/EDESTROY), the EMEAS hash of the image, and the memory-encryption
DRAM adder. The per-primitive cost functions live in
:mod:`repro.workloads.costs`.
"""

from __future__ import annotations

import dataclasses

from repro.common.constants import PAGE_SIZE


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """Aggregate characteristics of one benchmark."""

    name: str
    #: Retired instructions of the compute phase (excludes allocation).
    instructions: int
    #: CS-core cycles per instruction for the compute phase, including
    #: average memory stalls, in Host-Native.
    cpi: float
    #: Memory operations per instruction.
    mem_access_fraction: float
    #: L1D local miss rate (per memory access).
    l1_miss_rate: float
    #: L2 local miss rate (per L1 miss) — L2 misses go to DRAM.
    l2_miss_rate: float
    #: D-TLB miss rate per memory access (drives the Fig. 10 bitmap cost).
    dtlb_miss_rate: float
    #: Enclave image size in bytes (what EMEAS hashes).
    image_bytes: int
    #: Dynamic allocations performed over the run.
    alloc_calls: int
    #: Pages per allocation call.
    alloc_pages: int
    #: Additional management work (context switches, key ops, ...) in EMS
    #: instructions over the whole run.
    extra_primitive_instr: int = 0

    @property
    def image_pages(self) -> int:
        return max(1, (self.image_bytes + PAGE_SIZE - 1) // PAGE_SIZE)

    @property
    def compute_cycles(self) -> int:
        return int(self.instructions * self.cpi)

    @property
    def memory_accesses(self) -> float:
        return self.instructions * self.mem_access_fraction

    @property
    def dram_accesses(self) -> float:
        return self.memory_accesses * self.l1_miss_rate * self.l2_miss_rate
