"""Micro-simulation: replay access traces through the real hardware
models.

Where :mod:`repro.workloads.runner` computes overheads from *assumed*
miss rates, the :class:`TraceExecutor` measures them: every access goes
through the core's TLB, the page-table walker (with live bitmap
checking), and a cache model, and the executor accounts the same cycle
costs the PTW reports. The model-validation test compares the
bitmap-checking overhead measured here against the analytic Fig. 10
formula.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.types import AccessType, Permission
from repro.core.system import HyperTEESystem
from repro.cs.os import HostProcess
from repro.eval.calibration import (
    CS_DRAM_ACCESS_CYCLES,
    CS_L1_HIT_CYCLES,
    CS_L2_HIT_CYCLES,
)
from repro.hw.cache import SetAssociativeCache
from repro.workloads.trace import MemoryAccess


@dataclasses.dataclass
class TraceStats:
    """Measured behaviour of one trace replay."""

    accesses: int = 0
    translation_cycles: int = 0
    cache_cycles: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    bitmap_checks: int = 0

    @property
    def total_cycles(self) -> int:
        return self.translation_cycles + self.cache_cycles

    @property
    def tlb_miss_rate(self) -> float:
        return self.tlb_misses / self.accesses if self.accesses else 0.0

    @property
    def avg_cycles_per_access(self) -> float:
        return self.total_cycles / self.accesses if self.accesses else 0.0


class TraceExecutor:
    """Replays traces for a host process on a CS core."""

    L1_HIT_CYCLES = CS_L1_HIT_CYCLES
    L2_HIT_CYCLES = CS_L2_HIT_CYCLES
    DRAM_CYCLES = CS_DRAM_ACCESS_CYCLES

    def __init__(self, system: HyperTEESystem,
                 process: HostProcess | None = None) -> None:
        self.system = system
        self.process = (process if process is not None
                        else system.os.create_process("trace"))
        self.core = system.primary_core
        self.l1 = SetAssociativeCache(size_kb=64, ways=8)
        self.l2 = SetAssociativeCache(size_kb=1024, ways=8)

    def map_region(self, base_vaddr: int, size_bytes: int) -> None:
        """Pre-map the trace's footprint (no demand-fault noise)."""
        pages = (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        frames = self.system.os.alloc_frames(
            pages, requestor=f"pid{self.process.pid}-trace")
        base_vpn = base_vaddr >> PAGE_SHIFT
        for offset, frame in enumerate(frames):
            self.process.table.map(base_vpn + offset, frame, Permission.RW)

    def run(self, trace: Iterable[MemoryAccess]) -> TraceStats:
        """Replay the trace; returns measured stats."""
        stats = TraceStats()
        self.core.set_host_context(self.process.table)
        ptw = self.core.ptw
        tlb_stats = self.core.tlb.stats
        hits_before, misses_before = tlb_stats.hits, tlb_stats.misses
        checks_before = ptw.stats.bitmap_checks

        for access in trace:
            kind = AccessType.WRITE if access.is_write else AccessType.READ
            result = ptw.translate(self.process.table, access.vaddr, kind)
            stats.translation_cycles += result.cycles
            stats.cache_cycles += self._cache_access(result.paddr)
            stats.accesses += 1

        stats.tlb_hits = tlb_stats.hits - hits_before
        stats.tlb_misses = tlb_stats.misses - misses_before
        stats.bitmap_checks = ptw.stats.bitmap_checks - checks_before
        return stats

    def _cache_access(self, paddr: int) -> int:
        if self.l1.access(paddr):
            return self.L1_HIT_CYCLES
        if self.l2.access(paddr):
            return self.L2_HIT_CYCLES
        return self.DRAM_CYCLES


def measure_bitmap_overhead(system_with: HyperTEESystem,
                            system_without: HyperTEESystem,
                            trace_factory, base_vaddr: int,
                            footprint: int) -> tuple[float, TraceStats]:
    """Replay the same trace with and without bitmap checking.

    Returns (relative overhead, with-checking stats) — the measured
    counterpart of the Fig. 10 analytic formula.
    """
    runs = []
    for system in (system_with, system_without):
        executor = TraceExecutor(system)
        executor.map_region(base_vaddr, footprint)
        runs.append(executor.run(trace_factory()))
    with_stats, without_stats = runs
    overhead = (with_stats.total_cycles / without_stats.total_cycles) - 1.0
    return overhead, with_stats
