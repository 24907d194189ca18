"""Run a workload profile under a scenario; return the cycle breakdown.

This is the analytic runtime model behind Table IV and Figs. 7/9/10: the
same cost functions as :mod:`repro.workloads.costs` composed per
scenario. Components are kept separate so each figure reports exactly the
quantity it plots (EMEAS share, all-primitive share, memory-
management overhead, bitmap overhead).
"""

from __future__ import annotations

import dataclasses

from repro.crypto.engine import ENGINE_CRYPTO, SOFTWARE_CRYPTO
from repro.eval.calibration import (
    BITMAP_SERIAL_CYCLES,
    ENCRYPTION_DRAM_ADDER_CYCLES,
)
from repro.eval.scenarios import HOST_NATIVE, Scenario
from repro.hw.core import EMS_MEDIUM, CoreConfig
from repro.workloads import costs
from repro.workloads.profiles import WorkloadProfile


@dataclasses.dataclass(frozen=True)
class ScenarioRun:
    """Cycle breakdown of one (workload, scenario, EMS config) run."""

    workload: str
    scenario: str
    compute_cycles: float
    allocation_cycles: float
    lifecycle_cycles: float
    emeas_cycles: float
    encryption_cycles: float
    bitmap_cycles: float

    @property
    def total_cycles(self) -> float:
        return (self.compute_cycles + self.allocation_cycles
                + self.lifecycle_cycles + self.emeas_cycles
                + self.encryption_cycles + self.bitmap_cycles)

    @property
    def primitive_cycles(self) -> float:
        """Everything Table IV counts as 'All Primitives'."""
        return self.allocation_cycles + self.lifecycle_cycles + self.emeas_cycles

    def overhead_vs(self, baseline: "ScenarioRun") -> float:
        """Relative overhead against a baseline run (usually Host-Native)."""
        return self.total_cycles / baseline.total_cycles - 1.0


def run_workload(profile: WorkloadProfile, scenario: Scenario,
                 ems: CoreConfig = EMS_MEDIUM) -> ScenarioRun:
    """Evaluate one profile under one scenario."""
    compute = float(profile.compute_cycles)

    if scenario.in_enclave:
        allocation = profile.alloc_calls * costs.ealloc_cycles(
            profile.alloc_pages, ems)
        lifecycle = costs.lifecycle_cycles(profile.image_pages, ems)
        crypto = ENGINE_CRYPTO if scenario.crypto == "engine" else SOFTWARE_CRYPTO
        emeas = costs.emeas_hash_cycles(profile.image_bytes, crypto)
        bitmap = 0.0  # enclave accesses skip the bitmap check (Fig. 5)
    else:
        allocation = float(profile.alloc_calls
                           * costs.host_malloc_cycles(profile.alloc_pages))
        lifecycle = 0.0
        emeas = 0.0
        bitmap = (costs.bitmap_check_cycles(
            profile.memory_accesses, profile.dtlb_miss_rate,
            BITMAP_SERIAL_CYCLES) if scenario.bitmap_checking else 0.0)

    encryption = (costs.encryption_adder_cycles(
        profile.dram_accesses, ENCRYPTION_DRAM_ADDER_CYCLES)
        if scenario.memory_encryption else 0.0)

    return ScenarioRun(
        workload=profile.name,
        scenario=scenario.name,
        compute_cycles=compute,
        allocation_cycles=allocation,
        lifecycle_cycles=lifecycle,
        emeas_cycles=emeas,
        encryption_cycles=encryption,
        bitmap_cycles=bitmap,
    )


def host_baseline(profile: WorkloadProfile) -> ScenarioRun:
    """The Host-Native run every overhead in the paper is measured against."""
    return run_workload(profile, HOST_NATIVE)
