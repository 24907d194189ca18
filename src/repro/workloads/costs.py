"""Primitive and allocation cost functions shared by the runner and the
profile calibrators.

All results are **CS-core cycles** (2.5 GHz) unless the name says
otherwise. EMS work is converted through the selected EMS core's
sustained IPC and the 750 MHz EMS clock, plus the EMCall dispatch and
mailbox transfer costs — the same arithmetic the live system performs in
:meth:`repro.cs.emcall.EMCall.invoke`, reproduced here in closed form so
whole workloads need not be executed instruction by instruction.
"""

from __future__ import annotations

from repro.common.constants import CS_CORE_FREQ_HZ, EMS_CORE_FREQ_HZ
from repro.crypto.engine import CryptoEngine, CryptoProfile
from repro.eval.calibration import (
    EALLOC_BASE_INSTR,
    EALLOC_PER_PAGE_INSTR,
    EMCALL_DISPATCH_CYCLES,
    EMCALL_POLL_JITTER_CYCLES,
    HOST_MALLOC_BASE_CYCLES,
    HOST_MALLOC_PER_PAGE_CYCLES,
    PRIMITIVE_BASE_INSTR,
)
from repro.hw.core import CoreConfig
from repro.hw.mailbox import Mailbox

#: CS->EMS->CS transport per primitive: dispatch, two mailbox transfers,
#: and the mean polling jitter.
TRANSPORT_CS_CYCLES = (EMCALL_DISPATCH_CYCLES + 2 * Mailbox.TRANSFER_CYCLES
                       + EMCALL_POLL_JITTER_CYCLES // 2)

_EMS_TO_CS = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ


def ems_instr_to_cs_cycles(instr: float, ems: CoreConfig) -> float:
    """EMS instructions -> CS-clock cycles of service latency."""
    return (instr / ems.sustained_ipc) * _EMS_TO_CS


def host_malloc_cycles(pages: int) -> int:
    """The Fig. 8a baseline: host ``malloc`` of ``pages`` pages."""
    return HOST_MALLOC_BASE_CYCLES + pages * HOST_MALLOC_PER_PAGE_CYCLES


def ealloc_cycles(pages: int, ems: CoreConfig) -> float:
    """Full CS-visible latency of one EALLOC of ``pages`` pages."""
    instr = EALLOC_BASE_INSTR + pages * EALLOC_PER_PAGE_INSTR
    return TRANSPORT_CS_CYCLES + ems_instr_to_cs_cycles(instr, ems)


def lifecycle_instr(image_pages: int, static_pages: int = 4) -> int:
    """EMS instructions of the whole-lifecycle primitive sequence."""
    return (PRIMITIVE_BASE_INSTR["ECREATE"] + 120 * static_pages
            + image_pages * (PRIMITIVE_BASE_INSTR["EADD"]
                             + PRIMITIVE_BASE_INSTR["EADD_PER_PAGE"])
            + PRIMITIVE_BASE_INSTR["EMEAS"]
            + PRIMITIVE_BASE_INSTR["EENTER"]
            + PRIMITIVE_BASE_INSTR["EEXIT"]
            + PRIMITIVE_BASE_INSTR["EDESTROY"] + 60 * image_pages)


def lifecycle_cycles(image_pages: int, ems: CoreConfig,
                     static_pages: int = 4) -> float:
    """CS cycles for the lifecycle primitives, transport included."""
    num_primitives = 6 + image_pages  # ECREATE..EDESTROY plus per-page EADDs
    return (num_primitives * TRANSPORT_CS_CYCLES
            + ems_instr_to_cs_cycles(
                lifecycle_instr(image_pages, static_pages), ems))


def emeas_hash_cycles(image_bytes: int, crypto: CryptoProfile) -> float:
    """CS cycles of the EMEAS measurement hash under a crypto profile."""
    engine = CryptoEngine(crypto)
    return engine.hash_cycles(image_bytes) * _EMS_TO_CS


def encryption_adder_cycles(dram_accesses: float,
                            adder_per_access: float) -> float:
    """Total extra cycles from memory encryption + integrity (Fig. 8b)."""
    return dram_accesses * adder_per_access


def bitmap_check_cycles(memory_accesses: float, dtlb_miss_rate: float,
                        serial_cycles: float) -> float:
    """Total extra cycles from PTW bitmap retrieval (Fig. 10)."""
    return memory_accesses * dtlb_miss_rate * serial_cycles
