"""IOMMU with EMS-managed translation tables (paper Sections V-B and IX).

The FPGA prototype had no IOMMU, so the paper whitelists contiguous DMA
ranges; for IOMMU-backed peripherals (GPUs above all) it prescribes that
*the EMS manages the IOMMU*: register configuration, IOTLB invalidation,
and maintenance of the address-translation tables that record which
memory a device may reach. This module implements that design:

* per-device IOVA -> physical translation tables, writable only through
  the EMS port (``from_ems=True``), like every other EMS-owned resource;
* a per-device IOTLB whose entries the EMS invalidates on unmap — a
  stale-entry test mirrors the CS-side TLB shootdown discipline;
* translation faults for unmapped IOVAs and permission violations, so a
  compromised device simply cannot address enclave memory that was never
  granted to it.
"""

from __future__ import annotations

import dataclasses

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.types import AccessType, Permission
from repro.errors import DMAViolation, IsolationViolation


@dataclasses.dataclass(frozen=True)
class IOMMUEntry:
    frame: int
    perm: Permission
    keyid: int


@dataclasses.dataclass
class IOMMUStats:
    translations: int = 0
    iotlb_hits: int = 0
    faults: int = 0
    invalidations: int = 0


class IOMMU:
    """One IOMMU instance shared by the SoC's IOMMU-backed devices."""

    def __init__(self, iotlb_entries: int = 32) -> None:
        #: device id -> {iovn: IOMMUEntry} — the translation tables.
        self._tables: dict[str, dict[int, IOMMUEntry]] = {}
        #: device id -> {iovn: IOMMUEntry} — the IOTLB (cached subset).
        self._iotlb: dict[str, dict[int, IOMMUEntry]] = {}
        self._iotlb_entries = iotlb_entries
        self.stats = IOMMUStats()

    # -- EMS-only management ----------------------------------------------------------

    def map(self, device_id: str, iovn: int, frame: int, perm: Permission,
            keyid: int, *, from_ems: bool) -> None:
        """Install one IOVA-page -> frame mapping for a device."""
        if not from_ems:
            raise IsolationViolation("IOMMU tables are managed only by EMS")
        self._tables.setdefault(device_id, {})[iovn] = IOMMUEntry(
            frame=frame, perm=perm, keyid=keyid)

    def unmap(self, device_id: str, iovn: int, *, from_ems: bool) -> None:
        """Remove a mapping and invalidate the matching IOTLB entry."""
        if not from_ems:
            raise IsolationViolation("IOMMU tables are managed only by EMS")
        self._tables.get(device_id, {}).pop(iovn, None)
        self.invalidate_iotlb(device_id, iovn, from_ems=True)

    def invalidate_iotlb(self, device_id: str, iovn: int | None = None, *,
                         from_ems: bool) -> None:
        """IOTLB shootdown: one entry, or the device's whole cache."""
        if not from_ems:
            raise IsolationViolation("IOTLB invalidation is EMS-only")
        self.stats.invalidations += 1
        if iovn is None:
            self._iotlb.pop(device_id, None)
        else:
            self._iotlb.get(device_id, {}).pop(iovn, None)

    def clear_device(self, device_id: str, *, from_ems: bool) -> None:
        """Drop a device's whole table + IOTLB (EMS only)."""
        if not from_ems:
            raise IsolationViolation("IOMMU tables are managed only by EMS")
        self._tables.pop(device_id, None)
        self._iotlb.pop(device_id, None)

    # -- the translation path (what device DMA traverses) -----------------------------------

    def translate(self, device_id: str, iova: int,
                  access: AccessType) -> tuple[int, int]:
        """Translate a device access; returns (paddr, keyid).

        Raises :class:`DMAViolation` on unmapped IOVAs or insufficient
        permission — the device-side equivalent of a blocked access.
        """
        self.stats.translations += 1
        iovn, offset = iova >> PAGE_SHIFT, iova & (PAGE_SIZE - 1)

        cached = self._iotlb.get(device_id, {}).get(iovn)
        if cached is not None:
            self.stats.iotlb_hits += 1
            entry = cached
        else:
            entry = self._tables.get(device_id, {}).get(iovn)
            if entry is None:
                self.stats.faults += 1
                raise DMAViolation(
                    f"IOMMU fault: {device_id!r} has no mapping for "
                    f"IOVA {iova:#x}")
            iotlb = self._iotlb.setdefault(device_id, {})
            if len(iotlb) >= self._iotlb_entries:
                iotlb.pop(next(iter(iotlb)))
            iotlb[iovn] = entry

        if not entry.perm.allows(access):
            self.stats.faults += 1
            raise DMAViolation(
                f"IOMMU: {access.value} not permitted at IOVA {iova:#x} "
                f"for {device_id!r}")
        return (entry.frame << PAGE_SHIFT) | offset, entry.keyid


class IOMMUDevice:
    """A DMA master (e.g. a GPU) whose accesses go through the IOMMU."""

    def __init__(self, device_id: str, iommu: IOMMU, memory) -> None:
        self.device_id = device_id
        self.iommu = iommu
        self.memory = memory

    def read(self, iova: int, length: int) -> bytes:
        """Device read through IOMMU translation."""
        paddr, keyid = self.iommu.translate(self.device_id, iova,
                                            AccessType.READ)
        return self.memory.read(paddr, length, keyid)

    def write(self, iova: int, data: bytes) -> None:
        """Device write through IOMMU translation."""
        paddr, keyid = self.iommu.translate(self.device_id, iova,
                                            AccessType.WRITE)
        self.memory.write(paddr, data, keyid)
