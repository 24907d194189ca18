"""On-chip fabric and iHub (paper Sections III-A, III-D, V-C).

The iHub mediates between the CS cores and the HyperTEE IP and enforces:

* **Unidirectional isolation** — EMS masters may access the entire CS
  memory space and I/O; CS masters can never reach EMS-private memory or
  devices. At SoC boot, chip-initialization logic carves the physical
  address space into a CS region and an EMS-private region.
* **The mailboxes** — one per EMS shard, the only legitimate CS->EMS
  communication channel (:mod:`repro.hw.mailbox`).
* **The DMA whitelist** — register pairs (base, size, permission) per DMA
  device, exclusively configurable by the EMS; accesses outside a
  device's legal region are discarded (raise).
* **The engine configuration path** — KeyID programming reaches the
  memory encryption engine only through the iHub's EMS port.
"""

from __future__ import annotations

import dataclasses

from repro.common.types import AccessType, Permission
from repro.errors import DMAViolation, IsolationViolation


@dataclasses.dataclass(frozen=True)
class AddressPartition:
    """The boot-time split of physical memory (Section III-D, point 3)."""

    cs_base: int
    cs_size: int
    ems_base: int
    ems_size: int

    def in_cs(self, paddr: int, length: int = 1) -> bool:
        """Does [paddr, paddr+length) lie in the CS region?"""
        return self.cs_base <= paddr and paddr + length <= self.cs_base + self.cs_size

    def in_ems(self, paddr: int, length: int = 1) -> bool:
        """Does [paddr, paddr+length) lie in the EMS region?"""
        return self.ems_base <= paddr and paddr + length <= self.ems_base + self.ems_size


@dataclasses.dataclass(frozen=True)
class WhitelistEntry:
    """One DMA whitelist register pair (address, size, permission)."""

    base: int
    size: int
    perm: Permission

    def covers(self, paddr: int, length: int, access: AccessType) -> bool:
        """Does this register pair admit the access?"""
        inside = self.base <= paddr and paddr + length <= self.base + self.size
        return inside and self.perm.allows(access)


@dataclasses.dataclass
class FabricStats:
    cs_accesses: int = 0
    ems_accesses: int = 0
    isolation_blocks: int = 0
    dma_checks: int = 0
    dma_blocks: int = 0


class FabricProbe:
    """What an on-chip-fabric observer can see of EMS traffic.

    Ring/mesh interconnect attacks [84], [85] observe *that* traffic
    crossed a link, and when — never its contents or its originating
    task. The probe therefore exposes only an event count stream: the
    number of EMS-side fabric transactions in each observation window.
    Section VIII-C's argument is that this stream is useless because
    concurrent primitive service interleaves many tasks' accesses and
    the attacker can neither slow nor isolate a victim primitive.
    """

    def __init__(self) -> None:
        self._events = 0

    def record(self, count: int = 1) -> None:
        """The fabric crossed ``count`` EMS transactions."""
        self._events += count

    def window(self) -> int:
        """Read and reset the observation window's event count."""
        out, self._events = self._events, 0
        return out


class IHub:
    """The CS<->EMS bridge with its security checks."""

    def __init__(self, partition: AddressPartition) -> None:
        self.partition = partition
        self._dma_whitelist: dict[str, list[WhitelistEntry]] = {}
        self.stats = FabricStats()
        #: The interconnect observer's view of EMS traffic (Section VIII-C).
        self.probe = FabricProbe()

    # -- memory access checks ------------------------------------------------------

    def check_cs_access(self, paddr: int, length: int = 1) -> None:
        """Gate a CS-master access: EMS-private space is invisible.

        Raises :class:`IsolationViolation` when the CS touches the EMS
        region — this is the unidirectional-isolation half that protects
        management tasks from CS observation.
        """
        self.stats.cs_accesses += 1
        if self.partition.in_ems(paddr, length):
            self.stats.isolation_blocks += 1
            raise IsolationViolation(
                f"CS access to EMS-private address {paddr:#x}")

    def check_ems_access(self, paddr: int, length: int = 1) -> None:
        """Gate an EMS-master access: the whole space is reachable."""
        self.stats.ems_accesses += 1
        self.probe.record()
        # Unidirectional: no restriction for EMS masters.

    # -- DMA whitelist (Section V-C) --------------------------------------------------

    def configure_dma_whitelist(self, device_id: str,
                                entries: list[WhitelistEntry], *,
                                from_ems: bool) -> None:
        """Install the legal-region registers for one DMA device.

        The whitelist registers are control registers in the fabric,
        exclusively configurable by the EMS.
        """
        if not from_ems:
            raise IsolationViolation("DMA whitelist is configurable only by EMS")
        self._dma_whitelist[device_id] = list(entries)

    def clear_dma_whitelist(self, device_id: str, *, from_ems: bool) -> None:
        """Remove a device's legal region (EMS only)."""
        if not from_ems:
            raise IsolationViolation("DMA whitelist is configurable only by EMS")
        self._dma_whitelist.pop(device_id, None)

    def check_dma(self, device_id: str, paddr: int, length: int,
                  access: AccessType) -> None:
        """Validate one DMA transfer; out-of-region accesses are discarded."""
        self.stats.dma_checks += 1
        entries = self._dma_whitelist.get(device_id, [])
        if not any(entry.covers(paddr, length, access) for entry in entries):
            self.stats.dma_blocks += 1
            raise DMAViolation(
                f"DMA by {device_id!r} to [{paddr:#x}, {paddr + length:#x}) "
                f"({access.value}) outside its legal region")

    def dma_whitelist_for(self, device_id: str) -> list[WhitelistEntry]:
        """The device's current whitelist entries."""
        return list(self._dma_whitelist.get(device_id, []))
