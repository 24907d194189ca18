"""EMS-private storage devices and DMA peripherals.

EMS side (paper Fig. 4, Section VI "Secure boot"):

* :class:`EFuse` — one-time-programmable root-key storage.
* :class:`PrivateFlash` — holds the encrypted EMS Runtime image.
* :class:`EEPROM` — golden hashes for the boot chain.
* BootROM behaviour lives in :mod:`repro.ems.boot`.

CS side peripherals used by the communication evaluation (Section VII-D):

* :class:`DMAEngine` — a master that moves bytes through the iHub's DMA
  whitelist check.
* :class:`GemminiAccelerator` — a Gemmini-like DNN accelerator: consumes
  weights/activations from shared memory via DMA, with a throughput model
  for the Fig. 12 scenario.
* :class:`NICController` — a NIC moving packet buffers via DMA.
"""

from __future__ import annotations

import dataclasses

from repro.common.constants import HOST_KEYID
from repro.common.types import AccessType
from repro.errors import HardwareFault
from repro.hw.fabric import IHub
from repro.hw.memory import PhysicalMemory


class EFuse:
    """One-time-programmable storage for EK/SK (Section VI)."""

    def __init__(self) -> None:
        self._bits: dict[str, bytes] = {}
        self._locked = False

    def burn(self, name: str, value: bytes) -> None:
        """Program a field once, at manufacturing. Re-burning faults."""
        if self._locked:
            raise HardwareFault("eFuse array is locked")
        if name in self._bits:
            raise HardwareFault(f"eFuse field {name!r} already burnt")
        self._bits[name] = bytes(value)

    def lock(self) -> None:
        """End of manufacturing: no further programming possible."""
        self._locked = True

    def read(self, name: str) -> bytes:
        """Read a programmed field; unprogrammed fields fault."""
        try:
            return self._bits[name]
        except KeyError:
            raise HardwareFault(f"eFuse field {name!r} not programmed") from None


class PrivateFlash:
    """EMS-private flash holding the encrypted runtime image."""

    def __init__(self) -> None:
        self._images: dict[str, bytes] = {}

    def store(self, name: str, blob: bytes) -> None:
        """Store an (encrypted) image blob."""
        self._images[name] = bytes(blob)

    def load(self, name: str) -> bytes:
        """Load a stored image blob."""
        try:
            return self._images[name]
        except KeyError:
            raise HardwareFault(f"no image {name!r} in flash") from None

    def tamper(self, name: str, offset: int, new_byte: int) -> None:
        """Physically corrupt one byte (attack-model helper for boot tests)."""
        blob = bytearray(self.load(name))
        blob[offset] = new_byte
        self._images[name] = bytes(blob)


class EEPROM:
    """On-chip EEPROM holding golden boot-chain hashes."""

    def __init__(self) -> None:
        self._values: dict[str, bytes] = {}

    def write(self, name: str, value: bytes) -> None:
        """Record a golden value."""
        self._values[name] = bytes(value)

    def read(self, name: str) -> bytes:
        """Read a golden value; missing fields fault."""
        try:
            return self._values[name]
        except KeyError:
            raise HardwareFault(f"EEPROM field {name!r} missing") from None


@dataclasses.dataclass
class DMAStats:
    transfers: int = 0
    bytes_moved: int = 0
    blocked: int = 0


class DMAEngine:
    """A DMA master whose every access crosses the iHub whitelist check.

    ``keyid`` is the KeyID the device's accesses carry on the bus; for
    enclave-shared regions the driver enclave arranges (via EMS) that the
    whitelisted region's data is accessible to the device.
    """

    def __init__(self, device_id: str, ihub: IHub, memory: PhysicalMemory) -> None:
        self.device_id = device_id
        self.ihub = ihub
        self.memory = memory
        self.stats = DMAStats()

    def read(self, paddr: int, length: int, keyid: int = HOST_KEYID) -> bytes:
        """DMA read through the iHub whitelist check."""
        self.ihub.check_dma(self.device_id, paddr, length, AccessType.READ)
        self.stats.transfers += 1
        self.stats.bytes_moved += length
        return self.memory.read(paddr, length, keyid)

    def write(self, paddr: int, data: bytes, keyid: int = HOST_KEYID) -> None:
        """DMA write through the iHub whitelist check."""
        self.ihub.check_dma(self.device_id, paddr, len(data), AccessType.WRITE)
        self.stats.transfers += 1
        self.stats.bytes_moved += len(data)
        self.memory.write(paddr, data, keyid)


@dataclasses.dataclass(frozen=True)
class AcceleratorSpec:
    """Gemmini-like systolic-array throughput (paper Table III)."""

    pe_rows: int = 16
    pe_cols: int = 16
    freq_hz: float = 750e6

    @property
    def macs_per_second(self) -> float:
        return self.pe_rows * self.pe_cols * self.freq_hz


class GemminiAccelerator:
    """A DNN accelerator fed through DMA from (shared) memory.

    The Fig. 12 evaluation only needs compute time and data volume:
    ``compute_seconds`` converts a layer's MAC count through the systolic
    array model; data movement happens through :class:`DMAEngine` so the
    whitelist is genuinely on the path.
    """

    def __init__(self, dma: DMAEngine, spec: AcceleratorSpec | None = None,
                 utilization: float = 0.55) -> None:
        self.dma = dma
        self.spec = spec if spec is not None else AcceleratorSpec()
        self.utilization = utilization

    def compute_seconds(self, macs: float) -> float:
        """Wall time to execute ``macs`` multiply-accumulates."""
        return macs / (self.spec.macs_per_second * self.utilization)

    def run_layer(self, input_paddr: int, input_bytes: int,
                  output_paddr: int, output_bytes: int,
                  macs: float, keyid: int = HOST_KEYID) -> float:
        """Fetch inputs, compute, store outputs. Returns compute seconds."""
        self.dma.read(input_paddr, input_bytes, keyid)
        seconds = self.compute_seconds(macs)
        self.dma.write(output_paddr, bytes(output_bytes), keyid)
        return seconds


class NICController:
    """A NIC moving packet buffers by DMA (Fig. 12 scenario 2)."""

    def __init__(self, dma: DMAEngine, line_rate_gbps: float = 10.0) -> None:
        self.dma = dma
        self.line_rate_bytes_per_sec = line_rate_gbps * 1e9 / 8

    def wire_seconds(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` at line rate."""
        return nbytes / self.line_rate_bytes_per_sec

    def transmit(self, paddr: int, length: int, keyid: int = HOST_KEYID) -> float:
        """DMA a TX buffer out; returns wire time."""
        self.dma.read(paddr, length, keyid)
        return self.wire_seconds(length)

    def receive(self, paddr: int, payload: bytes, keyid: int = HOST_KEYID) -> float:
        """DMA an RX buffer in; returns wire time."""
        self.dma.write(paddr, payload, keyid)
        return self.wire_seconds(len(payload))
