"""The HostApp SDK (paper Fig. 2 programming model).

A :class:`HostApp` is the untrusted application that manages an enclave's
environment: it compiles-and-launches the enclave (ECREATE/EADD/EMEAS
through the facade), and moves data in and out through the declared
transfer buffer — the host-visible shared region of Section IV-A. Remote
users send *encrypted* payloads to the HostApp, which places them in the
buffer; the enclave decrypts inside (with a key from attestation), so the
HostApp never sees plaintext secrets.
"""

from __future__ import annotations

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.core.api import Enclave, HyperTEE
from repro.core.enclave import HOST_SHM_BASE_VPN, EnclaveConfig
from repro.common.types import Permission
from repro.cs.os import HostProcess
from repro.errors import ConfigurationError

#: Where the transfer buffer appears in the HostApp's address space.
HOSTAPP_BUFFER_VPN = 0x2000


class HostApp:
    """One untrusted host application and its enclave."""

    def __init__(self, tee: HyperTEE, name: str) -> None:
        self.tee = tee
        self.name = name
        self.process: HostProcess = tee.system.os.create_process(name)
        self.enclave: Enclave | None = None
        self._buffer_pages = 0

    # -- lifecycle ---------------------------------------------------------------------

    def launch(self, code: bytes, config: EnclaveConfig) -> Enclave:
        """Launch the enclave and map the declared transfer buffer."""
        if config.host_shared_pages < 1:
            raise ConfigurationError(
                "HostApp.launch needs host_shared_pages >= 1 in the "
                "enclave configuration (the Fig. 2 config file)")
        self.enclave = self.tee.launch_enclave(code, config)
        enclave_id = self.enclave.enclave_id
        control = self.tee.system.enclaves_of(enclave_id).enclaves[enclave_id]
        for offset, frame in enumerate(control.host_shared_frames):
            self.process.table.map(HOSTAPP_BUFFER_VPN + offset, frame,
                                   Permission.RW)
        self._buffer_pages = config.host_shared_pages
        return self.enclave

    # -- the transfer buffer, host side -----------------------------------------------------

    @property
    def buffer_vaddr(self) -> int:
        return HOSTAPP_BUFFER_VPN << PAGE_SHIFT

    @property
    def buffer_bytes(self) -> int:
        return self._buffer_pages * PAGE_SIZE

    def _host_core(self):
        core = self.tee.system.primary_core
        core.set_host_context(self.process.table)
        return core

    def write_buffer(self, offset: int, data: bytes) -> None:
        """HostApp stores into the transfer buffer (its own mapping)."""
        self._check_range(offset, len(data))
        self._host_core().store(self.buffer_vaddr + offset, data)

    def read_buffer(self, offset: int, length: int) -> bytes:
        """HostApp loads from the transfer buffer (its own mapping)."""
        self._check_range(offset, length)
        return self._host_core().load(self.buffer_vaddr + offset, length)

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or offset + length > self.buffer_bytes:
            raise ValueError("access beyond the declared transfer buffer")

    # -- the transfer buffer, enclave side ---------------------------------------------------------

    @staticmethod
    def enclave_buffer_vaddr(offset: int = 0) -> int:
        """Where the same buffer appears inside the enclave."""
        return (HOST_SHM_BASE_VPN << PAGE_SHIFT) + offset

    def send(self, data: bytes, offset: int = 0) -> int:
        """HostApp -> enclave: place data, return the enclave-side vaddr."""
        self.write_buffer(offset, data)
        return self.enclave_buffer_vaddr(offset)

    def receive(self, length: int, offset: int = 0) -> bytes:
        """Enclave -> HostApp: collect what the enclave left behind."""
        return self.read_buffer(offset, length)
