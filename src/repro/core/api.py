"""Public HyperTEE API — the SDK surface a downstream user programs against.

The facade mirrors the paper's programming model (Fig. 2): a HostApp
builds an enclave from code pages plus a configuration declaring resource
requirements, measures it, enters it, and communicates through EMS-managed
shared memory. Underneath, every operation travels the real path:
HostApp/enclave -> EMCall (privilege check, identity stamp) -> mailbox ->
EMS runtime -> response -> EMCall-applied CS actions.

Quickstart::

    from repro.core.api import HyperTEE
    from repro.core.enclave import EnclaveConfig

    tee = HyperTEE()
    enclave = tee.launch_enclave(b"my-enclave-code",
                                 EnclaveConfig(name="demo"))
    with enclave.running():
        vaddr = enclave.ealloc(4)
        enclave.write(vaddr, b"secret")
        assert enclave.read(vaddr, 6) == b"secret"
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator

from repro.common.constants import PAGE_SIZE
from repro.common.types import Permission, Primitive, Privilege
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.crypto.dh import DiffieHellman
from repro.cs.cpu import CSCore
from repro.cs.emcall import BatchInvokeResult, InvokeResult
from repro.ems.attestation import (
    AttestationQuote,
    Certificate,
    RemoteSession,
    dh_binding,
)
from repro.ems.sealing import SealedBlob
from repro.errors import HyperTEEError, PageFault


class APIError(HyperTEEError):
    """A primitive invoked through the API returned a failure status."""


def _page_chunks(code: bytes) -> list[bytes]:
    if not code:
        return [b"\0"]
    return [code[i:i + PAGE_SIZE] for i in range(0, len(code), PAGE_SIZE)]


@dataclasses.dataclass
class SharedRegion:
    """Handle to an EMS-managed shared-memory region."""

    shm_id: int
    pages: int
    owner: "Enclave"


class HyperTEE:
    """Top-level facade over one booted :class:`HyperTEESystem`."""

    def __init__(self, config: SystemConfig | None = None,
                 system: HyperTEESystem | None = None) -> None:
        self.system = system if system is not None else HyperTEESystem(config)
        #: CS cycles spent in primitive invocations through this facade.
        self.primitive_cycles = 0

    # -- invocation plumbing ------------------------------------------------------------

    def _invoke(self, primitive: Primitive, args: dict, core: CSCore,
                privilege: Privilege) -> InvokeResult:
        saved = core.privilege
        context_before = core.current_enclave_id
        core.privilege = privilege
        try:
            result = self.system.emcall.invoke(primitive, args, core=core)
        finally:
            # EENTER/ERESUME/EEXIT legitimately switch the core's context
            # (and with it the privilege register); only restore when the
            # primitive did not.
            if core.current_enclave_id == context_before:
                core.privilege = saved
        self.primitive_cycles += result.cs_cycles
        if result.response is None:
            # Degraded mode (EMS unreachable past the bounded retries):
            # surface the structured outcome as a typed API failure.
            raise APIError(
                f"{primitive.value} degraded after {result.attempts} "
                f"attempts: {result.reason}")
        if not result.ok:
            raise APIError(
                f"{primitive.value} failed: {result.response.status.value} "
                f"({result.response.result.get('error', '')})")
        return result

    def invoke_os(self, primitive: Primitive, args: dict,
                  core: CSCore | None = None) -> InvokeResult:
        """Invoke an OS-privilege primitive from the host context."""
        return self._invoke(primitive, args,
                            core or self.system.primary_core,
                            Privilege.SUPERVISOR)

    def invoke_user(self, primitive: Primitive, args: dict,
                    core: CSCore | None = None) -> InvokeResult:
        """Invoke a user-privilege primitive (HostApp or enclave)."""
        return self._invoke(primitive, args,
                            core or self.system.primary_core,
                            Privilege.USER)

    def _invoke_batch(self, calls: list[tuple[Primitive, dict]],
                      core: CSCore, privilege: Privilege) -> BatchInvokeResult:
        """Run N independent primitives through one mailbox transaction.

        All elements must share ``privilege`` (EMCall checks each), and
        context-switching primitives are rejected by the gate, so the
        privilege register is simply saved and restored around the batch.
        """
        saved = core.privilege
        core.privilege = privilege
        try:
            result = self.system.emcall.invoke_batch(calls, core=core)
        finally:
            core.privilege = saved
        self.primitive_cycles += result.cs_cycles
        if result.degraded:
            raise APIError(
                f"batch degraded after {result.attempts} attempts: "
                f"{result.reason}")
        if not result.ok:
            failures = [
                f"{calls[i][0].value}: {r.status.value} "
                f"({r.result.get('error', '')})"
                for i, r in enumerate(result.responses) if not r.ok]
            raise APIError("batch elements failed: " + "; ".join(failures))
        return result

    def invoke_os_batch(self, calls: list[tuple[Primitive, dict]],
                        core: CSCore | None = None) -> BatchInvokeResult:
        """Batch OS-privilege primitives (bulk EADD, bulk lifecycle)."""
        return self._invoke_batch(calls, core or self.system.primary_core,
                                  Privilege.SUPERVISOR)

    def invoke_user_batch(self, calls: list[tuple[Primitive, dict]],
                          core: CSCore | None = None) -> BatchInvokeResult:
        """Batch user-privilege primitives (bulk EALLOC/EFREE/ESHM*)."""
        return self._invoke_batch(calls, core or self.system.primary_core,
                                  Privilege.USER)

    # -- enclave lifecycle --------------------------------------------------------------------

    def launch_enclave(self, code: bytes,
                       config: EnclaveConfig | None = None,
                       core: CSCore | None = None) -> "Enclave":
        """ECREATE + EADD every code page + EMEAS, ready to enter."""
        chunks = _page_chunks(code)
        if config is None:
            config = EnclaveConfig(code_pages=len(chunks))
        core = core or self.system.primary_core
        created = self.invoke_os(Primitive.ECREATE, {"config": config}, core)
        enclave_id = created.result("enclave_id")
        for chunk in chunks:
            self.invoke_os(Primitive.EADD,
                           {"enclave_id": enclave_id, "content": chunk},
                           core)
        measured = self.invoke_os(Primitive.EMEAS,
                                  {"enclave_id": enclave_id}, core)
        return Enclave(self, enclave_id, config, core,
                       measured.result("measurement"))

    def launch_enclave_batched(self, code: bytes,
                               config: EnclaveConfig | None = None,
                               core: CSCore | None = None,
                               batch_size: int = 8) -> "Enclave":
        """:meth:`launch_enclave` with the EADD storm batched.

        ECREATE and EMEAS stay scalar (they order the lifecycle); the
        per-page EADDs — the bulk of a large image's round trips — travel
        ``batch_size`` to an envelope. The resulting enclave state and
        measurement are bit-identical to the scalar launch (pinned by
        tests/cs/test_batch_differential.py); only the modelled
        communication cycles shrink.
        """
        chunks = _page_chunks(code)
        if config is None:
            config = EnclaveConfig(code_pages=len(chunks))
        core = core or self.system.primary_core
        created = self.invoke_os(Primitive.ECREATE, {"config": config}, core)
        enclave_id = created.result("enclave_id")
        for start in range(0, len(chunks), batch_size):
            self.invoke_os_batch(
                [(Primitive.EADD,
                  {"enclave_id": enclave_id, "content": chunk})
                 for chunk in chunks[start:start + batch_size]],
                core)
        measured = self.invoke_os(Primitive.EMEAS,
                                  {"enclave_id": enclave_id}, core)
        return Enclave(self, enclave_id, config, core,
                       measured.result("measurement"))


class Enclave:
    """Handle to one launched enclave."""

    def __init__(self, tee: HyperTEE, enclave_id: int,
                 config: EnclaveConfig, core: CSCore,
                 measurement: bytes) -> None:
        self.tee = tee
        self.enclave_id = enclave_id
        self.config = config
        self.core = core
        self.measurement = measurement
        self._entered = False

    # -- execution context --------------------------------------------------------------------

    def enter(self) -> None:
        """EENTER: switch the core into this enclave's context."""
        self.tee.invoke_os(Primitive.EENTER,
                           {"enclave_id": self.enclave_id}, self.core)
        self._entered = True

    def exit(self) -> None:
        """EEXIT: leave the enclave, restore the host context."""
        self._require_entered()
        self.tee.invoke_user(Primitive.EEXIT, {}, self.core)
        self._entered = False

    def resume(self) -> None:
        """ERESUME after an exit or interrupt."""
        self.tee.invoke_os(Primitive.ERESUME,
                           {"enclave_id": self.enclave_id}, self.core)
        self._entered = True

    @contextlib.contextmanager
    def running(self) -> Iterator["Enclave"]:
        """Context manager: enter on the way in, exit on the way out."""
        self.enter()
        try:
            yield self
        finally:
            if self._entered:
                self.exit()

    def destroy(self) -> None:
        """EDESTROY: exit if needed, then tear the enclave down."""
        if self._entered:
            self.exit()
        self.tee.invoke_os(Primitive.EDESTROY,
                           {"enclave_id": self.enclave_id}, self.core)

    def _require_entered(self) -> None:
        if not self._entered:
            raise APIError("operation requires the enclave to be entered")

    # -- memory ---------------------------------------------------------------------------------

    def ealloc(self, pages: int, perm: Permission = Permission.RW) -> int:
        """Allocate heap pages; returns the enclave virtual address."""
        self._require_entered()
        result = self.tee.invoke_user(
            Primitive.EALLOC, {"pages": pages, "perm": perm}, self.core)
        return result.result("vaddr")

    def efree(self, vaddr: int) -> None:
        """Release a heap region back to the enclave memory pool."""
        self._require_entered()
        self.tee.invoke_user(Primitive.EFREE, {"vaddr": vaddr}, self.core)

    def ealloc_many(self, page_counts: list[int],
                    perm: Permission = Permission.RW) -> list[int]:
        """N independent EALLOCs in one mailbox transaction.

        Returns one virtual address per entry of ``page_counts`` — the
        same regions N scalar :meth:`ealloc` calls would produce, for one
        doorbell and one fabric crossing per direction. Any bitmap-change
        TLB shootdowns the allocations trigger are coalesced into a
        single cross-core flush.
        """
        self._require_entered()
        result = self.tee.invoke_user_batch(
            [(Primitive.EALLOC, {"pages": pages, "perm": perm})
             for pages in page_counts],
            self.core)
        return [r.result["vaddr"] for r in result.responses]

    def efree_many(self, vaddrs: list[int]) -> None:
        """Release N heap regions through one batched transaction."""
        self._require_entered()
        self.tee.invoke_user_batch(
            [(Primitive.EFREE, {"vaddr": vaddr}) for vaddr in vaddrs],
            self.core)

    def _with_fault_retry(self, op, vaddr: int, *args):
        try:
            return op(vaddr, *args)
        except PageFault:
            # EMCall routes in-enclave page faults to the EMS (demand
            # allocation inside the declared heap budget), then retries.
            serviced = self.tee.system.emcall.handle_enclave_page_fault(
                self.core, vaddr)
            if not serviced.ok:
                raise APIError(
                    f"unserviceable fault at {vaddr:#x}: "
                    f"{serviced.response.result.get('error', '')}") from None
            return op(vaddr, *args)

    def read(self, vaddr: int, length: int) -> bytes:
        """Load enclave memory as the enclave (through the real PTW path)."""
        self._require_entered()
        return self._with_fault_retry(self.core.load, vaddr, length)

    def write(self, vaddr: int, data: bytes) -> None:
        """Store to enclave memory as the enclave."""
        self._require_entered()
        self._with_fault_retry(self.core.store, vaddr, data)

    # -- shared memory (Section V flows) ------------------------------------------------------------

    def create_shared_region(self, pages: int,
                             max_perm: Permission = Permission.RW) -> SharedRegion:
        """ESHMGET: create an EMS-managed shared region."""
        self._require_entered()
        result = self.tee.invoke_user(
            Primitive.ESHMGET, {"pages": pages, "max_perm": max_perm},
            self.core)
        return SharedRegion(shm_id=result.result("shm_id"), pages=pages,
                            owner=self)

    def share_with(self, region: SharedRegion, receiver: "Enclave",
                   perm: Permission) -> None:
        """Register ``receiver`` on the region's legal connection list."""
        self._require_entered()
        self.tee.invoke_user(
            Primitive.ESHMSHR,
            {"shm_id": region.shm_id, "receiver_id": receiver.enclave_id,
             "perm": perm},
            self.core)

    def attach(self, region: SharedRegion) -> int:
        """Map the region; returns the attach virtual address."""
        self._require_entered()
        result = self.tee.invoke_user(
            Primitive.ESHMAT, {"shm_id": region.shm_id}, self.core)
        return result.result("vaddr")

    def detach(self, region: SharedRegion) -> None:
        """ESHMDT: unmap the region from this enclave."""
        self._require_entered()
        self.tee.invoke_user(Primitive.ESHMDT,
                             {"shm_id": region.shm_id}, self.core)

    def destroy_region(self, region: SharedRegion) -> None:
        """ESHMDES: destroy the region (initial sender only)."""
        self._require_entered()
        self.tee.invoke_user(Primitive.ESHMDES,
                             {"shm_id": region.shm_id}, self.core)

    def grant_device(self, region: SharedRegion, device_id: str,
                     perm: Permission = Permission.RW) -> None:
        """Driver-enclave flow: whitelist a DMA device onto the region."""
        self._require_entered()
        self.tee.invoke_user(
            Primitive.ESHMSHR,
            {"shm_id": region.shm_id, "device_id": device_id, "perm": perm},
            self.core)

    # -- attestation and sealing ----------------------------------------------------------------------

    def attest(self, report_data: bytes = b"") -> AttestationQuote:
        """EATTEST: obtain the platform + enclave certificates."""
        self._require_entered()
        result = self.tee.invoke_user(
            Primitive.EATTEST, {"mode": "quote", "report_data": report_data},
            self.core)
        return result.result("quote")

    def remote_attest(self, session: RemoteSession) -> bytes:
        """Run the full SIGMA-style flow against a remote user session.

        Returns the negotiated session key (identical on both sides).
        """
        self._require_entered()
        user_public = session.challenge(
            lambda n: self.tee.system.rng.randbytes(n, stream="remote-user"))
        enclave_dh = DiffieHellman.from_entropy(
            lambda n: self.tee.system.rng.randbytes(n, stream=f"encl{self.enclave_id}"))
        quote = self.attest(report_data=dh_binding(enclave_dh.public))
        session.complete(enclave_dh.public, quote)
        return enclave_dh.shared_key(user_public)

    def local_report_for(self, challenger_measurement: bytes) -> Certificate:
        """Verifier side of local attestation (step 2)."""
        self._require_entered()
        result = self.tee.invoke_user(
            Primitive.EATTEST,
            {"mode": "local_report",
             "challenger_measurement": challenger_measurement},
            self.core)
        return result.result("certificate")

    def local_verify(self, certificate: Certificate) -> bytes:
        """Challenger side of local attestation (step 3).

        Returns the verified peer measurement.
        """
        self._require_entered()
        result = self.tee.invoke_user(
            Primitive.EATTEST,
            {"mode": "local_verify", "certificate": certificate},
            self.core)
        return result.result("peer_measurement")

    def seal(self, data: bytes) -> SealedBlob:
        """Seal data to this enclave's identity on this device."""
        return self.tee.system.sealing.seal(self.measurement, data)

    def unseal(self, blob: SealedBlob) -> bytes:
        """Authenticate and decrypt a blob sealed by this identity."""
        return self.tee.system.sealing.unseal(self.measurement, blob)


def local_attest(challenger: Enclave, verifier: Enclave) -> bytes:
    """Full local-attestation handshake between two enclaves.

    Follows the paper's three steps sequentially (the measurement and
    certificate travel through untrusted host memory, which is safe — they
    are public; unforgeability comes from the EMS-held report key).
    Returns the verifier's measurement as seen by the challenger.
    """
    with verifier.running():
        certificate = verifier.local_report_for(challenger.measurement)
    with challenger.running():
        return challenger.local_verify(certificate)
