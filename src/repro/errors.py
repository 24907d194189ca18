"""Exception hierarchy for the HyperTEE model.

Every fault the modelled hardware or the EMS runtime can raise derives from
:class:`HyperTEEError`, so callers can catch the whole family, while tests
can assert on precise failure modes (e.g. a bitmap violation versus an
ownership conflict).
"""

from __future__ import annotations


class HyperTEEError(Exception):
    """Base class for all errors raised by the HyperTEE model."""


class ConfigurationError(HyperTEEError):
    """A system or enclave configuration is inconsistent or unsupported."""


# --------------------------------------------------------------------------
# Hardware-level faults
# --------------------------------------------------------------------------

class HardwareFault(HyperTEEError):
    """Base class for faults raised by modelled hardware components."""


class PhysicalAddressError(HardwareFault):
    """A physical address is outside the installed memory."""


class BitmapViolation(HardwareFault):
    """A non-enclave access targeted a page marked as enclave memory.

    Raised by the page-table walker's bitmap checking logic (paper Fig. 5).
    """


class PageFault(HardwareFault):
    """A virtual address has no valid mapping in the active page table."""

    def __init__(self, vaddr: int, message: str = "") -> None:
        super().__init__(message or f"page fault at vaddr {vaddr:#x}")
        self.vaddr = vaddr


class AccessPermissionError(HardwareFault):
    """A mapping exists but forbids the attempted access type."""


class IntegrityViolation(HardwareFault):
    """A memory block's MAC did not verify (physical tampering detected)."""


class DMAViolation(HardwareFault):
    """A DMA access fell outside the whitelisted region for the device."""


class IsolationViolation(HardwareFault):
    """CS-side hardware or software touched an EMS-private resource.

    The iHub enforces unidirectional isolation: EMS may reach CS resources,
    never the reverse (paper Section III-A).
    """


class KeySlotExhausted(HardwareFault):
    """The memory encryption engine has no free KeyID slot."""


# --------------------------------------------------------------------------
# EMCall / mailbox faults
# --------------------------------------------------------------------------

class EMCallError(HyperTEEError):
    """Base class for faults raised by the trusted call gate."""


class PrivilegeViolation(EMCallError):
    """A primitive was invoked from the wrong privilege level."""


class MailboxError(EMCallError):
    """Malformed traffic on the mailbox (unknown request id, replay, ...)."""


class EMCallTimeout(EMCallError):
    """No response arrived within the per-primitive poll deadline.

    Raised after EMCall exhausts its bounded retries; carries enough
    context for the caller (or a degraded-mode wrapper) to account for
    the wasted cycles and decide what to do next.
    """

    def __init__(self, primitive: str, attempts: int, deadline_polls: int,
                 waited_cycles: int) -> None:
        super().__init__(
            f"{primitive}: no response after {attempts} attempt(s) of "
            f"{deadline_polls} polls each ({waited_cycles} CS cycles waited)")
        self.primitive = primitive
        self.attempts = attempts
        self.deadline_polls = deadline_polls
        self.waited_cycles = waited_cycles


# --------------------------------------------------------------------------
# EMS runtime faults (returned to CS as failed primitive responses)
# --------------------------------------------------------------------------

class EMSError(HyperTEEError):
    """Base class for failures detected inside the EMS runtime."""


class SanityCheckError(EMSError):
    """A primitive request failed the EMS argument sanity check."""


class EnclaveStateError(EMSError):
    """A primitive is illegal in the enclave's current lifecycle state."""


class OwnershipError(EMSError):
    """A physical page is already owned by a different enclave or region."""


class OutOfEnclaveMemory(EMSError):
    """The enclave memory pool could not satisfy an allocation."""


class SharedMemoryError(EMSError):
    """Generic shared-memory management failure."""


class ConnectionNotAuthorized(SharedMemoryError):
    """An enclave tried to attach a region it was never granted (§V-A)."""


class NotRegionOwner(SharedMemoryError):
    """Only the initial sender enclave may perform this operation (§V-C)."""


class ActiveConnectionsRemain(SharedMemoryError):
    """A region cannot be destroyed while attachments are active (§V-C)."""


class ShardError(EMSError):
    """A multi-EMS shard-pool operation is invalid (bad shard index,
    enclave not resident on the addressed shard, transfer misuse)."""


class TransferInterrupted(ShardError):
    """A cross-shard ownership transfer aborted between prepare and
    commit; no state moved, and the transfer may be retried."""


# --------------------------------------------------------------------------
# Fault injection (the chaos harness itself, not the modelled hardware)
# --------------------------------------------------------------------------

class FaultConfigError(ConfigurationError):
    """A FaultPlan names an unknown point or carries invalid parameters."""


# --------------------------------------------------------------------------
# Attestation / boot faults
# --------------------------------------------------------------------------

class AttestationError(HyperTEEError):
    """A measurement or certificate failed verification."""


class SecureBootError(HyperTEEError):
    """A boot-chain stage's hash did not match its golden value."""


class SealingError(HyperTEEError):
    """Sealed data failed authentication on unseal."""
