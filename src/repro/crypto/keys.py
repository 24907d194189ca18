"""Root keys and the EMS key-derivation tree (paper Section VI).

All keys derive from two roots burnt into the EMS eFuse at manufacturing:

* **EK** (Endorsement Key) — issued by the certificate authority; signs
  platform measurements during remote attestation.
* **SK** (Sealed Key) — randomly generated per device; parent of enclave
  memory-encryption keys, attestation keys, report keys, sealing keys, and
  shared-memory keys.

Derivations are HKDF-style: ``HMAC-SHA3(parent, label || context)``. All
key material lives only inside EMS objects; nothing here is ever copied
into CS-visible memory by the model.
"""

from __future__ import annotations

import dataclasses

from repro.crypto.hashes import MacKey, keyed_mac

KEY_BYTES = 32


@dataclasses.dataclass(frozen=True)
class RootKeys:
    """The device root secrets as burnt into eFuse."""

    endorsement_key: bytes
    sealed_key: bytes

    @classmethod
    def generate(cls, rng_bytes) -> "RootKeys":
        """Manufacture-time generation from an entropy source callable."""
        return cls(endorsement_key=rng_bytes(KEY_BYTES), sealed_key=rng_bytes(KEY_BYTES))


class KeyDerivation:
    """Derives every purpose-specific key the EMS hands out.

    Each method mirrors one derivation the paper describes in Section VI
    ("Key management") and Section V-A (shared-memory keys).
    """

    def __init__(self, roots: RootKeys) -> None:
        self._sealed = MacKey(roots.sealed_key)
        self._endorsement = MacKey(roots.endorsement_key)

    def _derive(self, parent: MacKey, label: str, *context: bytes) -> bytes:
        data = label.encode()
        for item in context:
            data += len(item).to_bytes(4, "little") + item
        return keyed_mac(parent, data)

    # -- enclave memory encryption -----------------------------------------

    def enclave_memory_key(self, measurement: bytes) -> bytes:
        """Per-enclave memory encryption key: derived from SK + measurement."""
        return self._derive(self._sealed, "enclave-memory", measurement)

    def shared_memory_key(self, sender_enclave_id: int, shm_id: int) -> bytes:
        """Shared-region key from the initial sender EnclaveID and ShmID.

        The paper derives shared keys this way because participants are
        unpredictable and may join after creation (Section V-A).
        """
        ctx = sender_enclave_id.to_bytes(8, "little") + shm_id.to_bytes(8, "little")
        return self._derive(self._sealed, "shared-memory", ctx)

    # -- attestation ---------------------------------------------------------

    def attestation_key(self, salt: bytes) -> bytes:
        """AK = KDF(SK, random salt) — rotated by regenerating the salt."""
        return self._derive(self._sealed, "attestation", salt)

    def report_key(self, challenger_measurement: bytes) -> bytes:
        """Local-attestation report key, bound to the challenger identity.

        Derived from the challenger's measurement and SK so only the EMS of
        the same platform can produce or verify the report (Section VI,
        "Local attestation").
        """
        return self._derive(self._sealed, "report", challenger_measurement)

    # -- sealing --------------------------------------------------------------

    def sealing_key(self, measurement: bytes) -> bytes:
        """Sealing key bound to enclave measurement + device SK."""
        return self._derive(self._sealed, "sealing", measurement)

    # -- platform signing -------------------------------------------------------

    def platform_signing_key(self) -> bytes:
        """Key the EMS uses to sign platform measurements (stands for EK use)."""
        return self._derive(self._endorsement, "platform-sign")
