"""EMS key management (paper Section VI).

All keys derive from the eFuse roots (EK, SK) and never leave the EMS.
This manager owns:

* KeyID allocation and programming of the memory encryption engine
  (through the iHub EMS port — the only path the engine accepts);
* derivation of enclave memory keys, shared-memory keys, attestation
  keys (SK + random salt), report keys, and sealing keys;
* erasure: retired keys are overwritten with random values.

The two long-lived signing keys — the EK-derived platform key and the
AK — are derived once and held with their HMAC state (a
:class:`~repro.crypto.hashes.MacKey`), so EATTEST signs without
re-deriving or re-keying. Report and sealing keys stay one-off.
"""

from __future__ import annotations

import itertools

from repro.common.rng import DeterministicRng
from repro.crypto.hashes import MacKey
from repro.crypto.keys import KeyDerivation, RootKeys
from repro.hw.devices import EFuse
from repro.hw.encryption_engine import MemoryEncryptionEngine


class KeyManager:
    """Root-key custody and the KeyID table."""

    def __init__(self, efuse: EFuse, engine: MemoryEncryptionEngine,
                 rng: DeterministicRng) -> None:
        roots = RootKeys(
            endorsement_key=efuse.read("EK"),
            sealed_key=efuse.read("SK"),
        )
        self._kdf = KeyDerivation(roots)
        self._engine = engine
        self._rng = rng
        self._keyid_counter = itertools.count(1)
        #: keyid -> key, for erase-on-release. EMS-private state.
        self._live_keys: dict[int, bytes] = {}
        self._platform_key = self._kdf.platform_signing_key()
        self._platform_signer = MacKey(self._platform_key)
        self._attestation_salt = rng.randbytes(16, stream="ak-salt")
        self._install_attestation_key()
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        #: Every key this manager mints or installs is registered as
        #: taint at the moment it exists — the SECRET sanitizer's source.
        self.san = None

    # -- KeyID lifecycle --------------------------------------------------------------

    def allocate_keyid(self, key: bytes) -> int:
        """Assign a fresh KeyID and program the engine with ``key``.

        Propagates :class:`~repro.errors.KeySlotExhausted` when the engine
        table is full; the lifecycle manager resolves that by suspending
        an enclave and retrying (Section IV-C).
        """
        keyid = next(self._keyid_counter)
        self._engine.program_key(keyid, key, from_ems=True)
        self._live_keys[keyid] = key
        if self.san is not None:
            self.san.register_secret(key, f"memkey-slot{keyid}")
        return keyid

    def reprogram_keyid(self, keyid: int, key: bytes) -> None:
        """Re-install a previously released KeyID with the same number.

        Enclave PTEs embed the KeyID (Section IV-C), so a suspended
        enclave must get its *own* slot number back on resume.
        """
        self._engine.program_key(keyid, key, from_ems=True)
        self._live_keys[keyid] = key
        if self.san is not None:
            self.san.register_secret(key, f"memkey-slot{keyid}")

    def release_keyid(self, keyid: int) -> None:
        """Release a slot, erasing the key with random bytes first."""
        if keyid in self._live_keys:
            self._live_keys[keyid] = self._rng.randbytes(32, stream="key-erase")
            del self._live_keys[keyid]
        self._engine.release_key(keyid, from_ems=True)

    def live_keyids(self) -> list[int]:
        """KeyIDs currently programmed in the engine."""
        return list(self._live_keys)

    # -- derivations -------------------------------------------------------------------

    def _minted(self, value: bytes, label: str) -> bytes:
        """Register a fresh derivation with the sanitizer, if attached."""
        if self.san is not None:
            self.san.register_secret(value, label)
        return value

    def enclave_memory_key(self, measurement_seed: bytes) -> bytes:
        """Per-enclave memory key from SK + measurement seed."""
        return self._minted(self._kdf.enclave_memory_key(measurement_seed),
                            "enclave-memory-key")

    def shared_memory_key(self, sender_enclave_id: int, shm_id: int) -> bytes:
        """Shared-region key from (sender EnclaveID, ShmID)."""
        return self._minted(
            self._kdf.shared_memory_key(sender_enclave_id, shm_id),
            f"shared-memory-key-shm{shm_id}")

    def _install_attestation_key(self) -> None:
        """Derive the AK of the live salt and build its HMAC state."""
        self._attestation_key = self._kdf.attestation_key(
            self._attestation_salt)
        self._attestation_signer = MacKey(self._attestation_key)

    def attestation_key(self) -> bytes:
        """The current AK (SK + the live salt)."""
        return self._minted(self._attestation_key, "attestation-key")

    def attestation_signer(self) -> MacKey:
        """The current AK's HMAC state, built once per salt."""
        self.attestation_key()
        return self._attestation_signer

    def rotate_attestation_key(self) -> None:
        """Draw a fresh salt; prior AK becomes unreproducible."""
        self._attestation_salt = self._rng.randbytes(16, stream="ak-salt")
        self._install_attestation_key()

    def report_key(self, challenger_measurement: bytes) -> bytes:
        """Local-attestation report key bound to the challenger."""
        return self._minted(self._kdf.report_key(challenger_measurement),
                            "report-key")

    def sealing_key(self, measurement: bytes) -> bytes:
        """Sealing key bound to (measurement, device SK)."""
        return self._minted(self._kdf.sealing_key(measurement),
                            "sealing-key")

    def platform_signing_key(self) -> bytes:
        """EK-derived key signing platform measurements."""
        return self._minted(self._platform_key, "platform-signing-key")

    def platform_signer(self) -> MacKey:
        """The platform-signing key's HMAC state, built once at boot."""
        self.platform_signing_key()
        return self._platform_signer
