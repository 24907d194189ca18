"""Key manager: KeyID table, derivations, erasure, rotation, signers."""

from __future__ import annotations

import hashlib
import hmac

import pytest

from repro.common.rng import DeterministicRng
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.crypto.engine import CryptoEngine
from repro.ems.key_mgmt import KeyManager
from repro.errors import KeySlotExhausted
from repro.hw.devices import EFuse
from repro.hw.encryption_engine import MemoryEncryptionEngine


@pytest.fixture
def keys() -> KeyManager:
    fuse = EFuse()
    fuse.burn("EK", b"E" * 32)
    fuse.burn("SK", b"S" * 32)
    return KeyManager(fuse, MemoryEncryptionEngine(key_slots=4),
                      DeterministicRng(1))


def test_allocate_and_release(keys: KeyManager):
    keyid = keys.allocate_keyid(b"k" * 32)
    assert keyid in keys.live_keyids()
    keys.release_keyid(keyid)
    assert keyid not in keys.live_keyids()


def test_keyids_are_unique(keys: KeyManager):
    ids = {keys.allocate_keyid(bytes([i]) * 32) for i in range(3)}
    assert len(ids) == 3


def test_exhaustion_propagates(keys: KeyManager):
    for i in range(4):
        keys.allocate_keyid(bytes([i]) * 32)
    with pytest.raises(KeySlotExhausted):
        keys.allocate_keyid(b"x" * 32)


def test_reprogram_keeps_number(keys: KeyManager):
    keyid = keys.allocate_keyid(b"k" * 32)
    keys.release_keyid(keyid)
    keys.reprogram_keyid(keyid, b"k" * 32)
    assert keyid in keys.live_keyids()


def test_attestation_key_stable_until_rotated(keys: KeyManager):
    first = keys.attestation_key()
    assert keys.attestation_key() == first
    keys.rotate_attestation_key()
    assert keys.attestation_key() != first


def test_derivations_separated(keys: KeyManager):
    m = b"m" * 32
    assert keys.enclave_memory_key(m) != keys.sealing_key(m)
    assert keys.report_key(m) != keys.sealing_key(m)
    assert keys.shared_memory_key(1, 1) != keys.enclave_memory_key(m)


def test_platform_key_from_ek(keys: KeyManager):
    other_fuse = EFuse()
    other_fuse.burn("EK", b"X" * 32)
    other_fuse.burn("SK", b"S" * 32)
    other = KeyManager(other_fuse, MemoryEncryptionEngine(),
                       DeterministicRng(1))
    assert keys.platform_signing_key() != other.platform_signing_key()
    # SK-rooted keys unchanged when only EK differs.
    assert keys.sealing_key(b"m") == other.sealing_key(b"m")


# -- the long-lived signing keys, held with their HMAC state -----------------


@pytest.mark.parametrize("signer, key", (
    ("platform_signer", "platform_signing_key"),
    ("attestation_signer", "attestation_key")))
def test_signers_mac_exactly_as_hmac_sha3(keys: KeyManager, signer: str,
                                          key: str):
    raw = getattr(keys, key)()
    engine = CryptoEngine()
    # Empty, short, and longer-than-one-block messages; each twice, so a
    # signer state consumed by its first use would show.
    for data in (b"", b"enclave" + b"m" * 32, bytes(range(256)) * 3) * 2:
        signature, _ = engine.sign(getattr(keys, signer)(), data)
        assert signature == hmac.new(raw, data, hashlib.sha3_256).digest()


def _platform() -> HyperTEE:
    return HyperTEE(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


def test_rotation_rebuilds_the_attestation_signer():
    tee = _platform()
    keys = tee.system.keys
    enclave = tee.launch_enclave(b"rotating-enclave")
    ca_before = tee.system.certificate_authority()
    old_key, old_signer = keys.attestation_key(), keys.attestation_signer()
    keys.rotate_attestation_key()
    ca_after = tee.system.certificate_authority()
    with enclave.running():
        quote = enclave.attest(report_data=b"after rotation")
    assert ca_after.verify_quote(quote, enclave.measurement)
    assert not ca_before.verify_quote(quote, enclave.measurement)
    assert keys.attestation_signer() is not old_signer
    # Nothing the manager holds is the old AK or its state any more.
    assert not any(value is old_signer or value == old_key
                   for value in vars(keys).values())


def test_late_sanitizers_register_both_signing_keys_on_first_eattest():
    tee = _platform()
    enclave = tee.launch_enclave(b"late-sanitized")
    keys = tee.system.keys
    # Read before any sanitizer exists, so reading registers nothing.
    ak, pk = keys.attestation_key(), keys.platform_signing_key()
    tee.system.enable_sanitizers()
    registry = tee.system.san.registry
    assert registry.contains_secret(ak) is None
    assert registry.contains_secret(pk) is None
    with enclave.running():
        enclave.attest(report_data=b"first quote")
    assert registry.contains_secret(ak).label.startswith("attestation-key#")
    assert registry.contains_secret(pk).label.startswith(
        "platform-signing-key#")
