"""Crypto engine model: functional ops plus a calibrated latency model.

The EMS deploys a hardware crypto engine (paper Fig. 4, Table III:
AES 1.24 Gbps, SHA-256 16.1 Gbps, RSA sign 123 ops/s, verify 10K ops/s)
to accelerate measurement, attestation, and memory-swap encryption. The
evaluation's Table IV is precisely the ablation of this engine: without
it, enclave primitives cost 10.4% of workload runtime (7.8% in EMEAS
alone); with it, 2.5% (EMEAS 0.1%).

This module provides both:

* the functional operations (hash, sign, verify, bulk encrypt) the EMS
  runtime calls, and
* cycle costs for each operation under a "software crypto" or "hardware
  engine" profile, in EMS-core cycles, so primitive latencies land where
  Table IV puts them.
"""

from __future__ import annotations

import dataclasses

from repro.common.constants import (
    CRYPTO_AES_GBPS,
    CRYPTO_RSA_SIGN_OPS,
    CRYPTO_RSA_VERIFY_OPS,
    CRYPTO_SHA256_GBPS,
    EMS_CORE_FREQ_HZ,
)
from repro.crypto.cipher import KeystreamCipher
from repro.crypto.hashes import MacKey, constant_time_equal, keyed_mac, measure
from repro.eval.calibration import (
    CRYPTO_ENGINE_SETUP_CYCLES,
    CRYPTO_SOFTWARE_SETUP_CYCLES,
)


@dataclasses.dataclass(frozen=True)
class CryptoProfile:
    """Throughput profile for crypto work, in bytes/sec and ops/sec."""

    name: str
    hash_bytes_per_sec: float
    cipher_bytes_per_sec: float
    sign_ops_per_sec: float
    verify_ops_per_sec: float
    #: Fixed per-operation setup cost in EMS cycles.
    setup_cycles: int


def _gbps(gbits: float) -> float:
    return gbits * 1e9 / 8


#: Hardware crypto engine (paper Table III numbers).
ENGINE_CRYPTO = CryptoProfile(
    name="engine",
    hash_bytes_per_sec=_gbps(CRYPTO_SHA256_GBPS),
    cipher_bytes_per_sec=_gbps(CRYPTO_AES_GBPS),
    sign_ops_per_sec=float(CRYPTO_RSA_SIGN_OPS),
    verify_ops_per_sec=float(CRYPTO_RSA_VERIFY_OPS),
    setup_cycles=CRYPTO_ENGINE_SETUP_CYCLES,
)

#: Software crypto on the EMS core. Calibrated so that the EMEAS share of
#: workload runtime lands at Table IV's "Noncrypto" column (~7.8% average,
#: i.e. roughly 78x slower hashing than the engine's 16.1 Gbps).
SOFTWARE_CRYPTO = CryptoProfile(
    name="software",
    hash_bytes_per_sec=_gbps(CRYPTO_SHA256_GBPS) / 78.0,
    cipher_bytes_per_sec=_gbps(CRYPTO_AES_GBPS) / 12.0,
    sign_ops_per_sec=2.0,
    verify_ops_per_sec=150.0,
    setup_cycles=CRYPTO_SOFTWARE_SETUP_CYCLES,
)


class CryptoEngine:
    """Functional crypto operations with cycle accounting.

    Every functional method returns ``(result, cycles)`` where ``cycles``
    is the EMS-core cycle cost under the configured profile. The EMS
    runtime adds these to the primitive's service time.
    """

    def __init__(self, profile: CryptoProfile = ENGINE_CRYPTO,
                 freq_hz: float = EMS_CORE_FREQ_HZ) -> None:
        self.profile = profile
        self._freq = freq_hz
        #: Out-of-band observability hook (attached by the system).
        self.obs = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None

    def _probe(self, op: str, nbytes: int, cycles: int) -> None:
        if self.obs is not None:
            self.obs.record_crypto_op(op, nbytes, cycles)
        if self.san is not None:
            self.san.on_crypto_op(op, nbytes)

    # -- latency helpers -----------------------------------------------------

    def _bulk_cycles(self, nbytes: int, bytes_per_sec: float) -> int:
        seconds = nbytes / bytes_per_sec
        return self.profile.setup_cycles + int(seconds * self._freq)

    def hash_cycles(self, nbytes: int) -> int:
        """Cycle cost of hashing ``nbytes`` (measurement, MACs)."""
        return self._bulk_cycles(nbytes, self.profile.hash_bytes_per_sec)

    def cipher_cycles(self, nbytes: int) -> int:
        """Cycle cost of bulk encryption/decryption of ``nbytes``."""
        return self._bulk_cycles(nbytes, self.profile.cipher_bytes_per_sec)

    def sign_cycles(self) -> int:
        """Cycle cost of one signature under the profile."""
        return self.profile.setup_cycles + int(self._freq / self.profile.sign_ops_per_sec)

    def verify_cycles(self) -> int:
        """Cycle cost of one verification under the profile."""
        return self.profile.setup_cycles + int(self._freq / self.profile.verify_ops_per_sec)

    # -- functional operations -------------------------------------------------

    def measure(self, *chunks: bytes) -> tuple[bytes, int]:
        """Measurement hash plus its cycle cost."""
        total = sum(len(c) for c in chunks)
        cycles = self.hash_cycles(total)
        self._probe("hash", total, cycles)
        return measure(*chunks), cycles

    def sign(self, key: bytes | MacKey, data: bytes) -> tuple[bytes, int]:
        """Produce a signature (HMAC stand-in; see DESIGN.md substitutions).

        ``key`` is raw bytes for a one-off key, or the :class:`MacKey` of a
        long-lived one (the platform key, the AK).
        """
        cycles = self.sign_cycles()
        self._probe("sign", len(data), cycles)
        return keyed_mac(key, data), cycles

    def verify(self, key: bytes, data: bytes, signature: bytes) -> tuple[bool, int]:
        """Verify a signature by recomputation."""
        expected = keyed_mac(key, data)
        cycles = self.verify_cycles()
        self._probe("verify", len(data), cycles)
        return constant_time_equal(expected, signature), cycles

    def bulk_encrypt(self, key: bytes, data: bytes, tweak: int = 0) -> tuple[bytes, int]:
        """Encrypt a page-sized (or larger) buffer, e.g. for EWB swap-out."""
        cycles = self.cipher_cycles(len(data))
        self._probe("encrypt", len(data), cycles)
        return KeystreamCipher(key).encrypt(data, tweak), cycles

    def bulk_decrypt(self, key: bytes, data: bytes, tweak: int = 0) -> tuple[bytes, int]:
        """Decrypt a bulk buffer; returns (plaintext, cycles)."""
        cycles = self.cipher_cycles(len(data))
        self._probe("decrypt", len(data), cycles)
        return KeystreamCipher(key).decrypt(data, tweak), cycles
