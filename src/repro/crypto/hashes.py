"""Measurement hashing and MAC primitives (SHA-3 based).

The paper uses SHA-3 for enclave measurement (EMEAS) and a 28-bit
SHA-3-based MAC for memory integrity (Section IV-C). Python's hashlib
provides SHA-3 natively, so these are faithful rather than substituted.

A key that MACs many messages (a KeyID slot's line-MAC key, a KDF root,
the platform-signing key and the AK) is installed once as a
:class:`MacKey`; one-off keys are passed as raw bytes. Both give the
same HMAC-SHA3-256.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.common.constants import MAC_BITS

MEASUREMENT_BYTES = 32

#: SHA3-256's rate: HMAC pads a key to this many bytes (RFC 2104).
_BLOCK = hashlib.sha3_256().block_size
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


def measure(*chunks: bytes) -> bytes:
    """SHA3-256 measurement over the concatenation of ``chunks``.

    Used for enclave measurement, boot-stage verification, and as the
    compression step inside key derivation.
    """
    h = hashlib.sha3_256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.digest()


class MacKey:
    """An HMAC-SHA3-256 key whose inner and outer pads are absorbed once.

    ``hmac.new`` re-absorbs both padded blocks on every call; a MAC under
    a ``MacKey`` copies the two prepared states instead. Build one where
    the key is installed and drop it with the key.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK:
            key = hashlib.sha3_256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha3_256(key.translate(_INNER_PAD))
        self._outer = hashlib.sha3_256(key.translate(_OUTER_PAD))


def keyed_mac(key: bytes | MacKey, data: bytes) -> bytes:
    """Full-width HMAC-SHA3-256 over ``data``.

    ``key`` is a :class:`MacKey` or raw key bytes (the stdlib one-shot).
    """
    if isinstance(key, MacKey):
        inner = key._inner.copy()
        inner.update(data)
        outer = key._outer.copy()
        outer.update(inner.digest())
        return outer.digest()
    return hmac.digest(key, data, hashlib.sha3_256)


def truncated_mac(key: bytes | MacKey, data: bytes, bits: int = MAC_BITS) -> int:
    """MAC truncated to ``bits`` bits, as stored per memory block.

    Commercial memory-integrity engines store short MACs (the paper cites
    a 28-bit SHA-3-based MAC) because per-block metadata is expensive; the
    detection semantics at model scale are identical to a full MAC.
    """
    full = keyed_mac(key, data)
    value = int.from_bytes(full[:8], "little")
    return value & ((1 << bits) - 1)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (models the engine's comparator)."""
    return hmac.compare_digest(a, b)
