"""Keystream cipher standing in for the AES memory-encryption datapath.

No AES implementation ships in the offline environment, so the memory
encryption engine uses a SHA3-derived keystream XOR cipher instead
(DESIGN.md, substitutions table). The properties the architecture needs
are preserved exactly:

* deterministic per (key, tweak) so reads decrypt what writes encrypted;
* ciphertext under key A decrypted with key B yields garbage — which is
  how the model enforces that a PTW loading enclave data with the host
  KeyID "cannot decrypt enclave data correctly" (paper Section VIII-C);
* tweakable by physical block address, so identical plaintext at two
  addresses yields distinct ciphertext (XTS-style behaviour).
"""

from __future__ import annotations

import hashlib


class KeystreamCipher:
    """Address-tweaked XOR keystream cipher.

    One instance per encryption key; the memory encryption engine holds a
    table of these indexed by KeyID.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("encryption keys must be at least 128 bits")
        self._key = bytes(key)

    @property
    def key(self) -> bytes:
        return self._key

    #: Keystream block granularity in bytes (one SHA3-256 digest).
    BLOCK = 32

    def _keystream(self, start: int, length: int) -> bytes:
        """Keystream bytes for absolute positions [start, start+length).

        The stream is a pure function of (key, absolute position), so an
        8-byte store and a later 8-byte load of the same address agree
        even when surrounded by differently-sized accesses — exactly how
        an address-tweaked hardware cipher behaves.
        """
        first_block = start // self.BLOCK
        last_block = (start + length - 1) // self.BLOCK
        out = bytearray()
        for block_index in range(first_block, last_block + 1):
            out.extend(hashlib.sha3_256(
                self._key + block_index.to_bytes(8, "little")).digest())
        offset = start - first_block * self.BLOCK
        return bytes(out[offset:offset + length])

    def keystream(self, start: int, length: int) -> bytes:
        """The keystream window for absolute positions [start, start+length).

        The raw stream :meth:`encrypt` XORs with; exposed for tests and
        tooling that check a ciphertext against its window.
        """
        return self._keystream(start, length)

    def encrypt(self, plaintext: bytes, tweak: int = 0) -> bytes:
        """Encrypt ``plaintext`` located at absolute position ``tweak``.

        ``tweak`` is the physical byte address in the memory engine. The
        whole span is XORed as one big integer.
        """
        length = len(plaintext)
        stream = self._keystream(tweak, length)
        return (int.from_bytes(plaintext, "little")
                ^ int.from_bytes(stream, "little")).to_bytes(length, "little")

    def decrypt(self, ciphertext: bytes, tweak: int = 0) -> bytes:
        """Decrypt — identical to encrypt for a XOR keystream."""
        return self.encrypt(ciphertext, tweak)
