"""Measurement hashing and MAC primitives."""

from __future__ import annotations

import hashlib
import hmac

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.constants import MAC_BITS
from repro.crypto.hashes import (
    MacKey,
    constant_time_equal,
    keyed_mac,
    measure,
    truncated_mac,
)


def test_measure_deterministic():
    assert measure(b"a", b"b") == measure(b"a", b"b")


def test_measure_is_injective_on_chunking():
    """Length framing: ("ab","c") must differ from ("a","bc")."""
    assert measure(b"ab", b"c") != measure(b"a", b"bc")


def test_measure_differs_on_content():
    assert measure(b"image-v1") != measure(b"image-v2")


def test_keyed_mac_depends_on_key_and_data():
    assert keyed_mac(b"k1", b"data") != keyed_mac(b"k2", b"data")
    assert keyed_mac(b"k1", b"data") != keyed_mac(b"k1", b"datb")


def test_truncated_mac_width():
    mac = truncated_mac(b"key", b"block")
    assert 0 <= mac < (1 << MAC_BITS)


def test_truncated_mac_custom_width():
    assert 0 <= truncated_mac(b"key", b"block", bits=8) < 256


def test_constant_time_equal():
    assert constant_time_equal(b"same", b"same")
    assert not constant_time_equal(b"same", b"diff")


@given(st.binary(max_size=128), st.binary(max_size=128))
@settings(max_examples=50, deadline=None)
def test_mac_collision_resistance_smoke(a: bytes, b: bytes):
    """Distinct inputs virtually never collide at full width."""
    if a != b:
        assert keyed_mac(b"key", a) != keyed_mac(b"key", b)


def _sized(limit: int):
    """Byte strings whose length is drawn evenly from 0..``limit``."""
    return st.integers(min_value=0, max_value=limit).flatmap(
        lambda n: st.binary(min_size=n, max_size=n))


#: Both sides of SHA3-256's 136-byte block: longer keys are hashed first.
KEYS = _sized(300)
MESSAGES = _sized(300)


@given(KEYS, st.lists(MESSAGES, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
@example(b"", [b""])
@example(b"k" * 135, [b"a", b"b"])
@example(b"k" * 136, [b"a", b"b"])
@example(b"k" * 137, [b"a", b"b"])
def test_mac_key_matches_stdlib_hmac_and_is_reusable(key: bytes,
                                                     messages: list[bytes]):
    """One MacKey serves many messages; copying never consumes it."""
    reused = MacKey(key)
    for data in messages:
        expected = hmac.new(key, data, hashlib.sha3_256).digest()
        assert keyed_mac(reused, data) == expected
        assert keyed_mac(MacKey(key), data) == expected
        assert keyed_mac(key, data) == expected


@given(KEYS, MESSAGES, st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_truncated_mac_same_for_mac_key_and_bytes(key: bytes, data: bytes,
                                                  bits: int):
    assert truncated_mac(MacKey(key), data, bits) == truncated_mac(key, data, bits)
