"""The tracer resolves targets by name, survives missing ones, and undoes itself."""

import pytest

from layers import LAYERS, Layer
from tracer import Tracer


@pytest.fixture
def installed():
    tracers = []

    def install(layers):
        tracer = Tracer(layers)
        tracers.append(tracer)
        tracer.install()
        return tracer

    yield install
    for tracer in tracers:
        tracer.uninstall()


def test_missing_targets_are_listed_and_never_raise(installed):
    tracer = installed((
        Layer("gone.module", (("repro.no_such_module", "Thing.run"),)),
        Layer("gone.class", (("repro.hw.tlb", "NoSuchTLB.lookup"),)),
        Layer("gone.method", (("repro.hw.tlb", "TLB.no_such_method"),)),
        Layer("gone.function", (("repro.crypto.hashes", "no_such_mac"),)),
        Layer("gone.pattern", (("repro.hw.tlb", "TLB.zz_*"),)),
        Layer("half", (("repro.hw.tlb", "TLB.lookup"),
                       ("repro.hw.tlb", "TLB.deleted"),)),
    ))
    assert tracer.present == {"half"}
    assert [entry.split(" ")[0] for entry in tracer.unresolved] == [
        "repro.no_such_module:Thing.run",
        "repro.hw.tlb:NoSuchTLB.lookup",
        "repro.hw.tlb:TLB.no_such_method",
        "repro.crypto.hashes:no_such_mac",
        "repro.hw.tlb:TLB.zz_*",
        "repro.hw.tlb:TLB.deleted",
    ]


def test_every_layer_of_the_table_resolves_today(installed):
    tracer = installed(LAYERS)
    assert tracer.unresolved == []
    assert tracer.present == {layer.name for layer in LAYERS}


def test_spans_nest_and_carry_the_op_id(installed):
    from repro.hw.tlb import TLB, TLBEntry
    from repro.common.types import Permission

    tracer = installed((Layer("hw.tlb", (("repro.hw.tlb", "TLB.*"),)),))
    tlb = TLB()
    tracer.set_op(7)
    tlb.insert(TLBEntry(vpn=1, ppn=2, perm=Permission.RW, keyid=0, asid=0))
    assert tlb.lookup(0, 1) is not None
    assert tlb.lookup(0, 2) is None
    fid, parent, op, start, end = tracer.columns()
    assert len(fid) == 3
    assert op.tolist() == [7, 7, 7]
    assert parent.tolist() == [-1, -1, -1]
    assert (end >= start).all()
    assert tracer.counts["tlb.lookups"] == 2
    assert tracer.counts["tlb.hits"] == 1


def test_functions_are_patched_where_they_are_looked_up(installed):
    import repro.crypto.hashes as hashes
    import repro.hw.encryption_engine as engine

    original = hashes.truncated_mac
    tracer = installed((Layer("crypto.hashes", (
        ("repro.crypto.hashes", "truncated_mac"),
        ("repro.crypto.hashes", "keyed_mac"))),))
    assert engine.truncated_mac is not original
    assert engine.truncated_mac.__wrapped__ is original
    engine.truncated_mac(b"k" * 16, b"line")
    fid, parent, *_ = tracer.columns()
    # truncated_mac calls keyed_mac through the patched module global.
    names = [tracer.functions[i] for i in fid]
    assert names == ["repro.crypto.hashes:truncated_mac",
                     "repro.crypto.hashes:keyed_mac"]
    assert parent.tolist() == [-1, 0]
    tracer.uninstall()
    assert engine.truncated_mac is original
    assert hashes.truncated_mac is original


def test_block_count_equals_the_blocks_the_cipher_hashes(installed,
                                                         monkeypatch):
    import hashlib

    import repro.crypto.cipher as cipher_module
    from repro.crypto.cipher import KeystreamCipher

    hashed = []

    class CountingHashlib:
        @staticmethod
        def sha3_256(data):
            hashed.append(data)
            return hashlib.sha3_256(data)

    monkeypatch.setattr(cipher_module, "hashlib", CountingHashlib)
    tracer = installed((Layer("crypto.cipher", (
        ("repro.crypto.cipher", "KeystreamCipher.encrypt"),
        ("repro.crypto.cipher", "KeystreamCipher.keystream"))),))
    cipher = KeystreamCipher(b"k" * 16)
    tracer.set_op(0)
    cipher.encrypt(b"x" * 40, tweak=30)   # positions 30..69: 3 blocks
    cipher.decrypt(b"x" * 64, 64)         # aligned: 2 blocks
    cipher.keystream(start=1, length=1)   # 1 block
    cipher.encrypt(b"")                   # nothing
    assert tracer.counts["cipher.blocks"] == len(hashed) == 6


def test_context_managers_are_not_wrapped(installed):
    from repro.core.api import Enclave

    running = Enclave.running
    installed((Layer("core.api", (("repro.core.api", "Enclave.*"),)),))
    assert Enclave.running is running
    assert hasattr(Enclave.read, "__wrapped__")
