"""Sharding conformance: scale-out must not change what the TEE does.

Two differential contracts pin the multi-EMS shard pool:

1. **``ems_shards=1`` is the paper's platform.** A one-shard config is
   a shard pool of one whose gate is a plain :class:`EMCall` (no routing
   wrapper), so every observable — physical-memory digest, modelled
   cycles, serve counts, measurements — is bit-for-bit the default
   platform's, and ``tests/golden/shard_fleet.json`` pins both it and
   the fleets to their pre-pool construction.
2. **N shards are semantically equivalent to one.** The same scripted
   workload on a 4-shard fleet yields the same enclave IDs (the pool
   mints them platform-globally from 1), the same measurements, the
   same readbacks, CA-verifiable quotes, and the same total modelled
   cycles and requests served; only *where* each request was served
   moves.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.types import Primitive
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.cs.emcall import EMCall


def memory_digest(system) -> str:
    """SHA-256 over all of physical memory (raw stored bytes)."""
    digest = hashlib.sha256()
    memory = system.memory
    step = 1 << 20
    for base in range(0, memory.size_bytes, step):
        digest.update(memory.read_raw(
            base, min(step, memory.size_bytes - base)))
    return digest.hexdigest()


def _scripted_run(shards: int | None, seed: int = 0x51AD) -> dict:
    """The conformance workload: mixed lifecycle over five enclaves.

    ``shards=None`` builds the config without touching the knob at all —
    the default platform, byte for byte.
    """
    if shards is None:
        config = SystemConfig(seed=seed)
    else:
        config = SystemConfig(seed=seed, ems_shards=shards)
    tee = HyperTEE(config)
    ca = tee.system.certificate_authority()
    out: dict = {"ids": [], "measurements": [], "readbacks": [],
                 "quotes_verify": []}
    enclaves = []
    for i in range(5):
        enclave = tee.launch_enclave_batched(
            f"conformance-{i}".encode() * 40,
            EnclaveConfig(name=f"conf{i}", heap_pages_max=32))
        enclaves.append(enclave)
        out["ids"].append(enclave.enclave_id)
        out["measurements"].append(enclave.measurement)
    for i, enclave in enumerate(enclaves):
        with enclave.running():
            vaddr = enclave.ealloc(2)
            enclave.write(vaddr, f"sec{i}".encode())
            out["readbacks"].append(enclave.read(vaddr, 4))
            # Demand fault inside the heap budget: the page-fault path.
            enclave.write(vaddr + 3 * 4096, b"demand")
            quote = enclave.attest(report_data=b"conformance")
            out["quotes_verify"].append(ca.verify_quote(
                quote, expected_enclave_measurement=enclave.measurement))
            enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    for enclave in enclaves:
        enclave.destroy()
    out["primitive_cycles"] = tee.primitive_cycles
    out["requests_served"] = tee.system.ems_requests_served()
    out["memory_digest"] = memory_digest(tee.system)
    out["shard_pool"] = tee.system.shard_pool
    return out


def test_one_shard_is_a_pool_of_one_with_a_plain_gate():
    """``ems_shards=1``: one shard, its parts the single-EMS names."""
    system = HyperTEE(SystemConfig(ems_shards=1)).system
    assert system.shard_pool.num_shards == 1
    assert type(system.emcall) is EMCall
    assert system.ems_runtimes == [system.ems]
    assert system.mailbox is system.shard_pool.shards[0].mailbox
    assert "shards" not in system.stats_summary()


def test_one_shard_is_bitforbit_the_default():
    """Explicit ``ems_shards=1`` == config default, every observable.

    This is the hard identity contract: the one-shard platform must be
    indistinguishable from a platform built before sharding existed —
    same physical-memory digest, same modelled cycles, same everything.
    """
    explicit = _scripted_run(shards=1)
    default = _scripted_run(shards=None)
    for field in ("ids", "measurements", "readbacks", "quotes_verify",
                  "primitive_cycles", "requests_served", "memory_digest"):
        assert explicit[field] == default[field], \
            f"ems_shards=1 diverged from the default platform on {field}"


@pytest.mark.parametrize("shards", (2, 4))
def test_n_shards_semantically_equivalent_to_one(shards: int):
    """The fleet answers exactly like a single EMS, cycle-for-cycle."""
    single = _scripted_run(shards=1)
    fleet = _scripted_run(shards=shards)

    assert fleet["shard_pool"] is not None
    assert fleet["ids"] == single["ids"]
    assert fleet["measurements"] == single["measurements"]
    assert fleet["readbacks"] == single["readbacks"]
    assert fleet["quotes_verify"] == single["quotes_verify"] == [True] * 5
    assert fleet["primitive_cycles"] == single["primitive_cycles"]
    assert fleet["requests_served"] == single["requests_served"]

    # The work actually spread: more than one shard served requests.
    summary = fleet["shard_pool"].stats_summary()
    active = [row for row in summary["per_shard"] if row["served"] > 0]
    assert len(active) > 1, "a fleet where one shard serves everything " \
                            "is a routing failure"
    assert sum(row["served"] for row in summary["per_shard"]) == \
        fleet["requests_served"]
