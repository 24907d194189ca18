"""Fleet golden: every shard count builds and runs exactly as pinned.

Each cell builds a platform at 1, 2 or 4 EMS shards and runs the
sharding-conformance workload (five enclaves launched, entered, given
heap, demand-faulted, attested and freed, one EWB round) plus, on a
fleet, one cross-shard transfer of a measured enclave followed by a
session on its new shard; then every enclave is destroyed. One more
4-shard cell runs the same workload with observability on, a
``mailbox.request.drop`` plan at probability 0.1 and the SECRET and OWN
sanitizers attached.

``tests/golden/shard_fleet.json`` pins, per cell, the whole-memory
SHA-256 at boot and at the end, one SHA-256 per RNG sub-stream state at
boot and at the end, the primitive cycles, each runtime's served count
and, in the instrumented cell, the SHA-256 of the sanitizer report. Any
change to how a shard is built or wired that moves an RNG draw, an OS
frame grant, a cycle or a request shows here.

A deliberate model change refreshes the golden::

    python -m pytest tests/ems/test_shard_fleet_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json

from repro.common.types import Primitive
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.faults.plan import FaultPlan, FaultRule
from tests.ems.test_shard_conformance import memory_digest

SEED = 0x51AD

#: (cell name, shard count, instrumented?)
CELLS = (("shards1", 1, False), ("shards2", 2, False),
         ("shards4", 4, False), ("shards4_instrumented", 4, True))


def _rng_digests(system) -> dict[str, str]:
    """SHA-256 of every RNG sub-stream's state, by stream name."""
    streams = system.rng._streams
    return {name: hashlib.sha256(
                repr(streams[name].getstate()).encode()).hexdigest()
            for name in sorted(streams)}


def _fleet_run(shards: int, instrumented: bool) -> dict:
    """One cell: build, fingerprint the boot, run, fingerprint the end."""
    tee = HyperTEE(SystemConfig(seed=SEED, ems_shards=shards))
    system = tee.system
    if instrumented:
        system.enable_observability()
        system.enable_fault_injection(FaultPlan.build(
            [FaultRule(point="mailbox.request.drop", probability=0.1)],
            seed=SEED))
        system.enable_sanitizers(("secret", "own"))
    out: dict = {"boot_memory_sha256": memory_digest(system),
                 "boot_rng_sha256": _rng_digests(system)}

    enclaves = [
        tee.launch_enclave_batched(
            f"conformance-{i}".encode() * 40,
            EnclaveConfig(name=f"conf{i}", heap_pages_max=32))
        for i in range(5)]
    for i, enclave in enumerate(enclaves):
        with enclave.running():
            vaddr = enclave.ealloc(2)
            enclave.write(vaddr, f"sec{i}".encode())
            assert enclave.read(vaddr, 4) == f"sec{i}".encode()
            enclave.write(vaddr + 3 * 4096, b"demand")
            enclave.attest(report_data=b"conformance")
            enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    if shards > 1:
        moved = enclaves[0]
        pool = system.shard_pool
        pool.transfer_enclave(
            moved.enclave_id,
            (pool.resolve(moved.enclave_id) + 1) % pool.num_shards)
        with moved.running():
            vaddr = moved.ealloc(1)
            moved.write(vaddr, b"post-transfer")
            assert moved.read(vaddr, 13) == b"post-transfer"
            moved.efree(vaddr)
    for enclave in enclaves:
        enclave.destroy()

    out["memory_sha256"] = memory_digest(system)
    out["rng_sha256"] = _rng_digests(system)
    out["primitive_cycles"] = tee.primitive_cycles
    out["served"] = [shard.runtime.stats.served
                     for shard in system.shard_pool.shards]
    if instrumented:
        report = json.dumps(system.san.to_dict(), sort_keys=True)
        out["sanitize_report_sha256"] = hashlib.sha256(
            report.encode()).hexdigest()
    return out


def test_fleet_matches_golden(golden):
    """Every cell reproduces its pinned fingerprints exactly."""
    golden("shard_fleet", {name: _fleet_run(shards, instrumented)
                           for name, shards, instrumented in CELLS})
