"""Non-interference: sanitizers observe; they never change the model.

The contract that makes teesan safe to leave on in CI: a platform with
sanitizers attached is bit-identical — cycle counts, quotes, report
documents, golden surfaces — to one without. These tests run the same
deterministic workloads twice and diff everything a user could see.
"""

from __future__ import annotations

import json

from repro.common.types import Permission, Primitive
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig


def _run_lifecycle(sanitize: bool) -> dict:
    tee = HyperTEE(SystemConfig(seed=0xD1FF))
    tee.system.enable_observability()
    if sanitize:
        tee.system.enable_sanitizers(("secret", "own"))
    enclave = tee.launch_enclave(b"noninterference enclave " * 24,
                                 EnclaveConfig(name="nonint",
                                               heap_pages_max=32))
    with enclave.running():
        vaddr = enclave.ealloc(3)
        enclave.write(vaddr, b"identical either way")
        readback = enclave.read(vaddr, 20)
        enclave.write(vaddr + 4 * 4096, b"demand")
        region = enclave.create_shared_region(1, Permission.RW)
        share_va = enclave.attach(region)
        enclave.write(share_va, b"shared")
        enclave.detach(region)
        enclave.destroy_region(region)
        quote = enclave.attest(report_data=b"nonint")
        enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 1})
    enclave.destroy()
    shards = tee.system.shard_pool.shards
    return {
        "readback": readback.hex(),
        "measurement": quote.enclave.measurement.hex(),
        "signature": quote.enclave.signature.hex(),
        "primitive_cycles": tee.primitive_cycles,
        "ems_stats": [vars(shard.runtime.stats).copy() for shard in shards],
        "pool": [[shard.pool.used_count, shard.pool.free_count,
                  shard.pool.capacity] for shard in shards],
        "slo": tee.system.obs.slo.report(),
        "latency": tee.system.obs.primitive_latency_table(),
    }


def test_lifecycle_is_bit_identical_with_sanitizers_on():
    plain = _run_lifecycle(sanitize=False)
    sanitized = _run_lifecycle(sanitize=True)
    assert json.dumps(plain, sort_keys=True, default=str) == \
        json.dumps(sanitized, sort_keys=True, default=str)


def test_serve_report_is_identical_modulo_sanitize_section():
    from repro.eval.serve import ServeConfig, run_serve

    plain = run_serve(ServeConfig(ops=60, shards=2, workers=2))
    sanitized = run_serve(ServeConfig(ops=60, shards=2, workers=2,
                                      sanitize=("secret", "own")))
    section = sanitized.pop("sanitize")
    assert section["ok"], "the serve workload must run clean"
    plain["config"]["sanitize"] = sanitized["config"]["sanitize"] = None
    assert json.dumps(plain, sort_keys=True, default=str) == \
        json.dumps(sanitized, sort_keys=True, default=str)


def test_sanitize_stats_surface_only_when_enabled():
    """The default metrics document is unchanged (pinned elsewhere);
    the ``sanitize`` source appears only on sanitized platforms."""
    plain = HyperTEE(SystemConfig(seed=1))
    plain.system.enable_observability()
    assert "sanitize" not in plain.system.obs.metrics.federated_snapshot()

    sanitized = HyperTEE(SystemConfig(seed=1))
    sanitized.system.enable_observability()
    sanitized.system.enable_sanitizers(("secret",))
    snapshot = sanitized.system.obs.metrics.federated_snapshot()
    assert "sanitize" in snapshot
    assert snapshot["sanitize"]["secrets_registered"] >= 2  # EK + SK
