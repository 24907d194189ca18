"""Kernel differential: this datapath against the pinned outputs of the last.

For each (platform seed, workload seed) cell, a mixed enclave workload
runs through the whole memory datapath — page zeroing on EALLOC/EFREE,
arbitrary-length writes (one of them starting mid-line and crossing a
page boundary), batched allocation, sealing, attestation, shared
memory and an EWB round. The outputs are pinned in
``tests/golden/datapath.json``: the whole-memory SHA-256, the enclave
measurement, one SHA-256 over the quote and sealed bytes, the
read-back, and the primitive cycles. The memory digest covers every
ciphertext byte the engine stored, so a change to the keystream XOR or
to the MAC walk that moves a single bit fails here.

Error paths (privilege, batch size, unbatchable, failed primitive) are
differential too: the same exception type and message as pinned.

A deliberate model change refreshes the golden::

    python -m pytest tests/core/test_kernel_differential.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro.common import codec
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.types import Permission, Primitive
from repro.core.api import APIError, HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.errors import EMCallError
from repro.eval.calibration import EMCALL_BATCH_MAX

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "datapath.json"

#: The platform seed and the workload seeds of the pinned cells.
PLATFORM_SEED = 5
WORKLOAD_SEEDS = (11, 23)


def _memory_digest(system) -> str:
    memory = system.memory
    digest = hashlib.sha256()
    step = 1 << 20
    for offset in range(0, memory.size_bytes, step):
        digest.update(memory.read_raw(
            offset, min(step, memory.size_bytes - offset)))
    return digest.hexdigest()


def _run_workload(seed: int, workload_seed: int, observability: bool) -> dict:
    """One randomized mixed workload; returns every pinned surface."""
    tee = HyperTEE(SystemConfig(seed=seed))
    if observability:
        tee.system.enable_observability()
    rnd = random.Random(workload_seed)
    enclave = tee.launch_enclave(
        b"kernel differential enclave " * 24,
        EnclaveConfig(name="kdiff", heap_pages_max=2048))
    regions: list[tuple[int, int]] = []
    with enclave.running():
        for _ in range(25):
            if regions and rnd.random() < 0.4:
                vaddr, _pages = regions.pop(rnd.randrange(len(regions)))
                enclave.efree(vaddr)
            else:
                pages = rnd.randint(1, 6)
                vaddr = enclave.ealloc(pages)
                enclave.write(vaddr, rnd.randbytes(rnd.randint(1, 4096)))
                regions.append((vaddr, pages))
        # Mid-line start, page-crossing end: partial first and last lines.
        span = enclave.ealloc(2)
        straddle = rnd.randbytes(3 * CACHE_LINE_SIZE)
        start = span + PAGE_SIZE - CACHE_LINE_SIZE - 13
        enclave.write(start, straddle)
        straddled = enclave.read(start, len(straddle))
        vaddrs = enclave.ealloc_many([2] * 8)
        enclave.write(vaddrs[0], b"batched payload")
        readback = enclave.read(vaddrs[0], 15)
        enclave.efree_many(vaddrs)
        quote = enclave.attest(report_data=b"kernel differential")
        secret = b"kernel differential secret"
        sealed = enclave.seal(secret)
        assert enclave.unseal(sealed) == secret
        region = enclave.create_shared_region(2, Permission.RW)
        share_va = enclave.attach(region)
        enclave.write(share_va, b"shared bytes")
        enclave.detach(region)
        enclave.destroy_region(region)
    assert straddled == straddle
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    enclave.destroy()
    artifacts = codec.encode_quote(quote) + codec.encode_sealed_blob(sealed)
    return {
        "memory_sha256": _memory_digest(tee.system),
        "measurement": enclave.measurement.hex(),
        "quote_sealed_sha256": hashlib.sha256(artifacts).hexdigest(),
        "readback": readback.hex(),
        "primitive_cycles": tee.primitive_cycles,
    }


#: Each pinned error path: the exception type it raises and the call,
#: made on a fresh platform.
ERROR_CASES = {
    "privilege": (EMCallError, lambda tee: tee.invoke_user(
        Primitive.ECREATE, {})),
    "batch_size": (EMCallError, lambda tee: tee.invoke_os_batch(
        [(Primitive.EALLOC, {"pages": 1})] * (EMCALL_BATCH_MAX + 1))),
    "unbatchable": (EMCallError, lambda tee: tee.invoke_os_batch(
        [(Primitive.EENTER, {"enclave_id": 1})])),
    "failed_primitive": (APIError, lambda tee: tee.invoke_os(
        Primitive.EDESTROY, {"enclave_id": 999})),
}


def _error_of(case: str) -> list[str]:
    """The concrete exception type and message one error path raises."""
    exc_type, call = ERROR_CASES[case]
    with pytest.raises(exc_type) as excinfo:
        call(HyperTEE(SystemConfig(seed=7)))
    return [type(excinfo.value).__name__, str(excinfo.value)]


def _golden() -> dict:
    assert GOLDEN.exists(), \
        "tests/golden/datapath.json missing — run with --update-golden"
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def refreshed(request):
    """Rewrite the golden from this tree once, when asked to."""
    if request.config.getoption("--update-golden"):
        golden = {f"{PLATFORM_SEED}-{w}": _run_workload(PLATFORM_SEED, w, False)
                  for w in WORKLOAD_SEEDS}
        golden["errors"] = {case: _error_of(case) for case in ERROR_CASES}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return _golden()


@pytest.mark.parametrize("workload_seed", WORKLOAD_SEEDS)
def test_datapath_matches_golden(refreshed, workload_seed):
    expected = refreshed[f"{PLATFORM_SEED}-{workload_seed}"]
    assert _run_workload(PLATFORM_SEED, workload_seed, False) == expected


def test_datapath_golden_with_observability(refreshed):
    """Probes on: the same pinned outputs (observability is out-of-band)."""
    expected = refreshed[f"{PLATFORM_SEED}-{WORKLOAD_SEEDS[0]}"]
    assert _run_workload(PLATFORM_SEED, WORKLOAD_SEEDS[0], True) == expected


# -- error-path parity ---------------------------------------------------------


def test_privilege_error_parity(refreshed):
    assert _error_of("privilege") == refreshed["errors"]["privilege"]


def test_batch_size_error_parity(refreshed):
    assert _error_of("batch_size") == refreshed["errors"]["batch_size"]


def test_unbatchable_error_parity(refreshed):
    assert _error_of("unbatchable") == refreshed["errors"]["unbatchable"]


def test_failed_primitive_parity(refreshed):
    """A failing EMCall (bad handle) degrades exactly as pinned."""
    assert (_error_of("failed_primitive")
            == refreshed["errors"]["failed_primitive"])
