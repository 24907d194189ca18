"""Cost-model functions match the live system's arithmetic."""

from __future__ import annotations

from repro.common.types import Primitive, Privilege
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.eval.calibration import EMCALL_POLL_JITTER_CYCLES
from repro.hw.core import EMS_MEDIUM, EMS_WEAK
from repro.workloads import costs


def test_ealloc_cycles_scale_with_pages():
    assert costs.ealloc_cycles(512, EMS_MEDIUM) > costs.ealloc_cycles(32, EMS_MEDIUM)


def test_ealloc_cycles_scale_with_core():
    assert costs.ealloc_cycles(32, EMS_WEAK) > costs.ealloc_cycles(32, EMS_MEDIUM)


def test_host_malloc_affine():
    base = costs.host_malloc_cycles(1)
    assert costs.host_malloc_cycles(11) - costs.host_malloc_cycles(1) == \
        10 * (costs.host_malloc_cycles(2) - base)


def test_lifecycle_cycles_scale_with_image():
    assert (costs.lifecycle_cycles(100, EMS_MEDIUM)
            > costs.lifecycle_cycles(10, EMS_MEDIUM))


def test_emeas_crypto_profile_gap():
    from repro.crypto.engine import ENGINE_CRYPTO, SOFTWARE_CRYPTO

    sw = costs.emeas_hash_cycles(1 << 20, SOFTWARE_CRYPTO)
    hw = costs.emeas_hash_cycles(1 << 20, ENGINE_CRYPTO)
    assert sw / hw > 50


def test_closed_form_matches_live_system():
    """The analytic EALLOC latency tracks an actual invocation through
    EMCall + mailbox + EMS runtime within the jitter window."""
    sys_ = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))
    enclaves = sys_.shard_pool.shards[0].enclaves
    result, _, _ = enclaves.ecreate(EnclaveConfig(heap_pages_max=128))
    enclave_id = result["enclave_id"]
    enclaves.eadd(enclave_id, b"c")
    enclaves.emeas(enclave_id)
    enclaves.eenter(enclave_id)

    core = sys_.primary_core
    core.current_enclave_id = enclave_id
    core.privilege = Privilege.USER
    live = sys_.emcall.invoke(Primitive.EALLOC, {"pages": 32}, core=core)
    analytic = costs.ealloc_cycles(32, EMS_MEDIUM)
    assert abs(live.cs_cycles - analytic) <= EMCALL_POLL_JITTER_CYCLES
