"""EMS runtime: dispatch, sanity checks, status mapping, scheduling."""

from __future__ import annotations

import pytest

from repro.common.packets import PrimitiveRequest, ResponseStatus
from repro.common.types import Primitive, Privilege
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard


@pytest.fixture
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


@pytest.fixture
def shard(sys_: HyperTEESystem) -> EMSShard:
    """The platform's one EMS, whose runtime is under test."""
    return sys_.shard_pool.shards[0]


def dispatch(sys_: HyperTEESystem, primitive: Primitive, args: dict,
             enclave_id: int | None = None,
             privilege: Privilege = Privilege.SUPERVISOR):
    request = PrimitiveRequest(
        request_id=sys_.rng.randint(1, 10**9, stream="test-req"),
        primitive=primitive, enclave_id=enclave_id,
        privilege=privilege, args=args)
    return sys_.shard_pool.shards[0].runtime.dispatch(request)


def test_ok_dispatch(sys_: HyperTEESystem):
    response = dispatch(sys_, Primitive.ECREATE, {"config": EnclaveConfig()})
    assert response.ok and response.service_cycles > 0
    assert "enclave_id" in response.result


def test_sanity_check_wrong_type(sys_: HyperTEESystem):
    """Section III-B mechanism 3: malformed arguments are rejected."""
    response = dispatch(sys_, Primitive.ECREATE, {"config": "not-a-config"})
    assert response.status is ResponseStatus.SANITY_FAILED
    response = dispatch(sys_, Primitive.EWB, {"pages": "five"})
    assert response.status is ResponseStatus.SANITY_FAILED


def test_sanity_check_missing_arg(sys_: HyperTEESystem):
    response = dispatch(sys_, Primitive.EADD, {"enclave_id": 1})
    assert response.status is ResponseStatus.SANITY_FAILED


def test_user_primitive_needs_stamped_identity(sys_: HyperTEESystem):
    response = dispatch(sys_, Primitive.EALLOC, {"pages": 1},
                        enclave_id=None, privilege=Privilege.USER)
    assert response.status is ResponseStatus.SANITY_FAILED


def test_state_error_mapped(sys_: HyperTEESystem):
    created = dispatch(sys_, Primitive.ECREATE, {"config": EnclaveConfig()})
    enclave_id = created.result["enclave_id"]
    response = dispatch(sys_, Primitive.EENTER, {"enclave_id": enclave_id})
    assert response.status is ResponseStatus.STATE_ERROR


def test_not_authorized_mapped(sys_: HyperTEESystem):
    created = dispatch(sys_, Primitive.ECREATE, {"config": EnclaveConfig()})
    owner = created.result["enclave_id"]
    dispatch(sys_, Primitive.EADD, {"enclave_id": owner, "content": b"c"})
    dispatch(sys_, Primitive.EMEAS, {"enclave_id": owner})
    shm = dispatch(sys_, Primitive.ESHMGET, {"pages": 1},
                   enclave_id=owner, privilege=Privilege.USER)
    other = dispatch(sys_, Primitive.ECREATE,
                     {"config": EnclaveConfig(name="x")}).result["enclave_id"]
    response = dispatch(sys_, Primitive.ESHMAT,
                        {"shm_id": shm.result["shm_id"]},
                        enclave_id=other, privilege=Privilege.USER)
    assert response.status is ResponseStatus.NOT_AUTHORIZED


def test_service_cycles_scale_with_ems_config():
    slow = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                       ems_core="weak"))
    fast = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                       ems_core="strong"))
    r_slow = dispatch(slow, Primitive.ECREATE, {"config": EnclaveConfig()})
    r_fast = dispatch(fast, Primitive.ECREATE, {"config": EnclaveConfig()})
    assert r_slow.service_cycles > r_fast.service_cycles


def test_pump_drains_and_shuffles(shard: EMSShard):
    """Scheduling randomization: responses exist for every request, and
    processing order is not guaranteed to be arrival order."""
    for i in range(8):
        shard.mailbox.push_request(PrimitiveRequest(
            request_id=100 + i, primitive=Primitive.ECREATE,
            enclave_id=None, privilege=Privilege.SUPERVISOR,
            args={"config": EnclaveConfig(name=f"e{i}")}))
    served = shard.runtime.pump()
    assert served == 8
    ids = [shard.mailbox.poll_response(100 + i).result["enclave_id"]
           for i in range(8)]
    assert sorted(ids) == list(range(ids and min(ids), min(ids) + 8))
    assert shard.runtime.stats.served >= 8


def test_stats_track_failures(sys_: HyperTEESystem, shard: EMSShard):
    before = shard.runtime.stats.failed
    dispatch(sys_, Primitive.EMEAS, {"enclave_id": 777})
    assert shard.runtime.stats.failed == before + 1


def test_every_primitive_has_a_handler(shard: EMSShard):
    """Table II coverage: the dispatcher implements all 16 primitives."""
    assert set(shard.runtime._handlers) == set(Primitive)


def test_fabric_probe_records_served_traffic(sys_: HyperTEESystem):
    sys_.ihub.probe.window()
    dispatch(sys_, Primitive.ECREATE, {"config": EnclaveConfig()})
    assert sys_.ihub.probe.window() > 0
