"""Fuzzing the EMS runtime's request surface.

The sanity-check contract (paper Section III-B, mechanism 3): whatever a
compromised CS sends through the mailbox, the EMS never crashes and
never does anything but return a well-formed response. Hypothesis throws
arbitrarily-typed argument soup at every primitive and asserts the
dispatcher's total behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.packets import PrimitiveRequest, PrimitiveResponse, ResponseStatus
from repro.common.types import Permission, Primitive, Privilege
from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.ems.shardpool import EMSShard

# Argument soup: wrong types, huge ints, negative values, junk keys.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.binary(max_size=64),
    st.text(max_size=16),
    st.sampled_from([Permission.RW, Permission.READ, Permission.NONE]),
    st.lists(st.integers(), max_size=4),
)
_ARGS = st.dictionaries(
    st.sampled_from(["enclave_id", "pages", "vaddr", "content", "config",
                     "shm_id", "receiver_id", "perm", "max_perm",
                     "device_id", "fault_vaddr", "mode", "report_data",
                     "certificate", "challenger_measurement", "junk"]),
    _VALUES, max_size=6)


@pytest.fixture(scope="module")
def sys_() -> HyperTEESystem:
    return HyperTEESystem(SystemConfig(cs_memory_mb=64, ems_memory_mb=4))


@pytest.fixture(scope="module")
def shard(sys_: HyperTEESystem) -> EMSShard:
    """The platform's one EMS, whose runtime is fuzzed."""
    return sys_.shard_pool.shards[0]


@given(primitive=st.sampled_from(list(Primitive)), args=_ARGS,
       enclave_id=st.one_of(st.none(), st.integers(min_value=-5,
                                                   max_value=50)),
       request_id=st.integers(min_value=1, max_value=2**31))
@settings(max_examples=300, deadline=None)
def test_dispatch_is_total(shard: EMSShard, primitive, args,
                           enclave_id, request_id):
    """Any request yields a PrimitiveResponse; no exception escapes."""
    request = PrimitiveRequest(
        request_id=request_id, primitive=primitive,
        enclave_id=enclave_id, privilege=Privilege.SUPERVISOR, args=args)
    response = shard.runtime.dispatch(request)
    assert isinstance(response, PrimitiveResponse)
    assert response.request_id == request_id
    assert isinstance(response.status, ResponseStatus)
    assert response.service_cycles >= 0


@given(args=_ARGS)
@settings(max_examples=100, deadline=None)
def test_fuzzed_requests_never_leak_frames(sys_: HyperTEESystem,
                                           shard: EMSShard, args):
    """Failed requests must not leak pool frames or ownership claims."""
    used_before = shard.pool.used_count
    request = PrimitiveRequest(
        request_id=sys_.rng.randint(1, 2**31, stream="fuzz"),
        primitive=Primitive.EALLOC, enclave_id=None,
        privilege=Privilege.USER, args=args)
    response = shard.runtime.dispatch(request)
    if not response.ok:
        assert shard.pool.used_count == used_before


def test_platform_still_functional_after_fuzzing(shard: EMSShard):
    """After the fuzz barrage the platform serves real work normally."""
    from repro.core.enclave import EnclaveConfig

    result, _, _ = shard.enclaves.ecreate(EnclaveConfig(name="post-fuzz"))
    enclave_id = result["enclave_id"]
    shard.enclaves.eadd(enclave_id, b"code")
    shard.enclaves.emeas(enclave_id)
    shard.enclaves.eenter(enclave_id)
    alloc, _, _ = shard.pages.ealloc(enclave_id, 2)
    assert alloc["pages"] == 2
