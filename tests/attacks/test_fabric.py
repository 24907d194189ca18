"""On-chip fabric traffic observation (paper Section VIII-C).

An interconnect observer sees the volume of EMS-side fabric transactions
per window, nothing more. Isolated service of a single victim primitive
would make that a channel; HyperTEE's concurrent, primitive-granularity
scheduling mixes many tasks' traffic into every observable window.
"""

from __future__ import annotations

import statistics

from repro.attacks.controlled_channel import make_secret
from repro.attacks.result import outcome_from_accuracy, recovery_accuracy
from repro.common.packets import PrimitiveRequest
from repro.common.types import AttackOutcome, Permission, Primitive, Privilege
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem

LIGHT_PAGES, HEAVY_PAGES = 1, 48


def make_platform(tenants: int) -> tuple[HyperTEESystem, int, list[int]]:
    """A platform with one victim enclave and ``tenants`` co-tenants."""
    sys_ = HyperTEESystem(SystemConfig(cs_memory_mb=96, ems_memory_mb=4))
    enclaves = sys_.shard_pool.shards[0].enclaves

    def launch(name: str) -> int:
        result, _, _ = enclaves.ecreate(
            EnclaveConfig(name=name, heap_pages_max=16384))
        enclave_id = result["enclave_id"]
        enclaves.eadd(enclave_id, name.encode())
        enclaves.emeas(enclave_id)
        enclaves.eenter(enclave_id)
        enclaves.eexit(enclave_id)
        return enclave_id

    victim = launch("victim")
    others = [launch(f"tenant{i}") for i in range(tenants)]
    return sys_, victim, others


def observe_windows(secret: list[int], tenants: int) -> list[int]:
    """One fabric-window reading per secret bit."""
    sys_, victim, others = make_platform(tenants)
    ems = sys_.shard_pool.shards[0]
    request_id = iter(range(10_000, 100_000))
    rng = sys_.rng.stream("fabric-test")
    windows = []
    for bit in secret:
        sys_.ihub.probe.window()  # reset
        pages = HEAVY_PAGES if bit else LIGHT_PAGES
        ems.mailbox.push_request(PrimitiveRequest(
            next(request_id), Primitive.EALLOC, victim,
            Privilege.USER, {"pages": pages, "perm": Permission.RW}))
        for tenant in others:
            ems.mailbox.push_request(PrimitiveRequest(
                next(request_id), Primitive.EALLOC, tenant,
                Privilege.USER, {"pages": rng.randint(1, 128),
                                 "perm": Permission.RW}))
        ems.runtime.pump()  # all requests served in one round: traffic mixes
        windows.append(sys_.ihub.probe.window())
    return windows


def classify(windows: list[int]) -> list[int]:
    """Median-split classifier over window volumes."""
    median = statistics.median(windows)
    return [1 if w > median else 0 for w in windows]


def accuracy_for(secret: list[int], windows: list[int]) -> float:
    """Best-polarity classification accuracy."""
    acc = recovery_accuracy(secret, classify(windows))
    return max(acc, 1.0 - acc)


def test_isolated_service_would_leak():
    """With the victim alone on the EMS, window volume reads the secret —
    the channel is real, which is why mixing matters."""
    secret = make_secret(16)
    windows = observe_windows(secret, tenants=0)
    assert outcome_from_accuracy(accuracy_for(secret, windows)) \
        is AttackOutcome.LEAKED


def test_concurrent_service_defends():
    """With co-tenant primitives mixed into every window, the observer
    cannot recover the secret."""
    secret = make_secret(16)
    windows = observe_windows(secret, tenants=8)
    assert outcome_from_accuracy(accuracy_for(secret, windows)) \
        is not AttackOutcome.LEAKED


def test_probe_sees_counts_only():
    """The probe exposes an integer per window — no addresses, no task
    identity, nothing decodable."""
    sys_, victim, _ = make_platform(0)
    sys_.ihub.probe.record(5)
    value = sys_.ihub.probe.window()
    assert isinstance(value, int)
    assert sys_.ihub.probe.window() == 0  # reading resets the window
