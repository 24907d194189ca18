"""The OWN sanitizer: double-grants, transfer windows, fleet hygiene.

Unit tests drive the manager hooks directly with fake tables; the
integration tests run the sharded transfer scenario and assert the
sealed prepare/commit protocol stays clean. The transfer's refusals
themselves are pinned by ``tests/ems/test_shardpool.py``.
"""

from __future__ import annotations

import pytest

from repro.sanitize.manager import SanitizerManager


@pytest.fixture
def manager() -> SanitizerManager:
    return SanitizerManager(("own",))


class _Table:
    """Identity stand-in for a PageOwnershipTable."""


def test_cross_table_double_grant_fires(manager):
    a, b = _Table(), _Table()
    manager.on_claim(a, [17], "enclave:7")
    assert manager.ok()
    manager.on_claim(b, [17], "enclave:8")
    assert not manager.ok()
    v = manager.violations[0]
    assert v.kind == "DOUBLE-GRANT"
    assert "frame 17" in v.message


def test_same_owner_reclaim_is_not_a_double_grant(manager):
    table = _Table()
    manager.on_claim(table, [4], "enclave:1")
    manager.on_claim(table, [4], "enclave:1")  # idempotent re-record
    assert manager.ok()


def test_release_then_claim_elsewhere_is_clean(manager):
    a, b = _Table(), _Table()
    manager.on_claim(a, [5], "enclave:1")
    manager.on_release(a, [5], "enclave:1")
    manager.on_claim(b, [5], "enclave:2")
    assert manager.ok()
    assert manager.own.live_grants() == 1


def test_pool_take_of_owned_frame_fires(manager):
    manager.on_claim(_Table(), [30, 31], "enclave:3")
    manager.on_pool_take(None, [31], "enclave:9")
    assert not manager.ok()
    assert "pool handed out frame 31" in manager.violations[0].message


def test_raw_write_inside_prepare_window_fires(manager):
    from repro.common.constants import PAGE_SIZE

    manager.on_transfer_prepare(42, [100, 101], 0, 1)
    manager.on_raw_write(None, 100 * PAGE_SIZE + 8, b"mutation")
    assert not manager.ok()
    v = manager.violations[0]
    assert v.kind == "ACCESS-AFTER-PREPARE"
    assert "enclave 42" in v.message
    # Writes outside the window's frames stay clean.
    manager.violations.clear()
    manager.on_raw_write(None, 300 * PAGE_SIZE, b"elsewhere")
    assert manager.ok()
    # Commit closes the window.
    manager.on_transfer_manifest_verified(42)
    manager.on_transfer_commit(42, 0, 1)
    manager.on_raw_write(None, 100 * PAGE_SIZE, b"fine now")
    assert manager.ok()


def test_ownership_mutation_before_verification_fires(manager):
    manager.on_transfer_prepare(7, [50], 0, 1)
    manager.on_claim(_Table(), [50], "enclave:7")
    assert any(v.kind == "UNVERIFIED-MUTATION"
               for v in manager.violations)


def test_verified_transfer_mutations_are_clean(manager):
    src, dst = _Table(), _Table()
    manager.on_claim(src, [60], "enclave:9")
    manager.on_transfer_prepare(9, [60], 0, 1)
    manager.on_transfer_manifest_verified(9)
    manager.on_release(src, [60], "enclave:9")
    manager.on_claim(dst, [60], "enclave:9")
    manager.on_transfer_commit(9, 0, 1)
    assert manager.ok()
    assert manager.own.open_transfers() == 0


def test_commit_without_verification_fires(manager):
    manager.on_transfer_prepare(3, [70], 1, 0)
    manager.on_transfer_commit(3, 1, 0)
    assert not manager.ok()
    assert "without a verified manifest" in manager.violations[0].message


def test_abort_closes_the_window_silently(manager):
    manager.on_transfer_prepare(4, [80], 0, 1)
    manager.on_transfer_abort(4)
    assert manager.own.open_transfers() == 0
    manager.on_claim(_Table(), [80], "enclave:4")
    assert manager.ok()


def test_shard_transfer_scenario_is_clean():
    from repro.sanitize.scenario import run_sanitized_shard_scenario

    manager = run_sanitized_shard_scenario(sanitizers=("secret", "own"))
    manager.check_clean("shard-transfer")
    assert manager.stats.claims_checked > 0
    # The scenario ran exactly one cross-shard transfer: its prepare /
    # verify / commit phases must all be in the recorded event stream.
    assert manager.own.open_transfers() == 0


def test_interrupted_transfer_stays_clean():
    """An interrupted transfer aborts its window; no false positives."""
    from repro.core.api import HyperTEE
    from repro.core.config import SystemConfig
    from repro.core.enclave import EnclaveConfig
    from repro.errors import TransferInterrupted
    from repro.faults import FaultPlan, FaultRule

    tee = HyperTEE(SystemConfig(ems_shards=2))
    manager = tee.system.enable_sanitizers(("own",)).san
    enclave = tee.launch_enclave(b"own interrupt enclave " * 16,
                                 EnclaveConfig(name="own-int",
                                               heap_pages_max=8))
    pool = tee.system.shard_pool
    src = pool.resolve(enclave.enclave_id)
    dst = (src + 1) % pool.num_shards
    tee.system.enable_fault_injection(FaultPlan(seed=1, rules=(
        FaultRule("ems.transfer.interrupt", probability=1.0),)))
    with pytest.raises(TransferInterrupted):
        pool.transfer_enclave(enclave.enclave_id, dst)
    tee.system.enable_fault_injection(FaultPlan(seed=1, rules=()))
    assert manager.own.open_transfers() == 0
    # The enclave still lives on the source shard and keeps working.
    with enclave.running():
        vaddr = enclave.ealloc(1)
        enclave.write(vaddr, b"still here")
        enclave.efree(vaddr)
    enclave.destroy()
    manager.check_clean("interrupted-transfer")


def test_seeded_double_grant_is_detected_end_to_end():
    from repro.sanitize.cli import _seed_own_violation

    manager = _seed_own_violation(seed=0x1EE7)
    assert not manager.ok()
    assert manager.violations[0].kind == "DOUBLE-GRANT"
    assert any("own.claim" in line
               for v in manager.violations for line in v.trail)
