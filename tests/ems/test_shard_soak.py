"""Soak: thousands of serve ops across 4 shards with per-step invariants.

The serve driver's load loop (launch / enter / memory / batch / attest /
exit / migrate / destroy, seeded op mix) runs long enough to cycle many
enclave generations through every shard, and a per-step hook asserts
the fleet invariants the chaos suite checks only at the end:

* **Owner uniqueness** — no enclave ID resident on two shards at once.
* **Frame conservation** — every shard's ``used + free == capacity``;
  transfers move accounting, never create or leak it.
* **SLO report well-formedness** — the report the run emits has sane
  quantile rows at every sampling point, not just at the end.

Marked ``slow``: the fast loop runs the conformance suite instead.
"""

from __future__ import annotations

import pytest

from repro.core.api import HyperTEE
from repro.eval.serve import ServeConfig, run_serve
from tests.faults.chaoslib import check_invariants

pytestmark = pytest.mark.slow

SOAK_OPS = 2400
SOAK_SHARDS = 4
CHECK_EVERY = 20


def test_serve_soak_holds_invariants():
    """The multi-thousand-op drive never violates a fleet invariant."""
    slo_samples = []

    def invariants(step: int, tee: HyperTEE) -> None:
        if (step + 1) % CHECK_EVERY:
            return
        check_invariants(tee.system)  # uniqueness + conservation
        rows = tee.system.obs.slo.report()
        assert rows, "SLO engine lost its samples mid-run"
        for row in rows:
            assert row["count"] > 0
            assert row["p50"] is not None and row["p50"] >= 0
            assert row["p99"] >= row["p50"]
        slo_samples.append(len(rows))

    report = run_serve(
        ServeConfig(shards=SOAK_SHARDS, workers=4, ops=SOAK_OPS,
                    seed=0x50AC),
        on_step=invariants)

    assert slo_samples, "the invariant hook never ran"
    totals = report["totals"]
    assert totals["steps"] == SOAK_OPS
    assert totals["degraded"] == 0, "clean weather must not degrade"
    assert totals["completed"] == SOAK_OPS
    assert not report["starvation"]["starved"]

    # The soak actually soaked: transfers happened, every shard served,
    # and many enclave generations cycled through.
    assert totals["transfers"] > 0
    per_shard = report["shards"]["per_shard"]
    assert len(per_shard) == SOAK_SHARDS
    assert all(row["served"] > 0 for row in per_shard)
    assert sum(row["served"] for row in per_shard) == \
        totals["requests_served"]
    # Nothing left behind at the end: the final accounting balances.
    for row in per_shard:
        assert row["pool_used"] + row["pool_free"] == row["pool_capacity"]
