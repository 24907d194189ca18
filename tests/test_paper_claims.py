"""The paper's headline claims, as plain tests.

``python -m repro`` regenerates every table and figure from the data
functions in ``repro.eval.regenerate``; this module reads the same
functions and distills the abstract's quantitative claims into fast
assertions:

* "less than 1% area overhead";
* "2.0% and 1.9% performance overhead on average for enclaves and
  non-enclave workloads";
* the Fig. 12 communication speedups;
* HyperTEE's clean Table VI row against SGX's open one.
"""

from __future__ import annotations

import pytest

from repro.attacks.harness import CHANNELS, default_factories, evaluate_tee
from repro.common.types import AttackOutcome
from repro.eval.area import table5_rows
from repro.eval.regenerate import fig7_rows, fig10_rows, fig12_rows
from repro.workloads.dnn import MLP_MODELS


def test_area_claim_under_one_percent():
    """Abstract: 'less than 1% area overhead'."""
    assert all(row.overhead_pct <= 1.0 for row in table5_rows())


def test_enclave_overhead_claim_two_percent():
    """Abstract: '2.0% performance overhead on average for enclaves'
    (Fig. 7, medium EMS)."""
    average = fig7_rows()["average"]["medium"]
    assert average * 100 == pytest.approx(2.0, abs=0.3)


def test_nonenclave_overhead_claim_1_9_percent():
    """Abstract: '1.9% ... for non-enclave workloads' (Fig. 10, bitmap
    checking)."""
    average = fig10_rows()["average"]
    assert average * 100 == pytest.approx(1.9, abs=0.2)


def test_communication_speedup_claims():
    """Section VII-D: >4.0x ResNet50, >27.7x MLPs, ~50x NIC (Fig. 12)."""
    rows = fig12_rows()
    assert rows["resnet50"]["speedup"] > 4.0
    assert all(rows[m.name]["speedup"] > 27.7 for m in MLP_MODELS)
    assert rows["nic-stream"]["speedup"] == pytest.approx(50.0, abs=1.0)


def test_hypertee_defends_where_sgx_leaks():
    """The Table VI contrast, on the two extreme rows."""
    factories = default_factories()
    hyper = evaluate_tee(factories["hypertee"])
    sgx = evaluate_tee(factories["sgx"])
    for channel in CHANNELS:
        assert hyper[channel].outcome is AttackOutcome.DEFENDED, channel
        assert sgx[channel].outcome is AttackOutcome.LEAKED, channel
