"""The attack harness: run everything against everyone → Table VI.

``defense_matrix`` executes the five attack channels against each TEE
model (a *fresh* model per attack, so runs cannot contaminate each other)
and returns the computed outcome grid. ``expected_paper_matrix`` encodes
the paper's published Table VI for comparison; tests/attacks/test_harness.py
asserts cell-for-cell agreement.
"""

from __future__ import annotations

from typing import Callable

from repro.attacks.comm_attack import communication_attack
from repro.attacks.controlled_channel import (
    allocation_attack,
    page_table_attack,
    swap_attack,
)
from repro.attacks.result import AttackResult
from repro.attacks.side_channel import mgmt_microarch_attack
from repro.baselines.base import TEEInterface
from repro.baselines.catalog import BASELINE_PROFILES, make_baseline
from repro.common.types import AttackOutcome

#: The five Table VI columns, in paper order.
CHANNELS = ("allocation", "page_table", "swap", "communication", "microarch")

_ATTACK_FOR_CHANNEL: dict[str, Callable[[TEEInterface], AttackResult]] = {
    "allocation": allocation_attack,
    "page_table": page_table_attack,
    "swap": swap_attack,
    "communication": communication_attack,
    "microarch": mgmt_microarch_attack,
}


def default_factories() -> dict[str, Callable[[], TEEInterface]]:
    """One factory per Table VI row (fresh instance per attack run)."""
    factories: dict[str, Callable[[], TEEInterface]] = {
        name: (lambda n=name: make_baseline(n)) for name in BASELINE_PROFILES
    }

    def make_hypertee() -> TEEInterface:
        from repro.baselines.hypertee_adapter import HyperTEEAdapter

        return HyperTEEAdapter()

    factories["hypertee"] = make_hypertee
    return factories


def evaluate_tee(factory: Callable[[], TEEInterface]) -> dict[str, AttackResult]:
    """Run all five attack channels against one TEE (fresh per channel)."""
    return {channel: attack(factory())
            for channel, attack in _ATTACK_FOR_CHANNEL.items()}


def defense_matrix(
    factories: dict[str, Callable[[], TEEInterface]] | None = None,
) -> dict[str, dict[str, AttackResult]]:
    """The full computed matrix: tee name -> channel -> result."""
    factories = factories if factories is not None else default_factories()
    return {name: evaluate_tee(factory) for name, factory in factories.items()}


def expected_paper_matrix() -> dict[str, dict[str, AttackOutcome]]:
    """Paper Table VI verbatim.

    Legend: LEAKED = open circle (cannot be defended), DEFENDED = filled
    circle, PARTIAL = half circle.
    """
    L, D, P = AttackOutcome.LEAKED, AttackOutcome.DEFENDED, AttackOutcome.PARTIAL
    rows = {
        "sgx": (L, L, L, L, L),
        "sev": (L, L, L, L, P),
        "tdx": (L, D, L, L, L),
        "cca": (L, D, L, L, L),
        "trustzone": (D, D, D, L, L),
        "keystone": (D, D, D, L, P),
        "penglai": (L, D, L, L, P),
        "cure": (L, D, L, L, P),
        "hypertee": (D, D, D, D, D),
    }
    return {name: dict(zip(CHANNELS, cells)) for name, cells in rows.items()}


def matrix_outcomes(
    matrix: dict[str, dict[str, AttackResult]],
) -> dict[str, dict[str, AttackOutcome]]:
    """Strip a computed matrix down to outcomes for comparison."""
    return {tee: {channel: result.outcome
                  for channel, result in row.items()}
            for tee, row in matrix.items()}
