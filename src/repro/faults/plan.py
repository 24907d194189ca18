"""The declarative fault schedule: :class:`FaultRule` and :class:`FaultPlan`.

A plan is pure data — frozen, serializable, hashable — so chaos tests can
sweep seeded plans and every run is reproducible from ``(plan, seed)``
alone. The injector (:mod:`repro.faults.injector`) interprets it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.errors import FaultConfigError

#: The fault-point catalog: every name an injector will ever consult,
#: with the meaning of the rule's ``magnitude`` at that point.
FAULT_POINTS: dict[str, str] = {
    # -- mailbox (hw/mailbox.py) -------------------------------------------
    "mailbox.request.drop":
        "request packet vanishes in flight (magnitude unused)",
    "mailbox.request.corrupt":
        "request packet arrives CRC-broken; the EMS Rx edge discards it",
    "mailbox.request.duplicate":
        "request packet is delivered twice; the Rx sequence check drops "
        "the second copy",
    "mailbox.response.drop":
        "response packet vanishes in flight (magnitude unused)",
    "mailbox.response.corrupt":
        "response packet arrives CRC-broken; EMCall's Rx edge discards it",
    "mailbox.response.duplicate":
        "response packet is delivered twice; the duplicate is discarded",
    "mailbox.queue_full":
        "the request queue reports full for the next `magnitude` pushes "
        "(a backpressure burst)",
    "fabric.latency":
        "one mailbox transfer leg takes `magnitude` extra CS cycles",
    # -- EMS runtime (ems/runtime.py) --------------------------------------
    "mailbox.batch.element_corrupt":
        "one element inside a batch envelope arrives CRC-broken; the EMS "
        "Rx edge answers TRANSIENT for that element alone (its handler "
        "never runs) so only it is replayed (magnitude unused)",
    "ems.handler.exception":
        "the handler crashes before touching state; the runtime answers "
        "TRANSIENT (magnitude unused)",
    "ems.handler.stall":
        "the handler takes `magnitude` extra EMS cycles and its response "
        "is posted late (deferred pump rounds)",
    "ems.core.pause":
        "the EMS core stops pumping for `magnitude` pump rounds",
    # -- EMS shard pool (ems/shardpool.py) ---------------------------------
    "ems.shard.fail":
        "one EMS shard stops pumping for `magnitude` pump rounds while "
        "its siblings keep serving (a shard outage)",
    "ems.transfer.interrupt":
        "a cross-shard ownership transfer aborts between prepare and "
        "commit; no state moves and the transfer may be retried "
        "(magnitude unused)",
}


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One line of adversarial weather at one fault point.

    ``probability`` is the per-opportunity chance of firing; ``after``
    skips the first N opportunities (so boot can complete cleanly);
    ``count`` caps total firings (``None`` = unlimited); ``magnitude``
    is point-specific (cycles, pump rounds, or burst length — see
    :data:`FAULT_POINTS`).
    """

    point: str
    probability: float = 1.0
    count: int | None = None
    after: int = 0
    magnitude: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise FaultConfigError(
                f"unknown fault point {self.point!r}; known points: {known}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError(
                f"{self.point}: probability must be in [0, 1], "
                f"got {self.probability}")
        if self.count is not None and self.count < 0:
            raise FaultConfigError(f"{self.point}: count must be >= 0")
        if self.after < 0:
            raise FaultConfigError(f"{self.point}: after must be >= 0")
        if self.magnitude < 0:
            raise FaultConfigError(f"{self.point}: magnitude must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (the schema in docs/fault_injection.md)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultRule":
        """Inverse of :meth:`to_dict`; validates on construction."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise FaultConfigError(f"unknown FaultRule fields: {sorted(unknown)}")
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seed plus the full rule schedule for one chaos run."""

    seed: int = 0xFA017
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def empty(cls, seed: int = 0xFA017) -> "FaultPlan":
        """A plan that injects nothing (the non-interference baseline)."""
        return cls(seed=seed, rules=())

    @classmethod
    def build(cls, rules: Iterable[FaultRule | dict],
              seed: int = 0xFA017) -> "FaultPlan":
        """Build from rules or rule dicts (test/CLI convenience)."""
        normalized = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in rules)
        return cls(seed=seed, rules=normalized)

    def rules_for(self, point: str) -> tuple[FaultRule, ...]:
        """Every rule targeting ``point``, in plan order."""
        return tuple(rule for rule in self.rules if rule.point == point)

    @property
    def is_empty(self) -> bool:
        return not self.rules

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form, JSON-serializable."""
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls.build(data.get("rules", ()), seed=data.get("seed", 0xFA017))
