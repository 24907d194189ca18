"""The pluggable rule framework.

A rule is a class with an ``id``, a ``title``, and a ``check(project)``
generator yielding :class:`~repro.analysis.findings.Finding`s. Rules
register themselves with :func:`register`; :func:`all_rules`
instantiates the default catalogue (importing the rule modules pulls
their ``@register`` decorators in).

Adding a rule (see docs/static_analysis.md):

1. create ``repro/analysis/rules/<name>.py`` with a ``@register``-ed
   class exposing ``id``/``title``/``check``;
2. import it from this module's ``all_rules``;
3. add a bad/good fixture twin under ``tests/analysis/fixtures/``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol, Type

from repro.analysis.findings import Finding
from repro.analysis.project import Project


class Rule(Protocol):
    """Structural interface every lint rule implements."""

    id: str
    title: str

    def check(self, project: Project) -> Iterator[Finding]:
        """Yield every violation found in the project."""
        ...  # pragma: no cover - protocol signature only


#: id -> rule class, in registration order.
_REGISTRY: dict[str, Type] = {}


def register(cls: Type) -> Type:
    """Class decorator adding a rule to the default catalogue."""
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules(only: tuple[str, ...] = ()) -> list[Rule]:
    """Instantiate the catalogue (optionally a subset of rule ids)."""
    # Importing the rule modules populates the registry.
    from repro.analysis.rules import (  # noqa: F401
        boundary,
        cycles,
        determinism,
        exceptions,
        faultcoverage,
        lifecycle,
        registry,
        secretflow,
        timing,
    )
    unknown = set(only) - set(_REGISTRY)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}; "
                         f"known: {sorted(_REGISTRY)}")
    return [cls() for rule_id, cls in _REGISTRY.items()
            if not only or rule_id in only]


def rule_catalogue() -> dict[str, str]:
    """id -> title for every registered rule (docs/CLI help)."""
    all_rules()
    return {rule_id: cls.title for rule_id, cls in _REGISTRY.items()}


Checker = Callable[[Project], Iterator[Finding]]
