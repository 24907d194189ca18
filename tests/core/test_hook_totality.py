"""Hook totality: no component is left half-instrumented.

After ``enable_observability``, ``enable_fault_injection`` and
``enable_sanitizers``, every object reachable from the system that holds
an ``obs``, ``faults`` or ``san`` attribute whose value is ``None`` or a
hook object must hold the system's own hook. Reachability is computed
here, independently of the system's wiring: a walk through ``vars()``,
``__slots__``, bound methods and containers of ``repro.*`` objects. A
component the wiring forgets — on any shard — shows up as a ``None``.

The value test matters: ``IOMMUStats.faults`` is an integer counter, not
a hook, and is left alone.
"""

from __future__ import annotations

import collections
import types

import pytest

from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.probes import Observability
from repro.sanitize.manager import SanitizerManager

HOOKS = ("obs", "faults", "san")
HOOK_TYPES = (Observability, FaultInjector, SanitizerManager)
CONTAINERS = (list, tuple, set, frozenset, collections.deque)


def _is_repro(obj) -> bool:
    return type(obj).__module__.startswith("repro.")


def _children(obj):
    """The objects ``obj`` refers to that the walk follows."""
    if isinstance(obj, dict):
        yield from obj.keys()
        yield from obj.values()
    elif isinstance(obj, CONTAINERS):
        yield from obj
    elif isinstance(obj, types.MethodType):
        yield obj.__self__
    elif _is_repro(obj):
        yield from getattr(obj, "__dict__", {}).values()
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    yield getattr(obj, name)


def _reachable(root):
    """Every object reachable from ``root``, each once."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(_children(obj))


def _unhooked(system) -> list[str]:
    """``Class.hook`` for each reachable hook slot not holding the system's."""
    expected = {"obs": system.obs, "faults": system.faults,
                "san": system.san}
    missing = []
    for obj in _reachable(system):
        if not _is_repro(obj):
            continue
        for hook in HOOKS:
            value = getattr(obj, hook, False)
            if (value is None or isinstance(value, HOOK_TYPES)) \
                    and value is not expected[hook]:
                missing.append(f"{type(obj).__name__}.{hook}")
    return missing


@pytest.mark.parametrize("shards", (1, 4))
def test_every_reachable_hook_holds_the_systems(shards: int):
    """All three hooks reach every shard's and every core's components."""
    system = HyperTEESystem(SystemConfig(
        cs_memory_mb=48, ems_memory_mb=4, cs_cores=2,
        ems_shards=shards))
    system.enable_observability()
    system.enable_fault_injection(FaultPlan.empty())
    system.enable_sanitizers()
    assert _unhooked(system) == []
