"""Span tracer for the traced run, installed from outside the program.

The tracer replaces each layer's public functions (see ``layers.py``) with
a wrapper that records one span per call: function, start, end, parent span
and op id. Spans live in flat integer arrays while the run lasts and are
written out when it ends. Nothing under ``src/`` knows about the tracer.

Three rules keep the wrappers valid as the program changes:

* Targets are resolved by module and qualified name when the tracer is
  installed. A missing one is recorded as unresolved; it never raises.
* The tracer must be installed before any platform is built. Some
  components capture bound methods during construction (the EMCall gate
  keeps ``EMSRuntime.pump``), and a later patch would miss those.
* A module-level function is patched in every loaded ``repro`` module that
  holds it, because modules import it by name (``truncated_mac`` in
  ``repro.hw.encryption_engine``).
"""

from __future__ import annotations

import collections
import fnmatch
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

from layers import LAYERS, Layer

#: Counters recorded at layer boundaries, from a wrapped call's
#: arguments, keyword arguments and result.
Observer = Callable[[tuple, dict, Any, bool, "collections.Counter[str]"],
                    None]


def _count_tlb(args, kwargs, result, outer, counts) -> None:
    counts["tlb.lookups"] += 1
    if result is not None:
        counts["tlb.hits"] += 1


def _count_poll(args, kwargs, result, outer, counts) -> None:
    counts["mailbox.polls"] += 1
    if result is not None:
        counts["mailbox.responses"] += 1


def _count_pump(args, kwargs, result, outer, counts) -> None:
    counts["runtime.pumps"] += 1
    if not result:
        counts["runtime.empty_pumps"] += 1


def _count_gate(args, kwargs, result, outer, counts) -> None:
    # Only the outermost gate call counts: a sharded gate forwards to a
    # per-shard gate, and that is one call as the caller sees it.
    if outer:
        counts["emcall.calls"] += 1
        counts["emcall.attempts"] += getattr(result, "attempts", 1)


def _count_zeroed(args, kwargs, result, outer, counts) -> None:
    counts["memory.frames_zeroed"] += 1


def _count_blocks(cipher, start: int, length: int, counts) -> None:
    """The keystream blocks that cover positions [start, start+length)."""
    if length > 0:
        block = cipher.BLOCK
        counts["cipher.blocks"] += ((start + length - 1) // block
                                    - start // block + 1)


# The cipher computes every block of the window each call asks for, so
# blocks are counted per call from that window, not per block: a wrapper
# on each block's hash would itself be timed as cipher time. Both calls
# return as many bytes as the window holds.


def _count_encrypt(args, kwargs, result, outer, counts) -> None:
    if outer:
        tweak = args[2] if len(args) > 2 else kwargs.get("tweak", 0)
        _count_blocks(args[0], tweak, len(result), counts)


def _count_keystream(args, kwargs, result, outer, counts) -> None:
    if outer:
        start = args[1] if len(args) > 1 else kwargs["start"]
        _count_blocks(args[0], start, len(result), counts)


#: (module, qualified name) -> observer of the call.
OBSERVERS: dict[tuple[str, str], Observer] = {
    ("repro.hw.tlb", "TLB.lookup"): _count_tlb,
    ("repro.hw.mailbox", "Mailbox.poll_response"): _count_poll,
    ("repro.ems.runtime", "EMSRuntime.pump"): _count_pump,
    ("repro.cs.emcall", "EMCall.invoke"): _count_gate,
    ("repro.cs.emcall", "EMCall.invoke_batch"): _count_gate,
    ("repro.cs.emcall", "ShardedEMCall.invoke"): _count_gate,
    ("repro.cs.emcall", "ShardedEMCall.invoke_batch"): _count_gate,
    ("repro.hw.memory", "PhysicalMemory.zero_frame"): _count_zeroed,
    ("repro.crypto.cipher", "KeystreamCipher.encrypt"): _count_encrypt,
    ("repro.crypto.cipher", "KeystreamCipher.keystream"): _count_keystream,
}

#: Op id of spans outside any op (set-up, checks).
NO_OP = -1


def import_program(package: str = "repro") -> None:
    """Import every module of ``package`` so name imports can be patched.

    Platform construction imports some modules lazily; importing them
    all first means a function imported by name is patched everywhere.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Tracer:
    """Records spans at the layer boundaries named in ``layers.py``."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.layer_names = [layer.name for layer in layers]
        #: Per wrapped function: its "module:qualname" and layer index.
        self.functions: list[str] = []
        self.function_layer: list[int] = []
        #: Span columns; index i of each array is span i. Times are
        #: ``perf_counter_ns``; ids fit 32 bits, which halves their memory.
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        #: [current span index, current op id]; shared with every wrapper.
        self._state = [-1, NO_OP]
        #: Boundary counts, taken only inside ops (op id >= 0).
        self.counts: collections.Counter[str] = collections.Counter()
        #: Targets that did not resolve, as "module:qualname (reason)".
        self.unresolved: list[str] = []
        #: Layers with at least one resolved target.
        self.present: set[str] = set()
        self._restore: list[tuple[Any, str, Any]] = []
        self._wrapped: set[int] = set()

    # -- op ids ------------------------------------------------------------

    def set_op(self, op: int) -> None:
        """Tag spans opened from now on with ``op`` (``NO_OP`` outside)."""
        self._state[1] = op

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Resolve every target and wrap it; call before building a platform."""
        import_program()
        for layer_index, layer in enumerate(self.layers):
            for module_name, qualname in layer.targets:
                reason = self._install_target(layer_index, module_name,
                                              qualname)
                if reason is None:
                    self.present.add(layer.name)
                else:
                    self.unresolved.append(f"{module_name}:{qualname} ({reason})")

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._wrapped.clear()

    def _install_target(self, layer_index: int, module_name: str,
                        qualname: str) -> str | None:
        """Wrap one target; returns why it did not resolve, or None."""
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            return f"import failed: {exc}"
        if "." not in qualname:
            function = getattr(module, qualname, None)
            if not inspect.isfunction(function):
                return "no such function"
            self._wrap_function(layer_index, module_name, qualname, function)
            return None
        class_name, pattern = qualname.split(".", 1)
        cls = getattr(module, class_name, None)
        if not inspect.isclass(cls):
            return "no such class"
        names = _matching_methods(cls, pattern)
        if not names:
            return "no such method"
        for name in names:
            owner = next(k for k in cls.__mro__ if name in vars(k))
            self._wrap_method(layer_index, module_name,
                              f"{class_name}.{name}", owner, name)
        return None

    def _wrap_method(self, layer_index: int, module_name: str,
                     qualname: str, owner: type, name: str) -> None:
        raw = vars(owner)[name]
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        if id(function) in self._wrapped:
            return
        wrapper = self._make_wrapper(layer_index, module_name, qualname,
                                     function)
        self._patch(owner, name, staticmethod(wrapper) if is_static
                    else wrapper)

    def _wrap_function(self, layer_index: int, module_name: str,
                       qualname: str, function) -> None:
        if id(function) in self._wrapped:
            return
        wrapper = self._make_wrapper(layer_index, module_name, qualname,
                                     function)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").split(".")[0] == "repro"
                    and getattr(module, qualname, None) is function):
                self._patch(module, qualname, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _make_wrapper(self, layer_index: int, module_name: str,
                      qualname: str, function):
        self._wrapped.add(id(function))
        fid = len(self.functions)
        self.functions.append(f"{module_name}:{qualname}")
        self.function_layer.append(layer_index)
        observe = OBSERVERS.get((module_name, qualname))
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends = self.start, self.end
        state = self._state
        counts = self.counts
        function_layer = self.function_layer
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(fids)
            parent, op = state
            fids.append(fid)
            parents.append(parent)
            ops.append(op)
            ends.append(0)
            state[0] = index
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                state[0] = parent
            if observe is not None and op >= 0:
                outer = (parent < 0
                         or function_layer[fids[parent]] != layer_index)
                observe(args, kwargs, result, outer, counts)
            return result

        traced.__wrapped__ = function
        traced.__name__ = function.__name__
        traced.__qualname__ = function.__qualname__
        traced.__doc__ = function.__doc__
        return traced

    # -- output ------------------------------------------------------------

    def columns(self):
        """The span columns as numpy arrays (fid, parent, op, start, end)."""
        return tuple(np.frombuffer(column, dtype=np.dtype(column.typecode))
                     if len(column) else np.zeros(0, dtype=column.typecode)
                     for column in (self.fid, self.parent, self.op,
                                    self.start, self.end))

    def write(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``) with the name tables."""
        fid, parent, op, start, end = self.columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, fid=fid, parent=parent, op=op, start=start, end=end,
            functions=np.array(self.functions, dtype=str),
            function_layer=np.array(self.function_layer, dtype=np.int64),
            layers=np.array(self.layer_names, dtype=str))


def _matching_methods(cls: type, pattern: str) -> list[str]:
    """Plain methods of ``cls`` matching ``pattern``.

    A wildcard pattern takes public methods defined on the class itself;
    an exact name may be inherited. Context-manager and generator methods
    are skipped: a span around them would end before their body runs.
    """
    if any(ch in pattern for ch in "*?["):
        candidates = [name for name in vars(cls)
                      if not name.startswith("_")
                      and fnmatch.fnmatchcase(name, pattern)]
    else:
        candidates = [pattern] if any(pattern in vars(k)
                                      for k in cls.__mro__) else []
    names = []
    for name in candidates:
        owner = next(k for k in cls.__mro__ if name in vars(k))
        raw = vars(owner)[name]
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        if (inspect.isfunction(function)
                and not inspect.isgeneratorfunction(function)
                and not hasattr(function, "__wrapped__")):
            names.append(name)
    return sorted(names)
