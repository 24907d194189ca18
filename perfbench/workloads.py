"""The three workloads, their set-up, and the checks on their simulated outputs.

Every workload is one process, one thread, the default engine, and goes
through the public API only. Inputs come from ``--seed``; the op count is
fixed by the caller, so two commits simulate identical work. Every number
the benchmark reports is host time; modelled cycles are outputs to check.

Why these three (the layer shares are from the traced baseline in
``README.md``):

* ``serve`` drives ``run_serve`` at its CLI defaults: 4 EMS shards,
  3 workers, observability on, EWB every 50 steps, a transfer every 3rd
  generation. One op is one serve step. It is the load driver users run,
  and the only workload with obs hooks on, more than one shard,
  cross-shard transfers, and key churn (every enclave generation
  zero-fills fresh frames under a fresh key). Hook-seam changes,
  construction-path changes and datapath caches that lose on cold keys
  show their cost here.
* ``enclave_io`` is one entered enclave on 1 shard with obs off, whose
  heap working set (48 pages) is larger than the 32-entry dTLB. One op
  stores a 4 KiB page of content never seen at that page, loads it back,
  and makes three line-sized accesses elsewhere in the set. No primitive
  runs in the window, so it isolates the memory datapath (98% of its
  host time, 84% of serve's). A transport change should read as no
  change here.
* ``control_plane`` is 1 shard with obs off and a fleet of 16 measured
  enclaves. One op is a session on the next enclave: EENTER, a scalar
  EATTEST, a 4-element batched EATTEST envelope, EEXIT. That is 7 EMS
  requests, with no page granted or zero-filled. Gate, mailbox and
  runtime take 48% of its host time, attestation and signing 37%, and
  the keystream cipher none: the reverse of ``enclave_io``. It also runs
  both the scalar and the batch gate paths.

``regen`` is left out on purpose: it runs 0.4 s in total, 0.3 s of which
is the Table VI attack matrix going through the datapath that
``enclave_io`` already measures.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import resource
import time
from typing import Callable

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.types import Primitive
from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.errors import HyperTEEError
from repro.eval.serve import ServeConfig, run_serve

#: Timed platform set-ups before and after the window; ``setup_s`` is
#: the fastest. Bursts of host load last seconds, long enough to slow
#: every set-up of one group, so the groups sit on both sides of the
#: window. The first set-up of a process is discarded: lazy imports in
#: ``HyperTEESystem.__init__`` cost about 45 ms the first time.
SETUPS_BEFORE = 5
SETUPS_AFTER = 6
#: enclave_io heap working set in pages (the dTLB holds 32 entries).
IO_PAGES = 48
#: control_plane fleet size and batched-envelope width.
CP_FLEET = 16
CP_BATCH = 4
#: control_plane verifies the quotes of every Nth op with the CA.
CP_VERIFY_EVERY = 8

clock = time.perf_counter
clock_ns = time.perf_counter_ns
OpTag = Callable[[int], None]


@dataclasses.dataclass
class Measurement:
    """What one run of one workload measured and checked."""

    workload: str
    seed: int
    ops: int
    setup_s: list[float] = dataclasses.field(default_factory=list)
    #: The timed set-ups as [start, end] in ``perf_counter_ns`` time.
    setup_ns: list[list[int]] = dataclasses.field(default_factory=list)
    #: Host seconds of each op in the window, in op order.
    op_s: list[float] = dataclasses.field(default_factory=list)
    #: Seconds from the window start to the end of each op and its checks.
    op_end_s: list[float] = dataclasses.field(default_factory=list)
    window_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Host-speed probe before and after the window (diagnostic only).
    probe_ms: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    #: Ops of the window that failed, degraded or mis-verified; at most
    #: ``attempted``.
    failed: int = 0
    #: False when a check on the whole window failed; that counts no op.
    window_ok: bool = True
    #: The first few failure messages.
    failures: list[str] = dataclasses.field(default_factory=list)
    #: Simulated outputs; equal across traced and untraced runs.
    outputs: dict = dataclasses.field(default_factory=dict)

    def add_setup(self, start_ns: int, end_ns: int) -> None:
        """Record one timed set-up."""
        self.setup_ns.append([start_ns, end_ns])
        self.setup_s.append((end_ns - start_ns) / 1e9)

    def fail(self, message: str) -> None:
        """Count one failed op."""
        self.failed += 1
        self._note(message)

    def fail_window(self, message: str) -> None:
        """Record a failed check on the whole window."""
        self.window_ok = False
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(message)


def host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop: a reading of host speed."""
    start = clock()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (clock() - start) * 1e3


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def memory_sha256(tee: HyperTEE) -> str:
    """SHA-256 over all of physical memory as stored (ciphertext)."""
    memory = tee.system.memory
    digest = hashlib.sha256()
    step = 1 << 20
    for base in range(0, memory.size_bytes, step):
        digest.update(memory.read_raw(base, min(step, memory.size_bytes - base)))
    return digest.hexdigest()


def _platform_outputs(tee: HyperTEE) -> dict:
    return {"requests_served": tee.system.ems_requests_served(),
            "primitive_cycles": tee.primitive_cycles,
            "memory_sha256": memory_sha256(tee)}


def _timed_setups(build: Callable[[], object], m: Measurement, repeats: int):
    """``repeats`` timed builds; returns the last one's state."""
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        start = clock_ns()
        state = build()
        m.add_setup(start, clock_ns())
    return state


def _window_start(m: Measurement) -> float:
    gc.collect()
    m.probe_ms.append(host_probe())
    return clock()


def _window_end(m: Measurement, start: float) -> None:
    m.window_s = clock() - start
    m.probe_ms.append(host_probe())
    m.peak_rss_mb = peak_rss_mb()


# -- enclave_io -----------------------------------------------------------------


@dataclasses.dataclass
class _IoState:
    tee: HyperTEE
    enclave: object
    base: int
    shadow: bytearray
    rng: random.Random


def _io_build(seed: int) -> _IoState:
    rng = random.Random(seed)
    tee = HyperTEE(SystemConfig(seed=seed))
    enclave = tee.launch_enclave(
        rng.randbytes(PAGE_SIZE), EnclaveConfig(name="perfbench-io",
                                                code_pages=1))
    enclave.enter()
    base = enclave.ealloc(IO_PAGES)
    shadow = bytearray(IO_PAGES * PAGE_SIZE)
    for page in range(IO_PAGES):
        content = rng.randbytes(PAGE_SIZE)
        enclave.write(base + page * PAGE_SIZE, content)
        shadow[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = content
    return _IoState(tee, enclave, base, shadow, rng)


def enclave_io(seed: int, ops: int, tag: OpTag) -> Measurement:
    """Page store + load-back + three line accesses per op; no primitives."""
    m = Measurement("enclave_io", seed, ops)

    def build() -> _IoState:
        return _io_build(seed)

    build()
    state = _timed_setups(build, m, SETUPS_BEFORE)
    enclave, base, shadow, rng = (state.enclave, state.base, state.shadow,
                                  state.rng)
    lines_per_page = PAGE_SIZE // CACHE_LINE_SIZE
    served_before = state.tee.system.ems_requests_served()
    op_s, op_end = m.op_s, m.op_end_s
    start = _window_start(m)
    for op in range(ops):
        page = rng.randrange(IO_PAGES)
        content = rng.randbytes(PAGE_SIZE)
        lines = [rng.randrange(IO_PAGES) * PAGE_SIZE
                 + rng.randrange(lines_per_page) * CACHE_LINE_SIZE
                 for _ in range(3)]
        line_data = rng.randbytes(CACHE_LINE_SIZE)
        tag(op)
        t0 = clock()
        try:
            enclave.write(base + page * PAGE_SIZE, content)
            back = enclave.read(base + page * PAGE_SIZE, PAGE_SIZE)
            first = enclave.read(base + lines[0], CACHE_LINE_SIZE)
            second = enclave.read(base + lines[1], CACHE_LINE_SIZE)
            enclave.write(base + lines[2], line_data)
            op_s.append(clock() - t0)
        except HyperTEEError as exc:
            op_s.append(clock() - t0)
            m.fail(f"op {op}: {exc!r}")
        else:
            shadow[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = content
            if (back != content
                    or first != shadow[lines[0]:lines[0] + CACHE_LINE_SIZE]
                    or second != shadow[lines[1]:lines[1] + CACHE_LINE_SIZE]):
                m.fail(f"op {op}: read-back mismatch")
            shadow[lines[2]:lines[2] + CACHE_LINE_SIZE] = line_data
        op_end.append(clock() - start)
    tag(-1)
    _window_end(m, start)
    m.attempted = ops
    served = state.tee.system.ems_requests_served() - served_before
    if served:
        m.fail_window(f"{served} EMS requests ran in a window meant to have none")
    m.outputs = _platform_outputs(state.tee)
    del state, enclave, shadow, rng
    _timed_setups(build, m, SETUPS_AFTER)
    return m


# -- control_plane -----------------------------------------------------------------


@dataclasses.dataclass
class _CpState:
    tee: HyperTEE
    fleet: list
    ca: object
    rng: random.Random


def _cp_session(state: _CpState, enclave, index: int,
                m: Measurement | None) -> float:
    """One session on ``enclave``; checks it and returns its host seconds."""
    rng = state.rng
    scalar_data = rng.randbytes(16)
    batch_data = [rng.randbytes(16) for _ in range(CP_BATCH)]
    calls = [(Primitive.EATTEST, {"mode": "quote", "report_data": data})
             for data in batch_data]
    t0 = clock()
    enclave.enter()
    quote = enclave.attest(report_data=scalar_data)
    batch = state.tee.invoke_user_batch(calls, core=enclave.core)
    enclave.exit()
    elapsed = clock() - t0
    quotes = [quote] + [batch.result(i, "quote") for i in range(CP_BATCH)]
    expected = [scalar_data] + batch_data
    bad = any(q is None or q.enclave.report_data != data
              or q.enclave.measurement != enclave.measurement
              for q, data in zip(quotes, expected))
    if not bad and index % CP_VERIFY_EVERY == 0:
        bad = not (state.ca.verify_quote(quote, enclave.measurement)
                   and state.ca.verify_quote(quotes[-1], enclave.measurement))
    if bad:
        message = f"op {index}: quote failed verification"
        if m is None:
            raise AssertionError(message)
        m.fail(message)
    return elapsed


def _cp_build(seed: int) -> _CpState:
    rng = random.Random(seed)
    tee = HyperTEE(SystemConfig(seed=seed))
    fleet = [tee.launch_enclave(
        rng.randbytes(rng.randint(256, PAGE_SIZE)),
        EnclaveConfig(name=f"perfbench-cp{i}", code_pages=1))
        for i in range(CP_FLEET)]
    state = _CpState(tee, fleet, tee.system.certificate_authority(), rng)
    for index, enclave in enumerate(fleet):
        _cp_session(state, enclave, index * CP_VERIFY_EVERY, None)
    return state


def control_plane(seed: int, ops: int, tag: OpTag) -> Measurement:
    """EENTER, scalar EATTEST, 4-wide batched EATTEST, EEXIT per op."""
    m = Measurement("control_plane", seed, ops)

    def build() -> _CpState:
        return _cp_build(seed)

    build()
    state = _timed_setups(build, m, SETUPS_BEFORE)
    served_before = state.tee.system.ems_requests_served()
    fleet, op_s, op_end = state.fleet, m.op_s, m.op_end_s
    start = _window_start(m)
    for op in range(ops):
        tag(op)
        t0 = clock()
        try:
            op_s.append(_cp_session(state, fleet[op % CP_FLEET], op, m))
        except HyperTEEError as exc:
            op_s.append(clock() - t0)
            m.fail(f"op {op}: {exc!r}")
        op_end.append(clock() - start)
    tag(-1)
    _window_end(m, start)
    m.attempted = ops
    served = state.tee.system.ems_requests_served() - served_before
    if served != 7 * ops:
        m.fail_window(f"{served} EMS requests served, expected {7 * ops}")
    m.outputs = _platform_outputs(state.tee)
    del state, fleet
    _timed_setups(build, m, SETUPS_AFTER)
    return m


# -- serve ---------------------------------------------------------------------------


def serve(seed: int, ops: int, tag: OpTag) -> Measurement:
    """``run_serve`` at its CLI defaults; one op is one serve step.

    Set-up runs from the ``run_serve`` call to the first ``on_step``
    callback, so it includes step 0; the window holds steps 1..ops.
    """
    m = Measurement("serve", seed, ops)

    def timed_setups(repeats: int) -> None:
        for _ in range(repeats):
            first_step: list[int] = []
            gc.collect()
            start = clock_ns()
            run_serve(ServeConfig(seed=seed, ops=1),
                      on_step=lambda step, tee: first_step.append(clock_ns()))
            m.add_setup(start, first_step[0])

    # Step 0 of a one-step run is step 0 of the main run: same seed, and
    # nothing before it depends on the op count.
    step0_degraded = 1 - run_serve(
        ServeConfig(seed=seed, ops=1))["totals"]["completed"]
    # The main run's own set-up is the last one before the window.
    timed_setups(SETUPS_BEFORE - 1)
    marks: list[float] = []

    def on_step(step, tee) -> None:
        if step == 0:
            m.add_setup(call_start, clock_ns())
            marks.append(_window_start(m))
        else:
            marks.append(clock())
        if step == ops:
            tag(-1)
            _window_end(m, marks[0])
        else:
            tag(step)

    gc.collect()
    call_start = clock_ns()
    report = run_serve(ServeConfig(seed=seed, ops=ops + 1), on_step=on_step)
    m.op_s = [b - a for a, b in zip(marks, marks[1:])]
    m.op_end_s = [mark - marks[0] for mark in marks[1:]]
    m.attempted = ops
    totals, starvation = report["totals"], report["starvation"]
    # A worker step either completes or degrades; ``degraded`` also
    # counts degraded EWBs, which are not steps.
    for _ in range(totals["steps"] - totals["completed"] - step0_degraded):
        m.fail("degraded serve step")
    if step0_degraded:
        m.fail_window("serve step 0 (set-up) degraded")
    if totals["degraded"] != totals["steps"] - totals["completed"]:
        m.fail_window("a serve EWB degraded")
    if starvation["starved"]:
        m.fail_window(f"serve starved: {starvation}")
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    m.outputs = {"report_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
                 "requests_served": totals["requests_served"],
                 "primitive_cycles": totals["primitive_cycles"]}
    del report
    timed_setups(SETUPS_AFTER)
    return m


WORKLOADS: dict[str, Callable[[int, int, OpTag], Measurement]] = {
    "serve": serve,
    "enclave_io": enclave_io,
    "control_plane": control_plane,
}
