"""Control-flow integrity monitoring on the EMS (paper Section IX).

The paper's third CFI approach: hardware records an enclave's control-
flow transfers into a buffer *in the enclave's private memory*; a
monitoring task on the EMS — which can reach that buffer thanks to
unidirectional isolation — validates the transfers against the enclave's
CFG and terminates the enclave on a violation. The monitoring task's CS
cache effects relate only to the monitor, not to the enclave or other
management tasks, so no new side channel opens.

The buffer here is real modelled memory: a pool frame owned by the EMS,
encrypted under the enclave's KeyID, holding 16-byte ``(src, dst)``
records behind a cursor. CS software sees only ciphertext.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.types import EnclaveState
from repro.ems.lifecycle import EnclaveManager
from repro.ems.ownership import Owner
from repro.errors import SanityCheckError

RECORD_BYTES = 16
RECORDS_PER_BUFFER = PAGE_SIZE // RECORD_BYTES

#: Control-flow edge: (source address, destination address).
Edge = tuple[int, int]


@dataclasses.dataclass
class CFIState:
    """Per-enclave monitoring state (EMS-private)."""

    enclave_id: int
    allowed_edges: frozenset[Edge]
    buffer_frame: int
    cursor: int = 0
    scanned: int = 0
    violations: list[Edge] = dataclasses.field(default_factory=list)
    terminated: bool = False


class CFIMonitor:
    """The EMS-side CFI monitoring task.

    ``enclaves_of`` maps an enclave ID to the :class:`EnclaveManager` of
    the EMS shard serving it, so the task acts on the right shard.
    """

    def __init__(self, enclaves_of: Callable[[int], EnclaveManager]) -> None:
        self._enclaves_of = enclaves_of
        self._states: dict[int, CFIState] = {}

    # -- policy registration (done at enclave launch) -------------------------------

    def register_policy(self, enclave_id: int,
                        allowed_edges: set[Edge]) -> None:
        """Attach a CFG policy and allocate the transfer buffer."""
        enclaves = self._enclaves_of(enclave_id)
        control = enclaves.get(enclave_id)
        flush: list[int] = []
        frame = enclaves.grant_frames(
            1, Owner.ems(f"cfi{enclave_id}"), flush)[0]
        enclaves.zero_under([frame], control.keyid)
        self._states[enclave_id] = CFIState(
            enclave_id=enclave_id,
            allowed_edges=frozenset(allowed_edges),
            buffer_frame=frame)

    def _state(self, enclave_id: int) -> CFIState:
        state = self._states.get(enclave_id)
        if state is None:
            raise SanityCheckError(
                f"enclave {enclave_id} has no CFI policy registered")
        return state

    # -- the hardware trace hook --------------------------------------------------------

    def record_transfer(self, enclave_id: int, src: int, dst: int) -> None:
        """Hardware writes one control-flow record into the buffer.

        A full buffer forces an eager scan (the real design drains the
        buffer with the monitor task).
        """
        state = self._state(enclave_id)
        if state.terminated:
            return
        if state.cursor >= RECORDS_PER_BUFFER:
            self.scan(enclave_id)
        enclaves = self._enclaves_of(enclave_id)
        control = enclaves.get(enclave_id)
        record = src.to_bytes(8, "little") + dst.to_bytes(8, "little")
        addr = (state.buffer_frame << PAGE_SHIFT) + state.cursor * RECORD_BYTES
        enclaves.memory.write(addr, record, control.keyid)
        state.cursor += 1

    # -- the monitoring task ----------------------------------------------------------------

    def scan(self, enclave_id: int) -> list[Edge]:
        """Validate all unscanned records; terminate on violation.

        Returns the violations found in this pass.
        """
        state = self._state(enclave_id)
        enclaves = self._enclaves_of(enclave_id)
        control = enclaves.get(enclave_id)
        found: list[Edge] = []
        base = state.buffer_frame << PAGE_SHIFT
        for index in range(state.scanned, state.cursor):
            raw = enclaves.memory.read(
                base + index * RECORD_BYTES, RECORD_BYTES, control.keyid)
            edge = (int.from_bytes(raw[:8], "little"),
                    int.from_bytes(raw[8:], "little"))
            if edge not in state.allowed_edges:
                found.append(edge)
        state.scanned = state.cursor
        if state.cursor >= RECORDS_PER_BUFFER:
            state.cursor = 0
            state.scanned = 0
        if found:
            state.violations.extend(found)
            self._terminate(enclave_id)
        return found

    def _terminate(self, enclave_id: int) -> None:
        """Malicious behaviour detected: tear the enclave down."""
        state = self._state(enclave_id)
        state.terminated = True
        enclaves = self._enclaves_of(enclave_id)
        if enclaves.get(enclave_id).state is EnclaveState.RUNNING:
            enclaves.eexit(enclave_id)
        enclaves.edestroy(enclave_id)

    # -- introspection -----------------------------------------------------------------------

    def is_terminated(self, enclave_id: int) -> bool:
        """Has the monitor killed this enclave?"""
        return self._state(enclave_id).terminated

    def violations(self, enclave_id: int) -> list[Edge]:
        """All CFG violations recorded for this enclave."""
        return list(self._state(enclave_id).violations)
