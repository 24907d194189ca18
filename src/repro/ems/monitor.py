"""Interrupt-frequency anomaly detection (paper Section IX, Varys-style).

SGX-Step/Nemesis-class attacks single-step enclaves with thousands of
timer interrupts per second. Varys [102] counters by terminating enclave
execution when the interrupt frequency turns abnormal. The paper lists
this as an orthogonal countermeasure HyperTEE can incorporate; here it
runs as an EMS-side monitor fed by EMCall (which sees every enclave
interrupt first — Section III-B's exception routing).

Detection: a sliding window of interrupt timestamps per enclave; when
more than ``threshold`` interrupts land within ``window_cycles``, the
enclave is suspended and flagged.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable

from repro.common.constants import CS_CORE_FREQ_HZ
from repro.common.types import EnclaveState
from repro.ems.lifecycle import EnclaveManager

#: A benign timesharing OS interrupts at ~100-1000 Hz; single-stepping
#: needs ~10^5+ interrupts/sec. The default threshold sits well between.
DEFAULT_WINDOW_SECONDS = 1e-3
DEFAULT_MAX_INTERRUPTS_PER_WINDOW = 20


@dataclasses.dataclass
class InterruptStats:
    observed: int = 0
    flagged_enclaves: int = 0


class InterruptAnomalyDetector:
    """Sliding-window interrupt-rate monitor per enclave.

    ``enclaves_of`` maps an enclave ID to the :class:`EnclaveManager` of
    the EMS shard serving it; every shard's gate feeds one detector.
    """

    def __init__(self, enclaves_of: Callable[[int], EnclaveManager],
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 max_per_window: int = DEFAULT_MAX_INTERRUPTS_PER_WINDOW) -> None:
        self._enclaves_of = enclaves_of
        self.window_cycles = int(window_seconds * CS_CORE_FREQ_HZ)
        self.max_per_window = max_per_window
        self._history: dict[int, collections.deque[int]] = {}
        self._flagged: set[int] = set()
        self.stats = InterruptStats()

    def observe(self, enclave_id: int, cycle: int) -> bool:
        """Record one enclave interrupt; returns True when flagged.

        Flagging suspends the enclave: execution only continues if the
        (trusted) owner explicitly chooses to resume, mirroring Varys's
        terminate-on-anomaly policy.
        """
        self.stats.observed += 1
        history = self._history.setdefault(enclave_id, collections.deque())
        history.append(cycle)
        while history and history[0] < cycle - self.window_cycles:
            history.popleft()
        if len(history) > self.max_per_window and enclave_id not in self._flagged:
            self._flagged.add(enclave_id)
            self.stats.flagged_enclaves += 1
            enclaves = self._enclaves_of(enclave_id)
            if enclaves.get(enclave_id).state is EnclaveState.RUNNING:
                enclaves.eexit(enclave_id)
            return True
        return enclave_id in self._flagged

    def is_flagged(self, enclave_id: int) -> bool:
        """Has this enclave been flagged for an interrupt storm?"""
        return enclave_id in self._flagged

    def clear(self, enclave_id: int) -> None:
        """Owner-approved reset after investigating a flag."""
        self._flagged.discard(enclave_id)
        self._history.pop(enclave_id, None)
