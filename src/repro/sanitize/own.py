"""The OWN sanitizer: fleet-wide ownership and the transfer protocol.

An epoch checker on frame and enclave ownership across EMS shards.
Every ownership table on the platform reports its claims and releases
to one fleet-wide registry, so races the per-shard tables cannot see —
two *different* tables recording the same physical frame — surface
immediately. The sealed prepare/commit transfer protocol reports its
phase transitions, giving three checks:

* **double-grant** — a frame claimed while a different (table, owner)
  pair still holds it anywhere in the fleet, or handed out by a pool
  while an ownership record is still live;
* **access-after-transfer-prepare** — a raw memory write touching a
  frame of an enclave whose transfer is between prepare and commit
  (the enclave is quiesced; commit is pure bookkeeping, so *no* data
  write to its frames is legitimate in that window);
* **mutation-without-verified-manifest** — an ownership mutation on a
  prepared enclave's frames before the destination authenticated the
  sealed manifest (the unseal is what authorizes the move).

Each frame carries an *epoch* — a counter bumped on every claim and
release — and each table a lamport-style mutation clock; both land in
the event trail so a violation's report shows the exact interleaving.
"""

from __future__ import annotations

import dataclasses
from typing import Any


def _describe(owner: Any) -> str:
    """``enclave:7`` instead of the dataclass repr in diagnostics."""
    kind = getattr(owner, "kind", None)
    ident = getattr(owner, "ident", None)
    if kind is not None and ident is not None:
        return f"{getattr(kind, 'value', kind)}:{ident}"
    return str(owner)


@dataclasses.dataclass
class _Transfer:
    """One open prepare/commit window."""

    enclave_id: int
    frames: frozenset[int]
    src: int
    dst: int
    verified: bool = False


class OwnSanitizer:
    """Fleet-wide ownership registry + transfer-protocol phases."""

    def __init__(self, manager) -> None:
        self._manager = manager
        #: frame -> (table index, owner description) currently granted.
        self._grants: dict[int, tuple[int, str]] = {}
        #: frame -> epoch (bumped on each claim/release).
        self._epochs: dict[int, int] = {}
        #: ownership-table identity -> dense index, in discovery order.
        self._tables: dict[int, int] = {}
        #: per-table lamport mutation clocks.
        self._table_clocks: dict[int, int] = {}
        #: enclave_id -> open transfer window.
        self._transfers: dict[int, _Transfer] = {}

    # -- helpers -----------------------------------------------------------------

    def _violation(self, kind: str, message: str) -> None:
        self._manager.report_violation("own", kind, message)

    def _table_index(self, table) -> int:
        index = self._tables.setdefault(id(table), len(self._tables))
        self._table_clocks[index] = self._table_clocks.get(index, 0) + 1
        return index

    def _bump_epoch(self, frame: int) -> int:
        self._epochs[frame] = self._epochs.get(frame, 0) + 1
        return self._epochs[frame]

    def _guard_prepare_window(self, frame: int, action: str) -> None:
        for transfer in self._transfers.values():
            if frame not in transfer.frames:
                continue
            if not transfer.verified:
                self._violation(
                    "UNVERIFIED-MUTATION",
                    f"ownership {action} on frame {frame} of enclave "
                    f"{transfer.enclave_id} before the destination "
                    "verified the sealed transfer manifest (shard "
                    f"{transfer.src} -> {transfer.dst})")

    # -- ownership-table hooks ---------------------------------------------------

    def check_claim(self, table, frames: list[int], owner: Any) -> None:
        """Frames recorded for ``owner``; cross-table conflicts fire."""
        index = self._table_index(table)
        owner_desc = _describe(owner)
        for frame in frames:
            self._manager.stats.claims_checked += 1
            self._guard_prepare_window(frame, "claim")
            holder = self._grants.get(frame)
            if holder is not None and holder != (index, owner_desc):
                held_table, held_owner = holder
                self._violation(
                    "DOUBLE-GRANT",
                    f"frame {frame} claimed by {owner_desc} on table "
                    f"{index} while table {held_table} still records "
                    f"{held_owner} (epoch {self._epochs.get(frame, 0)})")
            self._grants[frame] = (index, owner_desc)
            epoch = self._bump_epoch(frame)
            self._manager.event(
                "own.claim", frame=frame, owner=owner_desc,
                table=index, epoch=epoch,
                clock=self._table_clocks[index])

    def check_release(self, table, frames: list[int],
                      owner: Any) -> None:
        """Frames dropped by ``owner``; the fleet registry follows."""
        index = self._table_index(table)
        owner_desc = _describe(owner)
        for frame in frames:
            self._guard_prepare_window(frame, "release")
            self._grants.pop(frame, None)
            epoch = self._bump_epoch(frame)
            self._manager.event(
                "own.release", frame=frame, owner=owner_desc,
                table=index, epoch=epoch,
                clock=self._table_clocks[index])

    def note_pool_take(self, frames: list[int], owner: Any) -> None:
        """A pool granted frames; none may carry a live ownership record."""
        for frame in frames:
            holder = self._grants.get(frame)
            if holder is not None:
                held_table, held_owner = holder
                self._violation(
                    "DOUBLE-GRANT",
                    f"pool handed out frame {frame} for {_describe(owner)} "
                    f"while table {held_table} still records {held_owner} "
                    "— the frame is simultaneously free and owned")

    # -- raw-memory hook ---------------------------------------------------------

    def check_raw_write(self, paddr: int, length: int) -> None:
        """No data write may touch a prepared enclave's frames."""
        if not self._transfers:
            return
        from repro.common.constants import PAGE_SHIFT

        first = paddr >> PAGE_SHIFT
        last = (paddr + max(length, 1) - 1) >> PAGE_SHIFT
        touched = range(first, last + 1)
        for transfer in self._transfers.values():
            for frame in touched:
                if frame in transfer.frames:
                    self._violation(
                        "ACCESS-AFTER-PREPARE",
                        f"raw write to frame {frame} of enclave "
                        f"{transfer.enclave_id} inside the transfer "
                        f"prepare/commit window (shard {transfer.src} "
                        f"-> {transfer.dst}) — the enclave is quiesced "
                        "and commit moves bookkeeping only")

    # -- transfer-protocol phases ------------------------------------------------

    def note_prepare(self, enclave_id: int, frames: list[int],
                     src: int, dst: int) -> None:
        """The source sealed a manifest; the window opens."""
        self._transfers[enclave_id] = _Transfer(
            enclave_id, frozenset(frames), src, dst)
        self._manager.event("xfer.prepare", enclave=enclave_id,
                            frames=len(frames), src=src, dst=dst)

    def note_manifest_verified(self, enclave_id: int) -> None:
        """The destination's unseal authenticated the manifest."""
        transfer = self._transfers.get(enclave_id)
        if transfer is not None:
            transfer.verified = True
        self._manager.event("xfer.verified", enclave=enclave_id)

    def note_commit(self, enclave_id: int, src: int, dst: int) -> None:
        """Ownership moved; the window closes."""
        transfer = self._transfers.pop(enclave_id, None)
        if transfer is not None and not transfer.verified:
            self._violation(
                "UNVERIFIED-MUTATION",
                f"transfer of enclave {enclave_id} committed (shard "
                f"{src} -> {dst}) without a verified manifest")
        self._manager.event("xfer.commit", enclave=enclave_id,
                            src=src, dst=dst)

    def note_abort(self, enclave_id: int) -> None:
        """The transfer died before commit; nothing may have moved."""
        self._transfers.pop(enclave_id, None)
        self._manager.event("xfer.abort", enclave=enclave_id)

    # -- introspection -----------------------------------------------------------

    def live_grants(self) -> int:
        """Frames currently recorded as granted fleet-wide."""
        return len(self._grants)

    def open_transfers(self) -> int:
        """Prepare/commit windows currently open."""
        return len(self._transfers)
