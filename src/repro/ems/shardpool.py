"""The multi-EMS shard pool: scale-out enclave management.

One EMS serving one CS cluster is the scalability ceiling of the
decoupled architecture; this module removes it. A *shard* is a complete
EMS instance — its own mailbox on the fabric, its own memory pool,
ownership table, enclave/page/swap/shm managers, attestation service,
and runtime — and the :class:`ShardPool` coordinates a fleet of them.
Every platform has a pool: the paper's single EMS is a pool of one.

* **Placement.** ECREATE IDs are minted platform-globally by the pool
  so that the ID's home shard under :func:`repro.hw.routing.shard_for`
  is exactly the shard that serves the creation. Routing afterwards is
  a pure function of the ID — no lookup tables in the common case.
* **Ownership transfer.** An enclave migrates between shards through a
  sealed prepare/commit handshake built on the sealing service: the
  source seals a transfer manifest under the enclave's measurement, the
  destination authenticates it by unsealing, and only then do the
  enclave's frames change ownership tables and pool accounting —
  atomically, with the measurement (and therefore attestation)
  preserved. An interrupt between prepare and commit
  (``ems.transfer.interrupt``) moves nothing and is safely retryable.
* **Shard failure.** ``ems.shard.fail`` pauses one shard's pump while
  its siblings keep serving; the CS gate's retry/deadline machinery
  rides out the outage.

Shards share the platform singletons — physical memory, the encryption
engine, the key manager, the enclave bitmap, the CS OS frame source —
because those model hardware, not management software. What is *not*
shared is exactly the management state the paper puts in EMS SRAM.

Known limitation: shared-memory regions are shard-local (region IDs are
minted per shard manager), so an enclave must detach all regions before
transferring; cross-shard ESHMSHR is future work.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.common.types import EnclaveState
from repro.ems.ownership import Owner
from repro.errors import EnclaveStateError, ShardError, TransferInterrupted
from repro.hw.routing import shard_for

#: Layout of the sealed transfer manifest (authenticated prepare token).
_MANIFEST_MAGIC = b"HTEE-XFER1"


@dataclasses.dataclass
class ShardStats:
    """Per-shard traffic the serve driver and soak invariants read."""

    transfers_in: int = 0
    transfers_out: int = 0


class EMSShard:
    """One complete EMS instance inside the fleet."""

    def __init__(self, index: int, *, mailbox, pool, ownership, enclaves,
                 pages, swap, shm, attestation, runtime) -> None:
        self.index = index
        self.mailbox = mailbox
        self.pool = pool
        self.ownership = ownership
        self.enclaves = enclaves
        self.pages = pages
        self.swap = swap
        self.shm = shm
        self.attestation = attestation
        self.runtime = runtime
        self.stats = ShardStats()

    def pump(self) -> int:
        """Drain this shard's mailbox, modelling shard outages.

        ``ems.shard.fail`` fires per pump opportunity: the shard's
        runtime freezes for ``magnitude`` rounds (its siblings keep
        their own pumps), then this round proceeds into the ordinary
        paused-runtime path.
        """
        runtime = self.runtime
        if runtime.faults is not None:
            down = runtime.faults.magnitude("ems.shard.fail")
            if down > 0:
                runtime.pause(down)
        cycles_before = runtime.stats.total_service_cycles
        served = runtime.pump()
        obs = runtime.obs
        if obs is not None and served:
            obs.record_shard_pump(
                self.index, served,
                runtime.stats.total_service_cycles - cycles_before)
        return served


class ShardPool:
    """The fleet coordinator: placement, resolution, transfer."""

    def __init__(self, shards: list[EMSShard], sealing) -> None:
        if not shards:
            raise ShardError("a shard pool needs at least one shard")
        self.shards = list(shards)
        self.sealing = sealing
        #: Enclave IDs whose residence differs from their hash home
        #: (installed by cross-shard transfers).
        self._overrides: dict[int, int] = {}
        self._next_enclave_id = 1
        #: Fault injector (None = clear weather); consulted at the
        #: transfer prepare/commit boundary (``ems.transfer.interrupt``).
        self.faults = None
        #: Out-of-band observability hook (attached by the system).
        self.obs = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None
        self.transfers_committed = 0
        self.transfers_interrupted = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- placement & resolution ------------------------------------------------

    def place_ecreate(self) -> tuple[int, int]:
        """Mint a platform-global enclave ID and its serving shard.

        The ID is chosen so its hash home is the shard that will run the
        ECREATE — routing for the new enclave needs no override entry.
        """
        while True:
            enclave_id = self._next_enclave_id
            self._next_enclave_id += 1
            if not any(enclave_id in shard.enclaves.enclaves
                       for shard in self.shards):
                return enclave_id, shard_for(enclave_id, self.num_shards)

    def resolve(self, enclave_id: int) -> int:
        """The shard currently serving ``enclave_id``.

        Transfer overrides win; otherwise the pure hash decides. Total:
        never raises for any ID (an ID that exists nowhere resolves to
        its hash home, whose runtime answers the usual sanity reject —
        exactly what a single EMS would say).
        """
        override = self._overrides.get(enclave_id)
        if override is not None:
            return override
        return shard_for(enclave_id, self.num_shards)

    def shard_of(self, enclave_id: int) -> EMSShard:
        """The :class:`EMSShard` object :meth:`resolve` points at."""
        return self.shards[self.resolve(enclave_id)]

    # -- cross-shard ownership transfer ----------------------------------------

    def transfer_enclave(self, enclave_id: int, dst_index: int) -> dict[str, Any]:
        """Migrate one enclave's management state to another shard.

        Prepare/commit with a sealed manifest: nothing moves until the
        destination has authenticated the source's token, and the commit
        itself is pure bookkeeping over shared hardware (the enclave's
        frames, contents, KeyID, and page table are untouched — so the
        measurement, and every quote issued after the move, still
        verify). Raises :class:`TransferInterrupted` with zero mutation
        if ``ems.transfer.interrupt`` fires; the transfer may simply be
        retried.
        """
        if not 0 <= dst_index < self.num_shards:
            raise ShardError(
                f"destination shard {dst_index} out of range "
                f"(fleet has {self.num_shards})")
        src_index = self.resolve(enclave_id)
        if src_index == dst_index:
            raise ShardError(
                f"enclave {enclave_id} is already resident on shard "
                f"{dst_index}")
        src = self.shards[src_index]
        dst = self.shards[dst_index]
        control = src.enclaves.enclaves.get(enclave_id)
        if control is None:
            raise ShardError(
                f"enclave {enclave_id} is not resident on shard {src_index}")
        if control.state is EnclaveState.RUNNING:
            raise EnclaveStateError(
                f"cannot transfer running enclave {enclave_id}")
        if control.state is EnclaveState.DESTROYED:
            raise EnclaveStateError(
                f"enclave {enclave_id} was destroyed")
        if control.measurement is None:
            raise EnclaveStateError(
                f"enclave {enclave_id} must be measured before transfer "
                "(the manifest seals under the measurement)")
        if control.shm_attachments:
            raise ShardError(
                f"enclave {enclave_id} has shared-memory attachments; "
                "detach before transfer (regions are shard-local)")

        owner = Owner.enclave(enclave_id)
        table_owner = Owner.ems(f"enclave{enclave_id}-pagetable")
        own_frames = src.ownership.frames_owned_by(owner)
        table_frames = src.ownership.frames_owned_by(table_owner)
        moved = len(own_frames) + len(table_frames)

        # Prepare: the source seals the transfer manifest under the
        # enclave's measurement. Only a party holding the device SK can
        # mint it, and it binds the exact identity and frame count.
        manifest = (_MANIFEST_MAGIC
                    + enclave_id.to_bytes(8, "little")
                    + moved.to_bytes(4, "little")
                    + control.measurement)
        token = self.sealing.seal(control.measurement, manifest)
        if self.san is not None:
            self.san.on_transfer_prepare(enclave_id,
                                         own_frames + table_frames,
                                         src_index, dst_index)

        if self.faults is not None and \
                self.faults.fires("ems.transfer.interrupt"):
            # Aborted between prepare and commit: the token dies with
            # the attempt and no state has moved on either shard.
            self.transfers_interrupted += 1
            if self.san is not None:
                self.san.on_transfer_abort(enclave_id)
            raise TransferInterrupted(
                f"transfer of enclave {enclave_id} "
                f"({src_index} -> {dst_index}) interrupted before commit")

        # Commit, destination side: authenticate the manifest, then take
        # ownership all-or-nothing. A stale or forged token fails the
        # unseal; a manifest for the wrong enclave fails the binding.
        try:
            opened = self.sealing.unseal(control.measurement, token)
        except Exception:
            if self.san is not None:
                self.san.on_transfer_abort(enclave_id)
            raise
        if (opened[:len(_MANIFEST_MAGIC)] != _MANIFEST_MAGIC
                or opened[len(_MANIFEST_MAGIC):len(_MANIFEST_MAGIC) + 8]
                != enclave_id.to_bytes(8, "little")):
            if self.san is not None:
                self.san.on_transfer_abort(enclave_id)
            raise ShardError(
                f"transfer manifest for enclave {enclave_id} failed binding")
        if self.san is not None:
            self.san.on_transfer_manifest_verified(enclave_id)
        dst.ownership.verify_unowned(own_frames)
        dst.ownership.verify_unowned(table_frames)

        src.ownership.release_all(own_frames, owner)
        src.ownership.release_all(table_frames, table_owner)
        dst.ownership.claim_all(own_frames, owner)
        dst.ownership.claim_all(table_frames, table_owner)
        src.pool.disown_used(moved)
        dst.pool.adopt_used(moved)
        del src.enclaves.enclaves[enclave_id]
        dst.enclaves.enclaves[enclave_id] = control

        if shard_for(enclave_id, self.num_shards) == dst_index:
            self._overrides.pop(enclave_id, None)
        else:
            self._overrides[enclave_id] = dst_index
        src.stats.transfers_out += 1
        dst.stats.transfers_in += 1
        self.transfers_committed += 1
        if self.obs is not None:
            self.obs.record_shard_transfer(src_index, dst_index, moved)
        if self.san is not None:
            self.san.on_transfer_commit(enclave_id, src_index, dst_index)
        return {"enclave_id": enclave_id, "src": src_index,
                "dst": dst_index, "pages": moved}

    # -- introspection -----------------------------------------------------------

    def stats_summary(self) -> dict[str, Any]:
        """Per-shard traffic rollup (registered as a stats source)."""
        return {
            "num_shards": self.num_shards,
            "transfers_committed": self.transfers_committed,
            "transfers_interrupted": self.transfers_interrupted,
            "overrides": len(self._overrides),
            "per_shard": [
                {
                    "shard": shard.index,
                    "served": shard.runtime.stats.served,
                    "failed": shard.runtime.stats.failed,
                    "service_cycles": shard.runtime.stats.total_service_cycles,
                    "enclaves": sum(
                        1 for c in shard.enclaves.enclaves.values()
                        if c.state is not EnclaveState.DESTROYED),
                    "pool_used": shard.pool.used_count,
                    "pool_free": shard.pool.free_count,
                    "pool_capacity": shard.pool.capacity,
                    "transfers_in": shard.stats.transfers_in,
                    "transfers_out": shard.stats.transfers_out,
                }
                for shard in self.shards
            ],
        }
