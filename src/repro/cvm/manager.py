"""The EMS-side CVM manager (paper Section IX).

Adds the "dedicated primitives" the paper sketches for VM-level TEEs:

* **lifecycle** — deploy an encrypted image to an attested platform,
  decrypt and measure it inside the EMS, place it in pool-backed guest
  memory under a dedicated KeyID;
* **memory** — guest pages are enclave memory (bitmap-marked pool frames,
  ownership-tracked, encrypted), with guest-page read/write paths;
* **CVM-to-CVM shared memory** — EMS-assigned region + key, mirroring
  the enclave shared-memory design;
* **snapshot / restore** — pages encrypted under a per-snapshot key and
  hashed into a Merkle tree; the key and root hash stay in EMS private
  state, the ciphertext goes to untrusted storage; restore verifies every
  page before it touches guest memory.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.rng import DeterministicRng
from repro.crypto.cipher import KeystreamCipher
from repro.crypto.dh import DiffieHellman
from repro.crypto.hashes import constant_time_equal, keyed_mac, measure
from repro.crypto.merkle import MerkleTree
from repro.cvm.image import CVMImage, WrappedImageKey
from repro.ems.attestation import AttestationService, Certificate
from repro.ems.key_mgmt import KeyManager
from repro.ems.lifecycle import EnclaveManager
from repro.ems.ownership import Owner
from repro.errors import AttestationError, EnclaveStateError, SanityCheckError
from repro.hw.memory import PhysicalMemory


@dataclasses.dataclass
class CVMControl:
    """EMS-private control structure of one confidential VM."""

    cvm_id: int
    name: str
    keyid: int
    memory_key: bytes
    measurement: bytes
    #: guest page number -> physical frame.
    guest_pages: dict[int, int]
    state: str = "running"   # running | snapshotted | destroyed
    #: guest page number -> shared-region keyid, for CVM-shared pages.
    shared_keyids: dict[int, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class CVMSnapshot:
    """What untrusted storage holds: ciphertext pages only.

    The decryption key and the Merkle root live in EMS private state,
    indexed by ``snapshot_id``.
    """

    snapshot_id: int
    name: str
    encrypted_pages: tuple[bytes, ...]
    measurement: bytes


@dataclasses.dataclass(frozen=True)
class SnapshotSecrets:
    """EMS-private per-snapshot material (never leaves the EMS except
    wrapped under a migration channel key)."""

    key: bytes
    merkle_root: bytes


class CVMManager:
    """CVM lifecycle / memory / snapshot services on the EMS."""

    def __init__(self, enclaves: EnclaveManager, keys: KeyManager,
                 attestation: AttestationService, memory: PhysicalMemory,
                 crypto, rng: DeterministicRng) -> None:
        self._enclaves = enclaves    # reuses pool/ownership/bitmap plumbing
        self._keys = keys
        self._attestation = attestation
        self._memory = memory
        self._crypto = crypto
        self._rng = rng
        self._ids = itertools.count(1)
        self._snapshot_ids = itertools.count(1)
        self.cvms: dict[int, CVMControl] = {}
        #: snapshot_id -> secrets; EMS-private.
        self._snapshot_secrets: dict[int, SnapshotSecrets] = {}
        #: shared-region owner tag -> (frames, keyid, participant ids).
        self._shared_regions: dict[int, tuple[list[int], int, set[int]]] = {}
        self._dh: DiffieHellman | None = None

    # -- deployment (attested image-key release) --------------------------------------

    def platform_challenge(self, owner_public: int) -> tuple[int, Certificate]:
        """Answer a deployment challenge: EMS DH value + bound platform cert."""
        del owner_public  # the binding covers our value; owner checks theirs
        self._dh = DiffieHellman.from_entropy(
            lambda n: self._rng.randbytes(n, stream="cvm-dh"))
        platform = self._attestation.platform_measurement
        if platform is None:
            raise AttestationError("platform not measured")
        signature, _ = self._crypto.sign(
            self._keys.platform_signer(),
            b"platform-binding" + platform
            + self._dh.public.to_bytes(256, "little"))
        return self._dh.public, Certificate("platform", platform, b"",
                                            signature)

    def _unwrap_image_key(self, owner_public: int,
                          wrapped: WrappedImageKey) -> bytes:
        if self._dh is None:
            raise AttestationError("no deployment exchange in progress")
        channel = self._dh.shared_key(owner_public)
        expected_tag = keyed_mac(keyed_mac(channel, b"wrap-mac"),
                                 wrapped.wrapped)
        if not constant_time_equal(expected_tag, wrapped.tag):
            raise AttestationError("wrapped image key failed authentication")
        return KeystreamCipher(keyed_mac(channel, b"wrap")).decrypt(
            wrapped.wrapped)

    def cvm_create(self, image: CVMImage, wrapped_key: WrappedImageKey,
                   owner_public: int) -> int:
        """Decrypt, measure, and place an encrypted VM image."""
        image_key = self._unwrap_image_key(owner_public, wrapped_key)
        plaintext = KeystreamCipher(image_key).decrypt(image.ciphertext)
        measurement = measure(plaintext)
        if measurement != image.measurement:
            raise AttestationError(
                "decrypted image does not match its declared measurement")

        cvm_id = next(self._ids)
        memory_key = self._keys.enclave_memory_key(
            measure(b"cvm", measurement, cvm_id.to_bytes(8, "little")))
        keyid = self._keys.allocate_keyid(memory_key)

        flush: list[int] = []
        frames = self._enclaves.grant_frames(
            image.pages, Owner.ems(f"cvm{cvm_id}"), flush)
        guest_pages: dict[int, int] = {}
        for gpn, frame in enumerate(frames):
            page = plaintext[gpn * PAGE_SIZE:(gpn + 1) * PAGE_SIZE]
            self._memory.write_frame(frame, page, keyid)
            guest_pages[gpn] = frame

        self.cvms[cvm_id] = CVMControl(
            cvm_id=cvm_id, name=image.name, keyid=keyid,
            memory_key=memory_key, measurement=measurement,
            guest_pages=guest_pages)
        return cvm_id

    # -- guest memory ------------------------------------------------------------------------

    def _control(self, cvm_id: int) -> CVMControl:
        control = self.cvms.get(cvm_id)
        if control is None or control.state == "destroyed":
            raise SanityCheckError(f"unknown or destroyed CVM {cvm_id}")
        return control

    def guest_read(self, cvm_id: int, gpa: int, length: int) -> bytes:
        """Read CVM guest memory at a guest-physical address."""
        control = self._control(cvm_id)
        gpn, offset = gpa >> PAGE_SHIFT, gpa & (PAGE_SIZE - 1)
        frame = control.guest_pages.get(gpn)
        if frame is None or offset + length > PAGE_SIZE:
            raise SanityCheckError(f"guest access beyond CVM memory: {gpa:#x}")
        return self._memory.read((frame << PAGE_SHIFT) + offset, length,
                                 control.keyid)

    def guest_write(self, cvm_id: int, gpa: int, data: bytes) -> None:
        """Write CVM guest memory at a guest-physical address."""
        control = self._control(cvm_id)
        gpn, offset = gpa >> PAGE_SHIFT, gpa & (PAGE_SIZE - 1)
        frame = control.guest_pages.get(gpn)
        if frame is None or offset + len(data) > PAGE_SIZE:
            raise SanityCheckError(f"guest access beyond CVM memory: {gpa:#x}")
        self._memory.write((frame << PAGE_SHIFT) + offset, data,
                           control.keyid)

    def guest_alloc(self, cvm_id: int, pages: int) -> int:
        """Grow a CVM's memory by ``pages``; returns the first new GPN."""
        control = self._control(cvm_id)
        flush: list[int] = []
        frames = self._enclaves.grant_frames(
            pages, Owner.ems(f"cvm{control.cvm_id}"), flush)
        self._enclaves.zero_under(frames, control.keyid)
        first = max(control.guest_pages, default=-1) + 1
        for i, frame in enumerate(frames):
            control.guest_pages[first + i] = frame
        return first

    # -- CVM-to-CVM shared memory -----------------------------------------------------------------

    def share_pages(self, sender_id: int, receiver_id: int,
                    pages: int) -> tuple[int, int]:
        """Allocate a protected region visible to both CVMs.

        Returns (sender first GPN, receiver first GPN). The region gets
        its own key, exactly like enclave shared memory (Section V).
        """
        sender = self._control(sender_id)
        receiver = self._control(receiver_id)
        shared_key = self._keys.shared_memory_key(
            0x10000 + sender_id, 0x10000 + receiver_id)
        keyid = self._keys.allocate_keyid(shared_key)

        region_tag = 0x10000 + sender_id * 1000 + receiver_id
        flush: list[int] = []
        frames = self._enclaves.grant_frames(
            pages, Owner.shared(region_tag), flush)
        self._enclaves.zero_under(frames, keyid)
        self._shared_regions[region_tag] = (frames, keyid,
                                            {sender_id, receiver_id})

        # Both CVMs see the region at fresh guest page numbers, but the
        # frames carry the *shared* keyid: the guest paths must use it.
        sender_base = max(sender.guest_pages, default=-1) + 1
        receiver_base = max(receiver.guest_pages, default=-1) + 1
        for i, frame in enumerate(frames):
            sender.guest_pages[sender_base + i] = frame
            receiver.guest_pages[receiver_base + i] = frame
        # Shared frames are tracked per region key, not per CVM key; the
        # mapping lets guest accesses pick the right key.
        for control, base in ((sender, sender_base), (receiver, receiver_base)):
            for i in range(pages):
                control.shared_keyids[base + i] = keyid
        return sender_base, receiver_base

    def shared_read(self, cvm_id: int, gpn: int, length: int) -> bytes:
        """Read a CVM-shared page (under the region key)."""
        control = self._control(cvm_id)
        keyid = control.shared_keyids.get(gpn)
        if keyid is None:
            raise SanityCheckError(f"GPN {gpn} is not a shared page")
        frame = control.guest_pages[gpn]
        return self._memory.read(frame << PAGE_SHIFT, length, keyid)

    def shared_write(self, cvm_id: int, gpn: int, data: bytes) -> None:
        """Write a CVM-shared page (under the region key)."""
        control = self._control(cvm_id)
        keyid = control.shared_keyids.get(gpn)
        if keyid is None:
            raise SanityCheckError(f"GPN {gpn} is not a shared page")
        frame = control.guest_pages[gpn]
        self._memory.write(frame << PAGE_SHIFT, data, keyid)

    # -- snapshot / restore -------------------------------------------------------------------------

    def snapshot(self, cvm_id: int) -> CVMSnapshot:
        """Encrypt guest memory and record (key, Merkle root) privately."""
        control = self._control(cvm_id)
        snapshot_key = self._rng.randbytes(32, stream="cvm-snap")
        encrypted: list[bytes] = []
        for gpn in sorted(control.guest_pages):
            frame = control.guest_pages[gpn]
            keyid = control.shared_keyids.get(gpn, control.keyid)
            plaintext = self._memory.read(frame << PAGE_SHIFT, PAGE_SIZE,
                                          keyid)
            ciphertext, _ = self._crypto.bulk_encrypt(snapshot_key, plaintext,
                                                      tweak=gpn)
            encrypted.append(ciphertext)

        tree = MerkleTree(encrypted)
        snapshot_id = next(self._snapshot_ids)
        self._snapshot_secrets[snapshot_id] = SnapshotSecrets(
            key=snapshot_key, merkle_root=tree.root)
        control.state = "snapshotted"
        return CVMSnapshot(snapshot_id=snapshot_id, name=control.name,
                           encrypted_pages=tuple(encrypted),
                           measurement=control.measurement)

    def restore(self, snapshot: CVMSnapshot,
                secrets: SnapshotSecrets | None = None) -> int:
        """Verify a snapshot against its Merkle root and re-instantiate.

        ``secrets`` defaults to this EMS's private record (local restore);
        migration passes the secrets received over the attested channel.
        """
        if secrets is None:
            secrets = self._snapshot_secrets.get(snapshot.snapshot_id)
            if secrets is None:
                raise SanityCheckError(
                    f"no secrets for snapshot {snapshot.snapshot_id}")

        tree = MerkleTree(list(snapshot.encrypted_pages))
        if tree.root != secrets.merkle_root:
            raise EnclaveStateError(
                "snapshot failed Merkle verification — tampered in storage")

        plaintext_pages = []
        for gpn, ciphertext in enumerate(snapshot.encrypted_pages):
            page, _ = self._crypto.bulk_decrypt(secrets.key, ciphertext,
                                                tweak=gpn)
            plaintext_pages.append(page)

        cvm_id = next(self._ids)
        memory_key = self._keys.enclave_memory_key(
            measure(b"cvm", snapshot.measurement,
                    cvm_id.to_bytes(8, "little")))
        keyid = self._keys.allocate_keyid(memory_key)
        flush: list[int] = []
        frames = self._enclaves.grant_frames(
            len(plaintext_pages), Owner.ems(f"cvm{cvm_id}"), flush)
        guest_pages = {}
        for gpn, (frame, page) in enumerate(zip(frames, plaintext_pages)):
            self._memory.write_frame(frame, page, keyid)
            guest_pages[gpn] = frame

        self.cvms[cvm_id] = CVMControl(
            cvm_id=cvm_id, name=snapshot.name, keyid=keyid,
            memory_key=memory_key, measurement=snapshot.measurement,
            guest_pages=guest_pages)
        return cvm_id

    def export_secrets(self, snapshot_id: int) -> SnapshotSecrets:
        """Migration helper: the EMS-private snapshot material."""
        secrets = self._snapshot_secrets.get(snapshot_id)
        if secrets is None:
            raise SanityCheckError(f"no secrets for snapshot {snapshot_id}")
        return secrets

    # -- teardown ------------------------------------------------------------------------------------

    def cvm_destroy(self, cvm_id: int) -> None:
        """Zero and reclaim guest memory; release the KeyID.

        Shared regions are reclaimed when their *last* participant is
        destroyed — earlier, the surviving CVM still uses the frames.
        """
        control = self._control(cvm_id)
        owner = Owner.ems(f"cvm{cvm_id}")
        own_frames = self._enclaves.ownership.frames_owned_by(owner)
        flush: list[int] = []
        self._enclaves.reclaim_frames(own_frames, owner, flush)
        for region_tag in list(self._shared_regions):
            frames, keyid, participants = self._shared_regions[region_tag]
            if cvm_id not in participants:
                continue
            participants.discard(cvm_id)
            if not participants:
                self._enclaves.reclaim_frames(
                    frames, Owner.shared(region_tag), flush)
                self._keys.release_keyid(keyid)
                del self._shared_regions[region_tag]
        self._keys.release_keyid(control.keyid)
        control.state = "destroyed"
        control.guest_pages.clear()
        control.shared_keyids.clear()
