"""The layer table of the traced run: which public functions belong to which layer.

Each layer names its entry points by module and qualified name. They are
resolved when the traced run starts, so a renamed or deleted function is
listed as unresolved instead of crashing the run. A ``*`` in the method
part matches the class's own public methods (``Enclave.*``) or a name
prefix (``Observability.record_*``).

``README.md`` holds the prediction written down before measuring for
each layer (which end-to-end metric it should move, on which workload,
and where it should read as no change) and whether it held.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Layer:
    """One simulator layer and the public functions that bound it."""

    name: str
    targets: tuple[tuple[str, str], ...]


LAYERS: tuple[Layer, ...] = (
    Layer("core.system",
          (("repro.core.system", "HyperTEESystem.__init__"),
           ("repro.core.system", "HyperTEESystem.enable_observability"))),
    Layer("core.api",
          (("repro.core.api", "HyperTEE.invoke_*"),
           ("repro.core.api", "HyperTEE.launch_enclave_batched"),
           ("repro.core.api", "Enclave.*"))),
    Layer("cs.emcall",
          (("repro.cs.emcall", "EMCall.invoke"),
           ("repro.cs.emcall", "EMCall.invoke_batch"),
           ("repro.cs.emcall", "ShardedEMCall.invoke"),
           ("repro.cs.emcall", "ShardedEMCall.invoke_batch"))),
    Layer("hw.mailbox",
          (("repro.hw.mailbox", "Mailbox.push_request"),
           ("repro.hw.mailbox", "Mailbox.poll_response"),
           ("repro.hw.mailbox", "Mailbox.fetch_requests"),
           ("repro.hw.mailbox", "Mailbox.push_response"))),
    Layer("ems.runtime",
          (("repro.ems.runtime", "EMSRuntime.pump"),
           ("repro.ems.runtime", "EMSRuntime.dispatch"),
           ("repro.ems.runtime", "EMSRuntime.dispatch_batch"))),
    Layer("ems.attestation",
          (("repro.ems.attestation", "AttestationService.*"),)),
    Layer("ems.lifecycle",
          (("repro.ems.lifecycle", "EnclaveManager.*"),)),
    Layer("ems.page_mgmt",
          (("repro.ems.page_mgmt", "PageManager.*"),)),
    Layer("ems.memory_pool",
          (("repro.ems.memory_pool", "EnclaveMemoryPool.take"),
           ("repro.ems.memory_pool", "EnclaveMemoryPool.give_back"),
           ("repro.ems.memory_pool", "EnclaveMemoryPool.surrender_random"))),
    Layer("ems.shardpool",
          (("repro.ems.shardpool", "ShardPool.transfer_enclave"),
           ("repro.ems.shardpool", "ShardPool.resolve"),
           ("repro.ems.shardpool", "ShardPool.place_ecreate"))),
    Layer("hw.page_table",
          (("repro.hw.page_table", "PageTableWalker.translate"),)),
    Layer("hw.tlb",
          (("repro.hw.tlb", "TLB.lookup"),
           ("repro.hw.tlb", "TLB.insert"),
           ("repro.hw.tlb", "TLB.flush_*"))),
    Layer("hw.memory",
          (("repro.hw.memory", "PhysicalMemory.read"),
           ("repro.hw.memory", "PhysicalMemory.write"),
           ("repro.hw.memory", "PhysicalMemory.read_raw"),
           ("repro.hw.memory", "PhysicalMemory.write_raw"),
           ("repro.hw.memory", "PhysicalMemory.zero_frame"))),
    Layer("hw.encryption_engine",
          (("repro.hw.encryption_engine", "MemoryEncryptionEngine.encrypt_access"),
           ("repro.hw.encryption_engine", "MemoryEncryptionEngine.decrypt_access"),
           ("repro.hw.encryption_engine", "MemoryEncryptionEngine.record_macs"),
           ("repro.hw.encryption_engine", "MemoryEncryptionEngine.verify_macs"))),
    Layer("crypto.cipher",
          (("repro.crypto.cipher", "KeystreamCipher.encrypt"),
           ("repro.crypto.cipher", "KeystreamCipher.keystream"))),
    Layer("crypto.hashes",
          (("repro.crypto.hashes", "truncated_mac"),
           ("repro.crypto.hashes", "keyed_mac"),
           ("repro.crypto.hashes", "measure"))),
    Layer("obs",
          (("repro.obs.probes", "Observability.record_*"),)),
)

LAYER_NAMES: tuple[str, ...] = tuple(layer.name for layer in LAYERS)
