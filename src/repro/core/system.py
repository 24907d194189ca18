"""The assembled HyperTEE SoC (paper Fig. 1 / Fig. 4).

:class:`HyperTEESystem` builds and boots a complete platform:

1. physical memory with the multi-key encryption engine on its bus;
2. the boot-time address partition (CS region / EMS-private region) and
   the iHub enforcing unidirectional isolation;
3. the enclave bitmap in protected CS memory;
4. manufacturing (eFuse roots, provisioned flash/EEPROM) and the secure
   boot chain, yielding the platform measurement;
5. the CS OS and CS cores (each with TLB + bitmap-checking PTW);
6. the EMS: the key manager, then one shard per configured EMS — its
   mailbox, pool, ownership, lifecycle, page/swap/shm managers,
   attestation and runtime dispatcher — all built by one
   :meth:`HyperTEESystem._build_shard`, plus sealing and the shard pool;
7. the EMCall firmware: one gate per shard, each holding the only
   CS-side port of its shard's mailbox.

The paper's platform is the one-shard case: a pool of one, whose
components are the single-EMS names (``mailbox``, ``pool``, ``ems``, ...)
and whose gate is the platform's ``emcall``. More shards put a
:class:`~repro.cs.emcall.ShardedEMCall` router in front of the gates
(docs/scale_out.md).

Everything downstream (SDK, examples, evaluation, attacks) builds a system
through this class.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE
from repro.common.rng import DeterministicRng
from repro.core.config import SystemConfig
from repro.crypto.engine import ENGINE_CRYPTO, SOFTWARE_CRYPTO, CryptoEngine
from repro.cs.cpu import CSCore
from repro.cs.emcall import EMCall, ShardedEMCall
from repro.cs.os import CSOperatingSystem
from repro.ems import boot as secure_boot_mod
from repro.ems.attestation import AttestationService, CertificateAuthority
from repro.ems.key_mgmt import KeyManager
from repro.ems.lifecycle import EnclaveManager
from repro.ems.memory_pool import EnclaveMemoryPool
from repro.ems.ownership import PageOwnershipTable
from repro.ems.page_mgmt import PageManager
from repro.ems.runtime import EMSRuntime
from repro.ems.sealing import SealingService
from repro.ems.shardpool import EMSShard, ShardPool
from repro.ems.shared_memory import SharedMemoryManager
from repro.ems.swapping import SwapManager
from repro.hw.bitmap import BitmapReader, EnclaveBitmap
from repro.hw.core import CS_CORE, ems_config
from repro.hw.devices import EEPROM, EFuse, PrivateFlash
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.fabric import AddressPartition, IHub
from repro.hw.iommu import IOMMU
from repro.hw.mailbox import Mailbox
from repro.hw.memory import PhysicalMemory

#: Frames reserved at the bottom of CS memory for EMCall firmware.
FIRMWARE_FRAMES = 16

#: Stand-in software images for the boot chain.
_RUNTIME_IMAGE = b"ems-runtime-rust-image-v1" * 64
_EMCALL_IMAGE = b"emcall-m-mode-firmware-v1" * 32


class HyperTEESystem:
    """One booted HyperTEE platform."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config if config is not None else SystemConfig()
        cfg = self.config
        self.rng = DeterministicRng(cfg.seed)

        # -- memory, engine, partition, iHub ---------------------------------
        cs_bytes = cfg.cs_memory_mb * 1024 * 1024
        ems_bytes = cfg.ems_memory_mb * 1024 * 1024
        self.memory = PhysicalMemory(cs_bytes + ems_bytes)
        self.engine = MemoryEncryptionEngine()
        self.memory.encryption_engine = self.engine
        self.partition = AddressPartition(
            cs_base=0, cs_size=cs_bytes, ems_base=cs_bytes, ems_size=ems_bytes)
        self.ihub = IHub(self.partition)

        # -- enclave bitmap in protected CS memory -----------------------------
        bitmap_base = FIRMWARE_FRAMES * PAGE_SIZE
        self.bitmap = EnclaveBitmap(self.memory, bitmap_base)
        bitmap_frames = (self.bitmap.size_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        first_free = FIRMWARE_FRAMES + bitmap_frames

        # -- manufacturing + secure boot -----------------------------------------
        self.efuse = EFuse()
        self.efuse.burn("EK", self.rng.randbytes(32, stream="efuse"))
        self.efuse.burn("SK", self.rng.randbytes(32, stream="efuse"))
        self.efuse.lock()
        self.flash = PrivateFlash()
        self.eeprom = EEPROM()
        secure_boot_mod.provision(self.efuse, self.flash, self.eeprom,
                                  _RUNTIME_IMAGE, _EMCALL_IMAGE)
        self.boot_report = secure_boot_mod.secure_boot(
            self.efuse, self.flash, self.eeprom)

        # -- CS side ------------------------------------------------------------------
        self.os = CSOperatingSystem(
            self.memory, first_free_frame=first_free,
            frame_limit=cs_bytes >> PAGE_SHIFT)
        reader = BitmapReader(self.bitmap) if cfg.bitmap_checking else None
        self.cores = [CSCore(i, self.memory, self.ihub, reader, CS_CORE)
                      for i in range(cfg.cs_cores)]

        # -- EMS side ------------------------------------------------------------------
        profile = ENGINE_CRYPTO if cfg.crypto == "engine" else SOFTWARE_CRYPTO
        self.crypto = CryptoEngine(profile)
        self.keys = KeyManager(self.efuse, self.engine, self.rng)
        self.iommu = IOMMU()
        shards = [self._build_shard(index) for index in range(cfg.ems_shards)]
        # Shard 0 is the paper's EMS: the single-EMS names are its parts.
        primary = shards[0]
        self.mailbox = primary.mailbox
        self.pool = primary.pool
        self.ownership = primary.ownership
        self.enclaves = primary.enclaves
        self.pages = primary.pages
        self.swap = primary.swap
        self.shm = primary.shm
        self.attestation = primary.attestation
        self.ems = primary.runtime
        self.sealing = SealingService(self.keys, self.rng)
        #: The shard fleet coordinator (docs/scale_out.md); a pool of one
        #: on the paper's single-EMS platform.
        self.shard_pool = ShardPool(shards, self.sealing)

        # Section IX extensions: VM-level TEE, CFI monitoring, and the
        # Varys-style interrupt anomaly detector.
        from repro.cvm.manager import CVMManager
        from repro.ems.cfi import CFIMonitor
        from repro.ems.monitor import InterruptAnomalyDetector

        self.cvm = CVMManager(self.enclaves, self.keys, self.attestation,
                              self.memory, self.crypto, self.rng)

        self.cfi = CFIMonitor(self.enclaves_of)
        self.interrupt_monitor = InterruptAnomalyDetector(self.enclaves_of)

        # -- EMCall: one gate per shard, on that shard's mailbox ----------------
        gates = tuple(EMCall(shard.mailbox, self.rng, self.cores)
                      for shard in shards)
        for gate, shard in zip(gates, shards):
            # Pumping through the shard lets ems.shard.fail land on it.
            gate.attach_ems(shard.pump)
            gate.attach_interrupt_observer(self.interrupt_monitor.observe)
        #: The per-shard gates, in shard order (CS firmware, so kept here
        #: and not on the EMS-side shards).
        self.gates = gates
        if len(gates) == 1:
            self.emcall = gates[0]
        else:
            self.emcall = ShardedEMCall(gates, self.shard_pool.place_ecreate,
                                        self.shard_pool.resolve)

        # -- observability (out-of-band; see docs/observability.md) -----------
        from repro.obs.probes import Observability

        self.obs = Observability()
        #: Fault injector; None until enable_fault_injection() is called.
        self.faults = None
        #: teesan sanitizer manager; None until enable_sanitizers().
        self.san = None
        self._register_stats_sources()

    def _build_shard(self, index: int) -> EMSShard:
        """Build one EMS instance on the booted platform hardware.

        A shard owns its mailbox on the fabric and the management state
        the paper keeps in EMS SRAM: pool, ownership table, enclave/page/
        swap/shm managers, attestation (bound to the platform
        measurement) and runtime. Platform hardware — memory, the
        encryption engine, the key manager, the bitmap, the CS OS — is
        shared by every shard.
        """
        cfg = self.config
        mailbox = Mailbox()
        pool = EnclaveMemoryPool(
            self.os, self.memory, self.rng, bitmap=self.bitmap,
            initial_pages=cfg.pool_initial_pages)
        pool.shard = index
        ownership = PageOwnershipTable()
        enclaves = EnclaveManager(
            self.memory, pool, ownership, self.bitmap,
            self.keys, self.crypto, self.rng)
        pages = PageManager(enclaves)
        swap = SwapManager(pool, self.keys, self.crypto, self.rng)
        shm = SharedMemoryManager(enclaves, self.keys, self.ihub,
                                  iommu=self.iommu)
        attestation = AttestationService(enclaves, self.keys, self.crypto)
        attestation.set_platform_measurement(
            self.boot_report.platform_measurement)
        runtime = EMSRuntime(
            mailbox, ems_config(cfg.ems_core),
            enclaves, pages, swap, shm, attestation, self.rng,
            num_cores=cfg.ems_cores, fabric_probe=self.ihub.probe)
        return EMSShard(
            index, mailbox=mailbox, pool=pool, ownership=ownership,
            enclaves=enclaves, pages=pages, swap=swap, shm=shm,
            attestation=attestation, runtime=runtime)

    def _register_stats_sources(self) -> None:
        """Federate the per-subsystem ``*Stats`` into the registry.

        Pull-based: the registry stores readers over the live dataclasses,
        so nothing is duplicated and ``stats_summary()`` becomes a
        registry snapshot with the same schema as before. The ``ems``,
        ``mailbox`` and ``pool`` sources sum every shard's counters, so
        one shard reads as the paper's single EMS.
        """
        from repro.obs.metrics import stats_asdict, stats_sum

        reg = self.obs.metrics
        shards = self.shard_pool.shards
        reg.register_source(
            "ems", lambda: stats_sum(shard.runtime.stats for shard in shards))
        reg.register_source(
            "mailbox", lambda: stats_sum(shard.mailbox.stats for shard in shards))
        reg.register_source("fabric", lambda: stats_asdict(self.ihub.stats))
        reg.register_source(
            "pool", lambda: stats_sum(shard.pool.stats for shard in shards))
        reg.register_source(
            "emcall",
            lambda: {"bitmap_flushes": self.emcall.bitmap_flush_count})
        reg.register_source(
            "tlb",
            lambda: {f"core{core.core_id}": stats_asdict(core.tlb.stats)
                     for core in self.cores})
        reg.register_source(
            "interrupts", lambda: stats_asdict(self.interrupt_monitor.stats))

        from repro.faults.injector import FaultStats

        reg.register_source(
            "faults",
            lambda: stats_asdict(self.faults.stats if self.faults is not None
                                 else FaultStats()))

        if self.shard_pool.num_shards > 1:
            # Only multi-EMS systems grow the summary schema; the default
            # key set stays pinned (tests/core/test_stats.py).
            reg.register_source("shards", self.shard_pool.stats_summary)

    def _hooked_components(self) -> Iterator[object]:
        """Every component that may carry an ``obs``/``faults``/``san`` hook.

        The one walk each ``enable_*`` attaches through: the platform
        singletons, each core's TLB and PTW, and every shard's gate,
        mailbox, pool, ownership table, swap manager and runtime — so a
        shard is instrumented exactly like the first one, by construction.
        """
        yield from (self.memory, self.engine, self.keys, self.sealing,
                    self.crypto, self.os, self.obs.flightrec,
                    self.shard_pool)
        for core in self.cores:
            yield core.tlb
            yield core.ptw
        for gate, shard in zip(self.gates, self.shard_pool.shards):
            yield from (gate, shard.mailbox, shard.pool, shard.ownership,
                        shard.swap, shard.runtime)

    def _attach(self, hook: str, value) -> None:
        """Set ``hook`` on every walked component that declares it."""
        for component in self._hooked_components():
            if hasattr(component, hook):
                setattr(component, hook, value)

    def enable_observability(self) -> "HyperTEESystem":
        """Attach the probe points; span trees stay off.

        Metrics, the SLO digests, attribution and the flight recorder go
        live; spans are recorded only while ``obs.tracer.enabled`` is
        set. Off by default so the probes cost nothing; when on, they stay
        out-of-band — no modelled cycle count or attacker-visible state
        changes (regression-tested by tests/obs/test_noninterference.py).
        Returns self for chaining.
        """
        self.obs.enabled = True
        self._attach("obs", self.obs)
        return self

    def enable_fault_injection(self, plan) -> "HyperTEESystem":
        """Attach a deterministic fault injector driven by ``plan``.

        Wires the injector into every fault point on every shard: the
        mailbox queues and transfer legs, the EMS runtime and the shard
        pool's outages and transfers. An empty plan is guaranteed
        non-interfering: cycle counts, stats, and attestation signatures
        stay bit-identical to a system without injection
        (tests/obs/test_noninterference.py). Returns self for chaining.
        """
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        if plan is None:
            plan = FaultPlan.empty()
        self.faults = FaultInjector(plan, obs=self.obs)
        self._attach("faults", self.faults)
        return self

    def enable_sanitizers(
            self,
            sanitizers: tuple[str, ...] = ("secret", "own"),
    ) -> "HyperTEESystem":
        """Attach the teesan runtime sanitizers (docs/sanitizers.md).

        Off by default and observe-only, exactly like the ``obs`` and
        ``faults`` hooks: no modelled state, RNG draw, or cycle count
        changes — a sanitized run is bit-identical to an unsanitized one
        (tests/sanitize/test_noninterference.py). The manager is wired
        into every instrumented component on every shard, and the eFuse
        roots are registered as taint so every derived key is traceable
        from boot. Returns self for chaining.
        """
        from repro.common import codec
        from repro.sanitize.manager import SanitizerManager

        san = SanitizerManager(sanitizers, obs=self.obs)
        self.san = san
        self._attach("san", san)
        codec.set_sanitizer(san)
        # The manufacturing roots are the taint sources everything else
        # derives from (EFuse.read stays readable after lock()).
        san.register_secret(self.efuse.read("EK"), "efuse-EK")
        san.register_secret(self.efuse.read("SK"), "efuse-SK")
        # Only sanitized systems grow the summary schema; the default
        # key set stays pinned (tests/core/test_stats.py).
        self.obs.metrics.register_source("sanitize", san.stats_snapshot)
        return self

    # -- conveniences ----------------------------------------------------------------------

    @property
    def primary_core(self) -> CSCore:
        return self.cores[0]

    @property
    def ems_runtimes(self) -> list[EMSRuntime]:
        """Every EMS runtime on the platform (one per shard)."""
        return [shard.runtime for shard in self.shard_pool.shards]

    def enclaves_of(self, enclave_id: int) -> EnclaveManager:
        """The enclave manager of the EMS shard that holds ``enclave_id``.

        ``self.enclaves`` is shard 0's; an enclave on another shard has
        its control block only there.
        """
        return self.shard_pool.shard_of(enclave_id).enclaves

    def ems_requests_served(self) -> int:
        """Fleet-wide served-request count (shard-aware ``stats.served``)."""
        return sum(runtime.stats.served for runtime in self.ems_runtimes)

    def stats_summary(self) -> dict[str, dict]:
        """Aggregate counters from every subsystem, for diagnostics.

        Reads through the metrics registry's federated sources; the key
        schema is stable (tests/core/test_stats.py pins it).
        """
        return self.obs.metrics.federated_snapshot()

    def certificate_authority(self) -> CertificateAuthority:
        """The trusted CA's view of this device (remote-attestation side).

        Models the manufacturing-time registration of the device with the
        CA: the CA learns the platform key, the AK, and the golden
        platform measurement.
        """
        return CertificateAuthority(
            platform_key=self.keys.platform_signing_key(),
            attestation_key=self.keys.attestation_key(),
            expected_platform=self.boot_report.platform_measurement)
