"""SoC wiring: boot, partition, bitmap placement, determinism."""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.system import HyperTEESystem


def test_boot_produces_platform_measurement(system: HyperTEESystem):
    assert len(system.boot_report.platform_measurement) == 32
    for shard in system.shard_pool.shards:
        assert (shard.attestation.platform_measurement
                == system.boot_report.platform_measurement)


def test_partition_covers_memory(system: HyperTEESystem):
    part = system.partition
    assert part.cs_size + part.ems_size == system.memory.size_bytes
    assert part.ems_base == part.cs_base + part.cs_size


def test_bitmap_self_protected(system: HyperTEESystem):
    first_bitmap_frame = system.bitmap.base_paddr // 4096
    assert system.bitmap.is_enclave(first_bitmap_frame)


def test_core_count_respected():
    sys_ = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                       cs_cores=4))
    assert len(sys_.cores) == 4
    assert sys_.primary_core is sys_.cores[0]


def test_efuse_locked_after_manufacturing(system: HyperTEESystem):
    import pytest

    from repro.errors import HardwareFault

    with pytest.raises(HardwareFault):
        system.efuse.burn("extra", b"x")


def test_same_seed_same_roots():
    a = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4, seed=5))
    b = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4, seed=5))
    assert a.efuse.read("SK") == b.efuse.read("SK")


def test_different_seed_different_roots():
    a = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4, seed=5))
    b = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4, seed=6))
    assert a.efuse.read("SK") != b.efuse.read("SK")


def test_bitmap_checking_toggle():
    off = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                      bitmap_checking=False))
    assert off.primary_core.ptw.bitmap_reader is None
    on = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))
    assert on.primary_core.ptw.bitmap_reader is not None


def test_crypto_profile_selection():
    sw = HyperTEESystem(SystemConfig(cs_memory_mb=48, ems_memory_mb=4,
                                     crypto="software"))
    assert sw.crypto.profile.name == "software"
