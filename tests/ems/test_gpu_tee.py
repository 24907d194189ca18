"""GPU TEE flow (paper Section IX): driver enclave + IOMMU-backed GPU."""

from __future__ import annotations

import pytest

from repro.common.types import Permission
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig
from repro.errors import DMAViolation, SharedMemoryError
from repro.hw.iommu import IOMMUDevice


def shm_of(tee: HyperTEE, region):
    """The shared-memory manager of the shard that holds ``region``."""
    return tee.system.shard_pool.shard_of(region.owner.enclave_id).shm


@pytest.fixture
def rig():
    tee = HyperTEE()
    driver = tee.launch_enclave(b"gpu-driver", EnclaveConfig(name="driver"))
    with driver.running():
        region = driver.create_shared_region(4, Permission.RW)
        va = driver.attach(region)
        driver.write(va, b"command buffer + tensors")
    gpu = IOMMUDevice("gpu0", tee.system.iommu, tee.system.memory)
    return tee, driver, region, gpu


def test_gpu_reads_after_iommu_grant(rig):
    tee, driver, region, gpu = rig
    shm_of(tee, region).grant_device_iommu(driver.enclave_id, region.shm_id,
                                           "gpu0", Permission.RW)
    assert gpu.read(0, 24) == b"command buffer + tensors"
    gpu.write(0x1000, b"gpu result")
    with driver.running():
        control = shm_of(tee, region).regions[region.shm_id]
        vaddr = control.attachments[driver.enclave_id]
        assert driver.read(vaddr + 0x1000, 10) == b"gpu result"


def test_gpu_blocked_without_grant(rig):
    _, _, _, gpu = rig
    with pytest.raises(DMAViolation):
        gpu.read(0, 16)


def test_gpu_limited_to_region(rig):
    """Only the region's pages are mapped; IOVA 4+ faults."""
    tee, driver, region, gpu = rig
    shm_of(tee, region).grant_device_iommu(driver.enclave_id, region.shm_id,
                                           "gpu0", Permission.RW)
    with pytest.raises(DMAViolation):
        gpu.read(4 * 4096, 16)


def test_grant_requires_region_access(rig):
    tee, driver, region, _ = rig
    stranger = tee.launch_enclave(b"stranger", EnclaveConfig(name="x"))
    from repro.errors import ConnectionNotAuthorized

    with pytest.raises(ConnectionNotAuthorized):
        shm_of(tee, region).grant_device_iommu(stranger.enclave_id,
                                               region.shm_id, "gpu0",
                                               Permission.READ)


def test_grant_capped_by_region_max(rig):
    tee, driver, _, _ = rig
    with driver.running():
        ro_region = driver.create_shared_region(1, Permission.READ)
    with pytest.raises(SharedMemoryError):
        shm_of(tee, ro_region).grant_device_iommu(driver.enclave_id,
                                                  ro_region.shm_id, "gpu0",
                                                  Permission.RW)


def test_revoke_closes_access(rig):
    tee, driver, region, gpu = rig
    shm_of(tee, region).grant_device_iommu(driver.enclave_id, region.shm_id,
                                           "gpu0", Permission.RW)
    gpu.read(0, 8)
    shm_of(tee, region).revoke_device_iommu(driver.enclave_id,
                                            region.shm_id, "gpu0")
    with pytest.raises(DMAViolation):
        gpu.read(0, 8)


def test_revoke_unknown_grant(rig):
    tee, driver, region, _ = rig
    with pytest.raises(SharedMemoryError):
        shm_of(tee, region).revoke_device_iommu(driver.enclave_id,
                                                region.shm_id, "gpu0")
