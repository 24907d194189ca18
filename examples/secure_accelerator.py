"""Secure DNN inference on an accelerator (the paper's Fig. 12 scenario).

A *user enclave* holds confidential model weights; a *driver enclave*
owns the Gemmini accelerator. They communicate through EMS-managed shared
enclave memory, and the driver grants the accelerator's DMA engine access
to exactly that region through the iHub whitelist. A rogue device outside
the whitelist is blocked.

Run with::

    python examples/secure_accelerator.py
"""

from __future__ import annotations

from repro.common.types import Permission
from repro.core.api import HyperTEE, local_attest
from repro.core.enclave import EnclaveConfig
from repro.errors import DMAViolation
from repro.hw.devices import DMAEngine, GemminiAccelerator
from repro.workloads.dnn import RESNET50, conventional_timing, speedup


def main() -> None:
    tee = HyperTEE()
    system = tee.system

    user = tee.launch_enclave(b"dnn-model-owner",
                              EnclaveConfig(name="user", shared_pages_max=16))
    driver = tee.launch_enclave(b"gemmini-driver",
                                EnclaveConfig(name="driver"))
    print(f"user enclave #{user.enclave_id}, driver enclave "
          f"#{driver.enclave_id} launched")

    # The enclaves authenticate each other on-platform before sharing.
    peer = local_attest(driver, user)
    assert peer == user.measurement
    print("local attestation: driver verified the user enclave's identity")

    # User enclave creates the shared region and authorizes the driver.
    with user.running():
        region = user.create_shared_region(8, Permission.RW)
        user.share_with(region, driver, Permission.RW)
        va_user = user.attach(region)
        user.write(va_user, b"layer-0 weights + activations")
        print(f"user enclave staged model data in shared region "
              f"#{region.shm_id}")

    # Driver attaches and whitelists the accelerator's DMA engine onto
    # the region's (contiguous) physical range.
    with driver.running():
        va_driver = driver.attach(region)
        assert driver.read(va_driver, 29) == b"layer-0 weights + activations"
        driver.grant_device(region, "gemmini", Permission.RW)
        print("driver attached and whitelisted the Gemmini DMA engine")

    # Region IDs are per EMS shard: look the region up on its owner's.
    owner_shard = system.shard_pool.shard_of(region.owner.enclave_id)
    control = owner_shard.shm.regions[region.shm_id]
    gemmini_dma = DMAEngine("gemmini", system.ihub, system.memory)
    accelerator = GemminiAccelerator(gemmini_dma)

    # The accelerator streams a layer straight from shared enclave
    # memory — plaintext speed, no software crypto on the path.
    seconds = accelerator.run_layer(
        input_paddr=control.base_paddr, input_bytes=2048,
        output_paddr=control.base_paddr + 2048, output_bytes=2048,
        macs=8e6, keyid=control.keyid)
    print(f"gemmini executed a layer in {seconds * 1e6:.1f} µs of compute, "
          f"{gemmini_dma.stats.bytes_moved} bytes moved by DMA")

    # A rogue device (never whitelisted) cannot read the region.
    rogue = DMAEngine("rogue-nic", system.ihub, system.memory)
    try:
        rogue.read(control.base_paddr, 64)
        raise AssertionError("rogue DMA should have been discarded")
    except DMAViolation:
        print("rogue DMA engine blocked by the iHub whitelist")

    # What this buys end to end (the Fig. 12 numbers):
    conv = conventional_timing(RESNET50)
    print(f"\nResNet50 inference, conventional TEE: "
          f"{conv.total_seconds * 1e3:.1f} ms "
          f"({conv.crypto_share * 100:.1f}% spent in software crypto)")
    print(f"ResNet50 inference, HyperTEE shared memory: "
          f"{conv.total_seconds / speedup(RESNET50) * 1e3:.1f} ms "
          f"-> {speedup(RESNET50):.1f}x speedup")


if __name__ == "__main__":
    main()
