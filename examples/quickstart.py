"""Quickstart: boot a HyperTEE platform, launch an enclave, use it.

Run with::

    python examples/quickstart.py

Walks the basic lifecycle a HostApp developer sees: launch (ECREATE +
EADD + EMEAS under the hood), enter, allocate and touch protected heap,
demonstrate that the host sees only ciphertext, seal data for disk, and
tear down.
"""

from __future__ import annotations

from repro.common.constants import PAGE_SHIFT
from repro.core.api import HyperTEE
from repro.core.enclave import EnclaveConfig


def main() -> None:
    # One call boots the whole platform: memory + encryption engine,
    # iHub partition, enclave bitmap, secure boot of the EMS, EMCall.
    tee = HyperTEE()
    print("platform booted; EMS runtime verified by secure boot")
    print(f"  platform measurement: "
          f"{tee.system.boot_report.platform_measurement.hex()[:24]}…")

    # Launch: the code is EADDed page by page and measured by the EMS.
    code = b"example enclave code segment " * 40
    enclave = tee.launch_enclave(
        code, EnclaveConfig(name="quickstart", heap_pages_max=64))
    print(f"\nenclave #{enclave.enclave_id} launched")
    print(f"  measurement: {enclave.measurement.hex()[:24]}…")

    with enclave.running():
        # Dynamic memory comes from the EMS pool via EALLOC; the CS OS
        # never observes which pages this enclave uses.
        vaddr = enclave.ealloc(4)
        enclave.write(vaddr, b"the enclave's secret")
        assert enclave.read(vaddr, 20) == b"the enclave's secret"
        print(f"\nwrote a secret at enclave vaddr {vaddr:#x}")

        # Demand paging: touching past the allocation faults through
        # EMCall to the EMS, which maps a zeroed page transparently.
        enclave.write(vaddr + 5 * 4096, b"demand-faulted page")
        print("touched an unmapped heap page; the EMS demand-allocated it")

        # The host's view of the same physical frame is ciphertext.
        control = tee.system.enclaves_of(enclave.enclave_id).get(
            enclave.enclave_id)
        frame = control.page_table.lookup(vaddr >> PAGE_SHIFT).ppn
        raw = tee.system.memory.read_raw(frame << PAGE_SHIFT, 20)
        print(f"host raw view of that frame: {raw.hex()[:40]}… (ciphertext)")
        assert raw != b"the enclave's secret"

        # Seal for persistent storage: bound to this enclave identity on
        # this physical device.
        blob = enclave.seal(b"state to survive reboot")
        assert enclave.unseal(blob) == b"state to survive reboot"
        print("sealed and unsealed persistent state")

    enclave.destroy()
    print("\nenclave destroyed; all frames zeroed and returned to the pool")
    print(f"total primitive latency spent: {tee.primitive_cycles} CS cycles")


if __name__ == "__main__":
    main()
