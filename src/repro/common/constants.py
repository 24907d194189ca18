"""Architectural constants of the modelled SoC.

The bus-layout values follow the paper's implementation (Section IV-C):
a 56-bit core front-side memory bus whose low 40 bits carry the physical
address and whose high 16 bits carry the KeyID.
"""

from __future__ import annotations

#: Page size in bytes (4 KiB, as on the RISC-V prototype).
PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Frames reserved at the bottom of CS memory for EMCall firmware.
FIRMWARE_FRAMES = 16

#: Physical address width (low bits of the 56-bit front-side bus).
PHYS_ADDR_BITS = 40

#: KeyID width (high bits of the 56-bit front-side bus).
KEYID_BITS = 16

#: KeyID 0 is reserved for non-enclave ("host") memory: no encryption.
HOST_KEYID = 0

#: Number of KeyID slots the memory encryption engine holds at once.
#: Real MK-TME engines hold a few dozen; we model a small table so the
#: KeyID-exhaustion / enclave-suspend path (paper Section IV-C) is
#: exercisable in tests.
DEFAULT_KEY_SLOTS = 64

#: MAC width used by the integrity engine (paper Section IV-C: 28-bit
#: SHA-3-based MAC, as in commercial TEEs).
MAC_BITS = 28

#: Memory-integrity / encryption block granularity (one cache line).
CACHE_LINE_SIZE = 64

#: Core clock frequencies from the paper's timing analysis (Section VII-E).
CS_CORE_FREQ_HZ = 2_500_000_000
EMS_CORE_FREQ_HZ = 750_000_000

#: Crypto engine throughput (paper Table III).
CRYPTO_AES_GBPS = 1.24
CRYPTO_SHA256_GBPS = 16.1
CRYPTO_RSA_SIGN_OPS = 123
CRYPTO_RSA_VERIFY_OPS = 10_000

#: Default enclave memory pool sizing (pages). The pool pre-faults pages
#: from the CS OS so individual enclave allocations are invisible to it
#: (paper Section IV-A).
POOL_INITIAL_PAGES = 1024
POOL_ENLARGE_PAGES = 512
POOL_THRESHOLD_MIN = 0.55
POOL_THRESHOLD_MAX = 0.90
