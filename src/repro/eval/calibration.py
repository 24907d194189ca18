"""Calibration constants pinning the timing model to the paper's numbers.

Every constant names the paper table/figure it was fitted against. The
model is *predictive in shape*: these constants are fitted once, and
``repro.eval.regenerate`` then reproduces whole curves/tables (including
points the constants were not directly fitted to, e.g. intermediate sizes
and configurations).

Units: "CS cycles" are cycles of the 2.5 GHz CS core; "EMS instructions"
are retired instructions on the EMS core (converted to cycles through the
config's sustained IPC, which is how the weak/medium/strong EMS choice
changes primitive latency — Fig. 7).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Host allocation path (Fig. 8a baseline)
# ---------------------------------------------------------------------------

#: CS cycles for a host ``malloc`` that reaches the OS mmap path: syscall
#: entry/exit, VMA bookkeeping, buddy allocator.
HOST_MALLOC_BASE_CYCLES = 2_000

#: CS cycles per page for host allocation: demand-zeroing plus PTE setup.
HOST_MALLOC_PER_PAGE_CYCLES = 600

# ---------------------------------------------------------------------------
# EMCall / mailbox transport (Section III-C)
# ---------------------------------------------------------------------------

#: CS cycles for EMCall to assemble, privilege-check, and enqueue one
#: request packet (trap to M-mode included).
EMCALL_DISPATCH_CYCLES = 350

#: CS cycles of response-polling obfuscation jitter (uniform 0..this);
#: the noise EMCall injects against timing observation of EMS responses.
EMCALL_POLL_JITTER_CYCLES = 200

#: CS cycles between consecutive response polls. Charged only for polls
#: beyond the first, so the fault-free synchronous path (one poll) costs
#: exactly what it always did.
EMCALL_POLL_INTERVAL_CYCLES = 40

#: Response-poll deadline, in poll rounds, for primitives without an
#: explicit entry below. 64 preserves the pre-hardening poll cap.
EMCALL_DEFAULT_DEADLINE_POLLS = 64

#: Per-primitive poll-deadline overrides: heavyweight primitives (bulk
#: crypto, control-structure setup) earn a longer leash before EMCall
#: declares a timeout and retries.
EMCALL_DEADLINE_POLLS = {
    "ECREATE": 128,
    "EADD": 96,
    "EWB": 128,
    "EATTEST": 128,
    "EDESTROY": 96,
}

#: CS cycles for EMCall to pack/validate each *additional* request into a
#: batch envelope (the first element pays the full EMCALL_DISPATCH_CYCLES
#: trap-and-assemble cost). Batching amortizes the trap, not the packing.
EMCALL_BATCH_PER_REQ_CYCLES = 40

#: Marginal fabric cycles per extra packet in a batch envelope, each
#: direction. The envelope still pays one full Mailbox.TRANSFER_CYCLES
#: crossing (one doorbell, one IRQ); additional elements stream behind
#: the header at bus width.
MAILBOX_BATCH_PER_REQ_CYCLES = 8

#: Largest batch EMCall accepts in one envelope (mailbox slot sizing).
EMCALL_BATCH_MAX = 64

#: First-retry backoff in CS cycles; doubles per attempt (plus jitter).
EMCALL_BACKOFF_BASE_CYCLES = 2_000

#: Uniform jitter 0..this added to each backoff wait, decorrelating
#: retry storms from concurrent cores.
EMCALL_BACKOFF_JITTER_CYCLES = 256

# ---------------------------------------------------------------------------
# EMS primitive service work, in EMS instructions (Fig. 7, Fig. 8a, Table IV)
# ---------------------------------------------------------------------------
# Fitted so that on the *medium* EMS core (sustained IPC 1.38 at 750 MHz)
# EALLOC shows +49.7% over malloc at 128 KiB falling to +6.3% at 2 MiB
# (Fig. 8a: the fixed transmission/EMCall cost dominates small requests,
# per the paper's own attribution) and the full primitive mix costs
# ~2.0% of enclave runtime on the medium core (Fig. 7).

#: Fixed work per EALLOC: request parse, sanity check, pool pop, ownership
#: update, page-table-node setup, response build.
EALLOC_BASE_INSTR = 4_700

#: Per-page work for EALLOC: zeroing, bitmap set, PTE install.
EALLOC_PER_PAGE_INSTR = 256

#: Fixed work for the remaining primitives (EMS instructions).
PRIMITIVE_BASE_INSTR = {
    "ECREATE": 9_000,      # control structure, key derivation, pool reserve
    "EADD": 700,           # per-page load is charged separately
    "EADD_PER_PAGE": 420,
    "EENTER": 2_600,       # context install handed to EMCall
    "ERESUME": 1_900,
    "EEXIT": 1_400,
    "EDESTROY": 6_000,
    "EFREE": 900,
    "EFREE_PER_PAGE": 160,
    "EWB": 1_800,
    "EWB_PER_PAGE": 520,   # plus bulk encryption via the crypto engine
    "ESHMGET": 2_400,
    "ESHMAT": 1_700,
    "ESHMDT": 1_100,
    "ESHMSHR": 1_300,
    "ESHMDES": 1_600,
    "EMEAS": 1_200,        # plus the hash itself via the crypto profile
    "EATTEST": 2_000,      # plus sign/verify via the crypto profile
}

#: EMS instructions to look up and replay a cached idempotent result
#: (the PR-2 replay cache hit path; far below any real handler cost).
EMS_REPLAY_LOOKUP_INSTR = 300

#: EMS cycles of injected handler stall converted into one deferred
#: pump round by the fault machinery (docs/fault_injection.md).
EMS_STALL_CYCLES_PER_ROUND = 50_000

# ---------------------------------------------------------------------------
# Mailbox / iHub fabric (Section IV-C)
# ---------------------------------------------------------------------------

#: CS cycles for one packet to cross the fabric into a mailbox queue.
#: Together with EMCALL_DISPATCH_CYCLES this fixes the fixed-cost floor
#: that dominates small EALLOCs in Fig. 8a.
MAILBOX_TRANSFER_CYCLES = 60

# ---------------------------------------------------------------------------
# CS scheduler (Fig. 6 multi-core runs)
# ---------------------------------------------------------------------------

#: Default scheduling quantum: 10 ms at the 2.5 GHz CS clock (a 100 Hz
#: timer tick).
SCHED_QUANTUM_CYCLES = 25_000_000

# ---------------------------------------------------------------------------
# CS memory hierarchy (workload trace replay; Table III cache latencies)
# ---------------------------------------------------------------------------

#: Load-to-use cycles on an L1 data-cache hit.
CS_L1_HIT_CYCLES = 3

#: Load-to-use cycles on an L2 hit.
CS_L2_HIT_CYCLES = 14

#: Cycles for a DRAM access that misses the on-chip hierarchy.
CS_DRAM_ACCESS_CYCLES = 160

# ---------------------------------------------------------------------------
# Page-table walker (Fig. 5, Fig. 10)
# ---------------------------------------------------------------------------

#: Memory-access cycles per PTE load during a hardware walk.
PTW_STEP_CYCLES = 40

#: Serialized extra cycles for the PTW bitmap retrieval (the check
#: itself overlaps the original permission check; Section VII-C).
PTW_BITMAP_CHECK_CYCLES = 12

#: Cycles for a TLB hit (no walk).
TLB_HIT_CYCLES = 1

# ---------------------------------------------------------------------------
# Crypto engine fixed per-operation setup (Table III / Table IV)
# ---------------------------------------------------------------------------

#: EMS cycles of fixed per-operation setup on the hardware engine
#: (command submission + DMA descriptor).
CRYPTO_ENGINE_SETUP_CYCLES = 200

#: EMS cycles of fixed per-operation setup for software crypto (a
#: function call, no device round-trip).
CRYPTO_SOFTWARE_SETUP_CYCLES = 50

# ---------------------------------------------------------------------------
# Memory encryption + integrity (Fig. 8b, Fig. 9)
# ---------------------------------------------------------------------------

#: Extra DRAM-path cycles per off-chip access for decrypt + MAC check.
#: Fitted to Fig. 8b's 3.1% average MemStream latency overhead.
ENCRYPTION_DRAM_ADDER_CYCLES = 5.7

# ---------------------------------------------------------------------------
# Bitmap checking in the PTW (Fig. 10)
# ---------------------------------------------------------------------------

#: Serialized tail of the bitmap retrieve after a PTW walk (the check
#: itself overlaps the original permission check). Fitted to Fig. 10:
#: xalancbmk_r with a 0.8% D-TLB miss rate shows 4.6% overhead.
BITMAP_SERIAL_CYCLES = 12.0

# ---------------------------------------------------------------------------
# TLB flush on enclave context switch / bitmap update (Fig. 11)
# ---------------------------------------------------------------------------

#: CS cycles to re-walk one TLB entry after a flush.
TLB_REFILL_WALK_CYCLES = 120

#: CS L2 TLB capacity bounds the refill volume (Table III: 1024 entries).
CS_L2_TLB_ENTRIES = 1024

#: Fraction of flushed entries that are actually re-walked before the next
#: flush (cold entries never refill).
TLB_REFILL_FRACTION = 0.92

#: Paper's measured bitmap-update flush rate for enclave workloads:
#: 16.72 flushes per billion instructions (Section VII-C).
BITMAP_FLUSHES_PER_BILLION_INSTR = 16.72

# ---------------------------------------------------------------------------
# Software crypto on the CS core (Fig. 12 conventional baseline)
# ---------------------------------------------------------------------------

#: Bytes/sec for in-enclave software AES-GCM on the CS core. Conventional
#: enclave<->accelerator communication pays this twice per transfer
#: (encrypt on one side, decrypt on the other).
CS_SOFTWARE_CRYPTO_BYTES_PER_SEC = 0.5e9

#: One-time shared-memory setup in HyperTEE (ESHMGET+ESHMAT+ESHMSHR and
#: attestation), amortized over an inference/transfer session, seconds.
SHM_SETUP_SECONDS = 120e-6

# ---------------------------------------------------------------------------
# SLO simulation (Fig. 6)
# ---------------------------------------------------------------------------

#: Think time between successive primitive requests from one CS core
#: (seconds): the CS-side work between 2 MB EALLOCs in the Fig. 6
#: experiment. Applications allocating 2 MB chunks do so every few
#: milliseconds of real work.
SLO_THINK_TIME_SECONDS = 10e-3

#: Latency a non-enclave allocation needs at the 99th percentile — the
#: "baseline" each Fig. 6 curve is normalized to.
SLO_BASELINE_SECONDS = HOST_MALLOC_BASE_CYCLES / 2.5e9 + 512 * \
    HOST_MALLOC_PER_PAGE_CYCLES / 2.5e9
