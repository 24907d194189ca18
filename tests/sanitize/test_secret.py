"""The SECRET sanitizer: every surface check, plus the clean scenario.

Each test seeds one concrete leak through a manager-level hook and
expects the matching SECRET-LEAK diagnostic; the final tests run the
full sanitized lifecycle and assert the real platform stays clean —
the dynamic twin of teelint's TEE004.
"""

from __future__ import annotations

import pytest

from repro.common.constants import PAGE_SIZE
from repro.sanitize.manager import (
    SanitizerManager,
    SanitizeViolationError,
)


SECRET = bytes(range(200, 232))


@pytest.fixture
def manager() -> SanitizerManager:
    san = SanitizerManager(("secret",))
    san.register_secret(SECRET, "unit-key")
    return san


class _Memory:
    """Just enough PhysicalMemory for the frame-lifecycle checks."""

    def __init__(self) -> None:
        self.frames: dict[int, bytes] = {}

    def read_raw(self, paddr: int, length: int) -> bytes:
        frame = paddr // PAGE_SIZE
        data = self.frames.get(frame, bytes(PAGE_SIZE))
        offset = paddr % PAGE_SIZE
        return data[offset:offset + length]


class _Packet:
    def __init__(self, **fields):
        self.__dict__.update(fields)


def test_wire_packet_leak_fires(manager):
    packet = _Packet(request_id=9, args={"blob": b"xx" + SECRET})
    manager.on_wire_packet(packet, "request")
    assert not manager.ok()
    v = manager.violations[0]
    assert v.kind == "SECRET-LEAK"
    assert "crossed the CS<->EMS boundary" in v.message
    assert "unit-key" in v.message
    assert SECRET.hex() not in v.message  # reports never carry the value


def test_wire_packet_recurses_into_batches(manager):
    inner = _Packet(request_id=1, args={"k": SECRET})
    outer = _Packet(batch_id=5, requests=[inner])
    manager.on_wire_packet(outer, "request")
    assert not manager.ok()
    assert "request.batched" in manager.violations[0].message


def test_clean_wire_packet_passes(manager):
    packet = _Packet(request_id=2, args={"payload": b"plain data",
                                         "nested": [b"ok", "text"]})
    manager.on_wire_packet(packet, "request")
    assert manager.ok()
    assert manager.stats.wire_packets_scanned == 1


def test_raw_write_leak_marks_shadow_and_fires(manager):
    manager.on_raw_write(_Memory(), 3 * PAGE_SIZE + 100, b"x" + SECRET)
    assert not manager.ok()
    assert "DRAM bus" in manager.violations[0].message
    spans = manager.shadow.spans_for(3)
    assert [(s.start, s.end) for s in spans] == [(101, 101 + len(SECRET))]


def test_raw_write_spanning_frames_taints_both(manager):
    start = 5 * PAGE_SIZE - 16  # last 16 bytes of frame 4, rest in 5
    manager.on_raw_write(_Memory(), start, SECRET)
    assert manager.shadow.is_tainted(4) and manager.shadow.is_tainted(5)
    assert manager.shadow.spans_for(4)[0].end == PAGE_SIZE
    assert manager.shadow.spans_for(5)[0].start == 0


def test_overwrite_clears_shadow_and_zero_frame_scrubs(manager):
    memory = _Memory()
    manager.on_raw_write(memory, 7 * PAGE_SIZE, SECRET)
    assert manager.shadow.is_tainted(7)
    # Overwriting the range with non-secret bytes untaints it.
    manager.on_raw_write(memory, 7 * PAGE_SIZE, bytes(len(SECRET)))
    assert not manager.shadow.is_tainted(7)
    # And zeroing scrubs whatever was left.
    manager.on_raw_write(memory, 7 * PAGE_SIZE + 64, SECRET)
    manager.on_zero_frame(7)
    assert not manager.shadow.is_tainted(7)


def test_regranted_frame_with_live_shadow_fires(manager):
    memory = _Memory()
    manager.on_raw_write(memory, 9 * PAGE_SIZE, SECRET)
    violations_before = len(manager.violations)
    manager.on_pool_take(memory, [9], owner="new-owner")
    assert len(manager.violations) == violations_before + 1
    assert "regranted frame 9" in manager.violations[-1].message


def test_freed_frame_retaining_secret_fires(manager):
    memory = _Memory()
    memory.frames[11] = SECRET + bytes(PAGE_SIZE - len(SECRET))
    manager.on_pool_return(memory, [11], owner="dead-enclave")
    assert not manager.ok()
    assert "retained in freed frame 11" in manager.violations[0].message
    assert "EWB" not in manager.violations[0].message
    manager.violations.clear()
    manager.on_pool_surrender(memory, [11])
    assert "EWB surrender" in manager.violations[0].message


def test_observable_scan_catches_raw_and_hex(manager):
    manager.on_observable("flightrec.fault", {"detail": SECRET})
    assert not manager.ok()
    manager.violations.clear()
    manager.on_observable("flightrec.fault",
                          {"detail": f"key={SECRET.hex()}"})
    assert not manager.ok()
    assert "observability payload" in manager.violations[0].message
    manager.violations.clear()
    manager.on_observable("flightrec.fault", {"detail": "all quiet"})
    assert manager.ok()


def test_codec_artifact_scan(manager):
    manager.on_codec_encode("sealed_blob", b"HTSB" + SECRET)
    assert not manager.ok()
    assert "encoded artifact sealed_blob" in manager.violations[0].message


def test_check_clean_raises_with_report(manager):
    manager.on_codec_encode("quote", SECRET)
    with pytest.raises(SanitizeViolationError) as excinfo:
        manager.check_clean("unit")
    text = str(excinfo.value)
    assert "ERROR: TeeSan SECRET-LEAK" in text
    assert "SUMMARY: TeeSan:" in text


def test_full_lifecycle_scenario_is_clean():
    from repro.sanitize.scenario import run_sanitized_scenario

    manager = run_sanitized_scenario(sanitizers=("secret", "own"))
    manager.check_clean("lifecycle")
    assert manager.stats.secrets_registered >= 5
    assert manager.stats.wire_packets_scanned > 0
    assert manager.stats.raw_writes_scanned > 0
    assert manager.stats.frames_scanned > 0


def test_seeded_leak_is_detected_end_to_end():
    """The CLI's seeded SECRET violation, via the library path."""
    from repro.sanitize.cli import _seed_secret_violation

    manager = _seed_secret_violation(seed=0x1EE7)
    assert not manager.ok()
    kinds = {v.kind for v in manager.violations}
    assert kinds == {"SECRET-LEAK"}
    assert any("DRAM bus" in v.message for v in manager.violations)
    # The trail names the mint that produced the leaked key.
    assert any("secret.mint" in line
               for v in manager.violations for line in v.trail)
