"""TLB-flush overhead model (Fig. 11) and the report renderer."""

from __future__ import annotations


from repro.eval.overhead import (
    bitmap_update_flush_overhead,
    context_switch_flush_overhead,
    tlb_refill_cycles,
)
from repro.eval.report import pct, render_table, times


def test_refill_bounded_by_tlb_capacity():
    assert tlb_refill_cycles(4) == tlb_refill_cycles(64)  # both >= 1024 pages
    assert tlb_refill_cycles(1) < tlb_refill_cycles(4)


def test_fig11_anchor_point():
    """32 MB at 400 Hz: no more than 1.81% (the paper's stated bound)."""
    overhead = context_switch_flush_overhead(32, 400)
    assert overhead <= 0.0181 + 1e-6
    assert overhead > 0.015


def test_overhead_monotone_in_frequency_and_size():
    assert (context_switch_flush_overhead(32, 400)
            > context_switch_flush_overhead(32, 100))
    assert (context_switch_flush_overhead(32, 200)
            >= context_switch_flush_overhead(2, 200))


def test_bitmap_update_flushes_under_paper_bound():
    """Section VII-C: below 0.7% on SPEC at 16.72 flushes/B-instr."""
    assert bitmap_update_flush_overhead() < 0.007


def test_render_table():
    out = render_table("T", ["a", "bb"], [[1, 2], ["xxx", 4]])
    lines = out.splitlines()
    assert lines[0] == "=== T ==="
    assert "xxx" in out and "bb" in out
    assert len(lines) == 5


def test_formatters():
    assert pct(0.0213) == "2.13%"
    assert times(4.26) == "4.3x"
