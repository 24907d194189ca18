"""The paper's conclusions for Table IV and Figs 6–12, asserted on the
data functions ``python -m repro`` renders.

``tests/golden/paper.json`` and ``table4.json`` pin the exact values;
these tests say why those values reproduce the paper: who wins, by what
factor, and where the crossovers fall. Claims made elsewhere are not
repeated here: Table V's bands (tests/eval/test_area.py), Table VI
(tests/attacks/test_harness.py), Fig. 6's SLO verdicts
(tests/eval/test_slo.py), the Fig. 11 anchor and the bitmap-update bound
(tests/eval/test_overhead_report.py), and the abstract's averages and
speedups (tests/test_paper_claims.py).
"""

from __future__ import annotations

from repro.eval.regenerate import (
    FIG8A_SIZES_KB,
    FIG11_FREQUENCIES_HZ,
    FIG11_MEMORY_MB,
    fig6_rows,
    fig7_rows,
    fig8a_rows,
    fig8b_rows,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    table4_rows,
)
from repro.workloads.dnn import MLP_MODELS

#: Paper Table IV: (noncrypto all, noncrypto EMEAS, crypto all, crypto EMEAS).
TABLE4_PAPER = {
    "aes": (6.8, 5.1, 1.6, 0.06),
    "dhrystone": (19.0, 14.3, 4.5, 0.18),
    "miniz": (8.1, 6.1, 1.9, 0.08),
    "norx": (10.4, 7.8, 2.5, 0.10),
    "primes": (5.1, 3.9, 1.2, 0.05),
    "qsort": (2.8, 2.1, 0.7, 0.03),
    "sha512": (10.8, 8.1, 2.6, 0.10),
    "wolfssl": (19.9, 15.0, 4.7, 0.19),
}


def test_table4_cells_within_paper_bands():
    for name, (nc_all, nc_em, c_all, c_em) in table4_rows().items():
        paper = TABLE4_PAPER[name]
        assert abs(nc_all * 100 - paper[0]) < 0.5, name
        assert abs(nc_em * 100 - paper[1]) < 0.5, name
        assert abs(c_all * 100 - paper[2]) < 0.6, name
        assert abs(c_em * 100 - paper[3]) < 0.05, name


def test_table4_averages_match_the_headline():
    """10.4% -> 2.5% for all primitives; the crypto engine collapses
    EMEAS by about two orders of magnitude."""
    rows = list(table4_rows().values())
    averages = [sum(row[i] for row in rows) / len(rows) for i in range(4)]
    assert averages[1] / averages[3] > 50
    assert abs(averages[0] * 100 - 10.4) < 0.5
    assert abs(averages[2] * 100 - 2.5) < 0.5


def test_fig6_more_ems_cores_pull_p99_toward_baseline():
    p99 = {(r["cs_cores"], r["ems_cores"], r["ems_name"]): r["p99_factor"]
           for r in fig6_rows()}
    assert (p99[(64, 4, "medium")] <= p99[(64, 2, "medium")]
            <= p99[(64, 1, "medium")])


def test_fig7_ems_config_averages():
    """Weak 5.7%, strong 1.9% (medium is in test_paper_claims); medium
    recovers 3.7 points over weak, strong only 0.1 more."""
    data = fig7_rows()
    average = data["average"]
    assert abs(average["weak"] * 100 - 5.7) < 0.4
    assert abs(average["strong"] * 100 - 1.9) < 0.3
    assert average["weak"] - average["medium"] > 0.03
    assert average["medium"] - average["strong"] < 0.002
    assert all(row["weak"] > row["medium"]
               for row in data["overhead"].values())


def test_fig8a_alloc_overhead_band():
    """6.3%..49.7%; the fixed transport cost dominates small requests."""
    overheads = {kb: row["overhead"] for kb, row in fig8a_rows().items()}
    assert abs(overheads[128] * 100 - 49.7) < 2.0
    assert abs(overheads[2048] * 100 - 6.3) < 1.0
    assert all(0.05 < ovh < 0.52 for ovh in overheads.values())
    ordered = [overheads[kb] for kb in FIG8A_SIZES_KB]
    assert ordered == sorted(ordered, reverse=True)
    assert all(ovh > 0 for ovh in overheads.values())


def test_fig8b_memstream_overhead():
    """3.1% on average; more DRAM traffic never lowers the overhead."""
    data = fig8b_rows()
    overheads = [row["overhead"] for row in data["sizes"].values()]
    assert abs(data["average"] * 100 - 3.1) < 0.3
    assert all(0.02 < ovh < 0.045 for ovh in overheads)
    assert overheads == sorted(overheads)


def test_fig9_wolfssl_memory_management():
    """0.9% in total; allocation and encryption both contribute."""
    data = fig9_rows()
    assert abs(data["total"] * 100 - 0.9) < 0.2
    assert data["alloc_delta_cycles"] > 0 and data["encryption_cycles"] > 0


def test_fig10_xalancbmk_outlier():
    """xalancbmk_r is the 4.6% outlier; high-locality benchmarks are
    nearly free (the 1.9% average is in test_paper_claims)."""
    overheads = fig10_rows()["overhead"]
    assert abs(overheads["xalancbmk_r"] * 100 - 4.6) < 0.3
    assert overheads["xalancbmk_r"] == max(overheads.values())
    assert overheads["exchange2_r"] < 0.005
    assert all(0 < ovh <= overheads["xalancbmk_r"]
               for ovh in overheads.values())


def test_fig11_grid_shape():
    """The worst corner is 32 MB at 400 Hz; the overhead rises with
    frequency and flattens beyond the TLB's reach (4 MB)."""
    grid = fig11_rows()["context_switch"]
    assert grid[32][400] == max(by_hz[hz] for by_hz in grid.values()
                                for hz in FIG11_FREQUENCIES_HZ)
    for mb in FIG11_MEMORY_MB:
        series = [grid[mb][hz] for hz in FIG11_FREQUENCIES_HZ]
        assert series == sorted(series)
    assert grid[8][400] == grid[32][400]
    assert grid[2][400] < grid[8][400]


def test_fig12_crypto_shares_and_orderings():
    """ResNet50's crypto share >74.7%, MobileNet >3.3x, every MLP above
    ResNet50 in share and speedup, NIC crypto >=98% (the speedup floors
    are in test_paper_claims)."""
    rows = fig12_rows()
    resnet = rows["resnet50"]
    assert resnet["crypto_share"] > 0.747
    assert rows["mobilenet"]["speedup"] > 3.3
    for mlp in MLP_MODELS:
        assert rows[mlp.name]["crypto_share"] > resnet["crypto_share"], \
            mlp.name
        assert rows[mlp.name]["speedup"] > resnet["speedup"], mlp.name
    assert rows["nic-stream"]["crypto_share"] >= 0.979
