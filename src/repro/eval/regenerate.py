"""Regenerate the paper's evaluation section as text.

Each artifact has one data function that computes its numbers at full
precision (``table4_rows``, ``fig7_rows``, ...; Table V's is
``eval.area.table5_rows`` and Table VI's ``attacks.harness.defense_matrix``).
The text functions only render them, and the tests read the same
functions: ``tests/golden/paper.json`` and ``table4.json`` pin every
value, the paper-agreement tests assert the paper's bands, and
``tests/test_experiments_doc.py`` checks EXPERIMENTS.md against the text.

``python -m repro`` prints every table and figure; individual artifacts
can be selected: ``python -m repro table4 fig7``.
"""

from __future__ import annotations

from repro.eval.report import pct, render_table, times

#: Fig. 6 configurations, as (CS cores, EMS cores, EMS config).
FIG6_GRID = (
    (4, 1, "weak"), (4, 1, "medium"),
    (16, 1, "weak"), (16, 2, "weak"), (16, 2, "medium"),
    (32, 1, "medium"), (32, 2, "medium"), (32, 4, "medium"),
    (64, 1, "medium"), (64, 2, "medium"), (64, 4, "medium"),
)

#: Fig. 6 CDF points: multiples of the non-enclave baseline latency.
FIG6_CDF_FACTORS = (1.5, 2.0, 3.0, 6.0, 12.0)

#: Fig. 8a allocation sizes (KB).
FIG8A_SIZES_KB = (128, 256, 512, 1024, 2048)

#: Fig. 11 sweep: miniz memory (MB) by context-switch frequency (Hz).
FIG11_MEMORY_MB = (2, 4, 8, 16, 32)
FIG11_FREQUENCIES_HZ = (100, 150, 200, 400)

_EMS_CONFIGS = ("weak", "medium", "strong")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def table2_rows() -> list[tuple[str, str, str]]:
    """Table II: ``(group, primitive, privilege)`` per HyperTEE primitive."""
    from repro.common.types import PRIMITIVE_PRIVILEGE, Primitive, Privilege

    groups = {
        "Life Cycle": ["ECREATE", "EADD", "EENTER", "ERESUME", "EEXIT",
                       "EDESTROY"],
        "Memory": ["EALLOC", "EFREE", "EWB"],
        "Communication": ["ESHMGET", "ESHMAT", "ESHMDT", "ESHMSHR",
                          "ESHMDES"],
        "Key/Attestation": ["EMEAS", "EATTEST"],
    }
    return [(group, name,
             "OS" if PRIMITIVE_PRIVILEGE[Primitive(name)] is Privilege.SUPERVISOR
             else "User")
            for group, names in groups.items() for name in names]


def table2() -> str:
    """Table II: the primitive set and privilege levels."""
    return render_table("Table II — HyperTEE primitives",
                        ["group", "primitive", "privilege"], table2_rows())


def table3_rows() -> dict[str, dict[str, object]]:
    """Table III: core name -> its pipeline, widths, ROB, caches and fmax."""
    from repro.hw.core import CS_CORE, EMS_MEDIUM, EMS_STRONG, EMS_WEAK

    return {config.name: {
        "pipeline": config.pipeline, "fetch_width": config.fetch_width,
        "decode_width": config.decode_width,
        "rob_entries": config.rob_entries, "l1i_kb": config.l1i_kb,
        "l1d_kb": config.l1d_kb, "l2_kb": config.l2_kb,
        "freq_hz": config.freq_hz,
    } for config in (CS_CORE, EMS_WEAK, EMS_MEDIUM, EMS_STRONG)}


def table3() -> str:
    """Table III: CS/EMS core configurations."""
    return render_table(
        "Table III — core configurations",
        ["core", "pipeline", "fetch/decode", "ROB", "L1 I/D", "L2", "fmax"],
        [[name, c["pipeline"], f"{c['fetch_width']}/{c['decode_width']}",
          c["rob_entries"] or "-", f"{c['l1i_kb']}/{c['l1d_kb']}KB",
          f"{c['l2_kb']}KB", f"{c['freq_hz'] / 1e9:.2f}GHz"]
         for name, c in table3_rows().items()])


def table4_rows() -> dict[str, tuple[float, float, float, float]]:
    """Canonical Table IV numbers, full precision.

    Per rv8 workload: primitive time as a share of Host-Native runtime —
    ``(noncrypto all, noncrypto EMEAS, crypto all, crypto EMEAS)``.
    Pinned exactly by ``tests/golden/table4.json``; the paper's bands are
    asserted in ``tests/eval/test_paper_figures.py``.
    """
    from repro.eval.scenarios import ENCLAVE_CRYPTO, ENCLAVE_NONCRYPTO
    from repro.workloads.runner import host_baseline, run_workload
    from repro.workloads.rv8 import RV8_WORKLOADS

    rows = {}
    for name, profile in RV8_WORKLOADS.items():
        base = host_baseline(profile).total_cycles
        nc = run_workload(profile, ENCLAVE_NONCRYPTO)
        cr = run_workload(profile, ENCLAVE_CRYPTO)
        rows[name] = (nc.primitive_cycles / base, nc.emeas_cycles / base,
                      cr.primitive_cycles / base, cr.emeas_cycles / base)
    return rows


def table4() -> str:
    """Table IV: primitive execution time vs Host-Native."""
    return render_table(
        "Table IV — primitive time vs Host-Native",
        ["workload", "noncrypto all", "noncrypto EMEAS",
         "crypto all", "crypto EMEAS"],
        [[name, pct(r[0], 1), pct(r[1], 1), pct(r[2], 1), pct(r[3], 2)]
         for name, r in table4_rows().items()])


def table5() -> str:
    """Table V: EMS area overhead per SoC size."""
    from repro.eval.area import table5_rows

    return render_table(
        "Table V — EMS area overhead",
        ["CS cores", "CS mm^2", "EMS config", "EMS mm^2", "overhead"],
        [[r.cs_cores, f"{r.cs_area:.0f}", f"{r.ems_cores}x{r.ems_name}",
          f"{r.ems_area:.2f}", f"{r.overhead_pct:.2f}%"]
         for r in table5_rows()])


def table6() -> str:
    """Table VI: the computed attack-defense matrix."""
    from repro.attacks.harness import CHANNELS, defense_matrix, matrix_outcomes

    glyph = {"leaked": "O", "defended": "#", "partial": "~"}
    outcomes = matrix_outcomes(defense_matrix())
    return render_table(
        "Table VI — defense matrix (O=leaked  #=defended  ~=partial)",
        ["TEE", *CHANNELS],
        [[tee, *(glyph[outcomes[tee][ch].value] for ch in CHANNELS)]
         for tee in outcomes])


def fig6_rows() -> list[dict[str, object]]:
    """Fig. 6: one record per :data:`FIG6_GRID` configuration.

    ``p99_factor`` is the p99 latency over the non-enclave baseline,
    ``cdf`` the fraction of primitives resolved within each of
    :data:`FIG6_CDF_FACTORS` times it, and ``slo_met`` the SLO verdict.
    """
    from repro.eval.slo import meets_slo, simulate

    rows = []
    for cs_cores, ems_cores, ems_name in FIG6_GRID:
        result = simulate(cs_cores, ems_cores, ems_name)
        rows.append({
            "cs_cores": cs_cores, "ems_cores": ems_cores,
            "ems_name": ems_name, "p99_factor": result.p99_factor(),
            "cdf": [result.fraction_within(x) for x in FIG6_CDF_FACTORS],
            "slo_met": meets_slo(result)})
    return rows


def fig6() -> str:
    """Fig. 6: SLO of concurrent primitives per EMS config."""
    from repro.eval.slo import SLO_FACTOR

    return render_table(
        f"Fig. 6 — SLO (p99 and CDF in multiples of the non-enclave "
        f"baseline; met = 99% within {SLO_FACTOR:.0f}x)",
        ["CS cores", "EMS", "p99", *[f"<={x:g}x" for x in FIG6_CDF_FACTORS],
         "SLO met"],
        [[r["cs_cores"], f"{r['ems_cores']}x{r['ems_name']}",
          f"{r['p99_factor']:.2f}x", *[pct(frac, 0) for frac in r["cdf"]],
          "yes" if r["slo_met"] else "NO"]
         for r in fig6_rows()])


def fig7_rows() -> dict[str, dict[str, object]]:
    """Fig. 7: enclave overhead vs Host-Native per EMS configuration.

    ``overhead`` maps each RV8/wolfSSL workload to its overhead under
    the weak, medium and strong EMS; ``average`` is each config's mean.
    """
    from repro.eval.scenarios import ENCLAVE_FULL
    from repro.hw.core import ems_config
    from repro.workloads.runner import host_baseline, run_workload
    from repro.workloads.rv8 import rv8_suite

    overhead = {}
    for profile in rv8_suite():
        base = host_baseline(profile)
        overhead[profile.name] = {
            label: run_workload(profile, ENCLAVE_FULL,
                                ems_config(label)).overhead_vs(base)
            for label in _EMS_CONFIGS}
    return {"overhead": overhead,
            "average": {label: _mean(row[label] for row in overhead.values())
                        for label in _EMS_CONFIGS}}


def fig7() -> str:
    """Fig. 7: enclave overhead per EMS configuration."""
    data = fig7_rows()
    rows = [[name, *(pct(row[label], 1) for label in _EMS_CONFIGS)]
            for name, row in data["overhead"].items()]
    rows.append(["average", *(pct(data["average"][label], 2)
                              for label in _EMS_CONFIGS)])
    return render_table("Fig. 7 — enclave overhead by EMS config",
                        ["workload", *_EMS_CONFIGS], rows)


def fig8a_rows() -> dict[int, dict[str, float]]:
    """Fig. 8a: size (KB) -> malloc and EALLOC cycles and the overhead."""
    from repro.hw.core import EMS_MEDIUM
    from repro.workloads import costs

    rows = {}
    for kb in FIG8A_SIZES_KB:
        pages = kb * 1024 // 4096
        host = costs.host_malloc_cycles(pages)
        enclave = costs.ealloc_cycles(pages, EMS_MEDIUM)
        rows[kb] = {"malloc_cycles": host, "ealloc_cycles": enclave,
                    "overhead": enclave / host - 1}
    return rows


def fig8a() -> str:
    """Fig. 8a: EALLOC vs malloc latency sweep."""
    return render_table(
        "Fig. 8a — EALLOC vs malloc latency (cycles)",
        ["size", "malloc", "EALLOC", "overhead"],
        [[f"{kb}KB", f"{r['malloc_cycles']}", f"{r['ealloc_cycles']:.0f}",
          pct(r["overhead"], 1)] for kb, r in fig8a_rows().items()])


def fig8b_rows() -> dict[str, object]:
    """Fig. 8b: MemStream latency with and without encryption+integrity.

    ``sizes`` maps each footprint (MB) to its average access latency in
    cycles either way and the overhead; ``average`` is the mean overhead.
    """
    from repro.workloads.memstream import memstream_points

    sizes = {p.size_mb: {"base_cycles": p.average_latency(False),
                         "encrypted_cycles": p.average_latency(True),
                         "overhead": p.latency_overhead()}
             for p in memstream_points()}
    return {"sizes": sizes,
            "average": _mean(r["overhead"] for r in sizes.values())}


def fig8b() -> str:
    """Fig. 8b: MemStream encryption latency sweep."""
    data = fig8b_rows()
    rows = [[f"{mb}MB", f"{r['base_cycles']:.1f}",
             f"{r['encrypted_cycles']:.1f}", pct(r["overhead"], 2)]
            for mb, r in data["sizes"].items()]
    rows.append(["average", "-", "-", pct(data["average"], 2)])
    return render_table(
        "Fig. 8b — MemStream latency under encryption+integrity",
        ["size", "base cycles", "encrypted cycles", "overhead"], rows)


def fig9_rows() -> dict[str, float]:
    """Fig. 9: wolfSSL's memory-management cost in cycles and shares.

    The EALLOC-vs-malloc delta and the encryption+integrity cycles, each
    also as a share of the Host-Native runtime, and their sum (``total``).
    """
    from repro.eval.scenarios import ENCLAVE_M_ENCRYPT
    from repro.workloads.runner import host_baseline, run_workload
    from repro.workloads.rv8 import WOLFSSL

    base = host_baseline(WOLFSSL)
    run = run_workload(WOLFSSL, ENCLAVE_M_ENCRYPT)
    alloc_delta = run.allocation_cycles - base.allocation_cycles
    return {
        "base_cycles": base.total_cycles,
        "alloc_delta_cycles": alloc_delta,
        "encryption_cycles": run.encryption_cycles,
        "alloc_share": alloc_delta / base.total_cycles,
        "encryption_share": run.encryption_cycles / base.total_cycles,
        "total": (alloc_delta + run.encryption_cycles) / base.total_cycles,
    }


def fig9() -> str:
    """Fig. 9: wolfSSL all-memory-management overhead."""
    r = fig9_rows()
    return render_table(
        "Fig. 9 — wolfSSL all memory management",
        ["component", "cycles", "share of Host-Native"],
        [["Host-Native runtime", f"{r['base_cycles']:.3e}", "-"],
         ["EALLOC vs malloc", f"{r['alloc_delta_cycles']:.3e}",
          pct(r["alloc_share"], 2)],
         ["encryption+integrity", f"{r['encryption_cycles']:.3e}",
          pct(r["encryption_share"], 2)],
         ["total", "-", pct(r["total"], 2)]])


def fig10_rows() -> dict[str, object]:
    """Fig. 10: bitmap-checking overhead per SPEC CPU2017 benchmark.

    ``overhead`` maps each benchmark to its Host-Bitmap overhead;
    ``average`` is their mean.
    """
    from repro.eval.scenarios import HOST_BITMAP
    from repro.workloads.runner import host_baseline, run_workload
    from repro.workloads.spec import spec_suite

    overhead = {p.name: run_workload(p, HOST_BITMAP).overhead_vs(
        host_baseline(p)) for p in spec_suite()}
    return {"overhead": overhead, "average": _mean(overhead.values())}


def fig10() -> str:
    """Fig. 10: bitmap-checking overhead on SPEC CPU2017."""
    data = fig10_rows()
    rows = [[name, pct(value, 2)] for name, value in data["overhead"].items()]
    rows.append(["average", pct(data["average"], 2)])
    return render_table("Fig. 10 — bitmap checking on SPEC CPU2017",
                        ["benchmark", "overhead"], rows)


def fig11_rows() -> dict[str, object]:
    """Fig. 11: TLB-flush overheads.

    ``context_switch`` maps memory (MB) -> switch frequency (Hz) -> the
    enclave overhead of context-switch flushes; ``bitmap_update`` is the
    host-side cost of bitmap-update flushes on non-enclave SPEC.
    """
    from repro.eval.overhead import (
        bitmap_update_flush_overhead,
        context_switch_flush_overhead,
    )

    return {
        "context_switch": {
            mb: {hz: context_switch_flush_overhead(mb, hz)
                 for hz in FIG11_FREQUENCIES_HZ}
            for mb in FIG11_MEMORY_MB},
        "bitmap_update": bitmap_update_flush_overhead(),
    }


def fig11() -> str:
    """Fig. 11: TLB-flush overhead grid."""
    data = fig11_rows()
    table = render_table(
        "Fig. 11 — TLB flush overhead (miniz)",
        ["memory", *[f"{hz}Hz" for hz in FIG11_FREQUENCIES_HZ]],
        [[f"{mb}MB", *[pct(by_hz[hz], 2) for hz in FIG11_FREQUENCIES_HZ]]
         for mb, by_hz in data["context_switch"].items()])
    return (f"{table}\nbitmap-update flushes on non-enclave SPEC: "
            f"{pct(data['bitmap_update'], 2)}")


def fig12_rows() -> dict[str, dict[str, float]]:
    """Fig. 12: per DNN model and the NIC stream, conventional and
    HyperTEE seconds, the conventional crypto share, and the speedup."""
    from repro.workloads.dnn import (
        ALL_DNN_MODELS,
        conventional_timing,
        hypertee_timing,
        speedup,
    )
    from repro.workloads.nic import NICTransfer

    rows = {}
    for model in ALL_DNN_MODELS:
        conv = conventional_timing(model)
        rows[model.name] = {
            "conventional_s": conv.total_seconds,
            "crypto_share": conv.crypto_share,
            "hypertee_s": hypertee_timing(model).total_seconds,
            "speedup": speedup(model)}
    nic = NICTransfer(total_bytes=100e6)
    rows["nic-stream"] = {
        "conventional_s": nic.conventional_seconds(),
        "crypto_share": nic.crypto_share(),
        "hypertee_s": nic.hypertee_seconds(), "speedup": nic.speedup()}
    return rows


def fig12() -> str:
    """Fig. 12: enclave communication speedups."""
    return render_table(
        "Fig. 12 — enclave communication",
        ["workload", "conventional (s)", "crypto share (conv.)",
         "HyperTEE (s)", "speedup"],
        [[name, f"{r['conventional_s']:.4f}", pct(r["crypto_share"], 1),
          f"{r['hypertee_s']:.4f}", times(r["speedup"])]
         for name, r in fig12_rows().items()])


def tcb() -> str:
    """Section VIII-A: the software-TCB inventory of this model."""
    from repro.eval.tcb import tcb_inventory, tcb_total_lines

    rows = [[e.component, len(e.modules), e.code_lines]
            for e in tcb_inventory()]
    rows.append(["TOTAL", "-", tcb_total_lines()])
    return render_table("TCB inventory (Section VIII-A; paper runtime: "
                        "3843 LoC of Rust)",
                        ["component", "modules", "code lines"], rows)


#: Artifact name -> generator, in paper order.
ARTIFACTS = {
    "table2": table2, "table3": table3,
    "table4": table4, "table5": table5, "table6": table6,
    "tcb": tcb,
    "fig6": fig6, "fig7": fig7, "fig8a": fig8a, "fig8b": fig8b,
    "fig9": fig9, "fig10": fig10, "fig11": fig11, "fig12": fig12,
}


def regenerate(names: list[str] | None = None) -> str:
    """Render the selected artifacts (all of them by default)."""
    selected = names if names else list(ARTIFACTS)
    unknown = [n for n in selected if n not in ARTIFACTS]
    if unknown:
        raise SystemExit(
            f"unknown artifacts {unknown}; choose from {list(ARTIFACTS)}")
    return "\n\n".join(ARTIFACTS[name]() for name in selected)
