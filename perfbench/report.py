"""Per-layer metrics of a traced run, and the predictions they test."""

from __future__ import annotations

from layers import LAYER_NAMES

#: (name, unit, better) of every per-layer metric, in report order. Self
#: time per op is printed in the report table but is not a metric: a layer
#: a workload never calls reads exactly 0 us on every run.
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    (f"{layer}.{kind}", unit, "lower")
    for layer in LAYER_NAMES
    for kind, unit in (("share", "fraction"), ("calls_per_op", "calls/op"))
) + (
    ("other.share", "fraction", "lower"),
    ("core.system.setup_share", "fraction", "lower"),
    ("crypto.cipher.blocks_per_op", "blocks/op", "lower"),
    ("hw.tlb.hit_ratio", "fraction", "higher"),
    ("cs.emcall.attempts_per_call", "attempts/call", "lower"),
    ("hw.mailbox.polls_per_response", "polls/response", "lower"),
    ("ems.runtime.empty_pump_share", "fraction", "lower"),
    ("ems.memory_pool.frames_zeroed_per_op", "frames/op", "lower"),
    ("tracing_overhead", "ratio", "lower"),
)

#: Layers whose traced time is the memory datapath.
DATAPATH = ("hw.memory", "hw.encryption_engine", "crypto.cipher",
            "crypto.hashes", "hw.page_table", "hw.tlb")
#: Groups compared by the control_plane prediction.
GROUPS = {
    "transport (cs.emcall, hw.mailbox, ems.runtime)":
        ("cs.emcall", "hw.mailbox", "ems.runtime"),
    "attestation (ems.attestation, crypto.hashes)":
        ("ems.attestation", "crypto.hashes"),
    "facade (core.api)": ("core.api",),
    "datapath (hw.*, crypto.cipher)":
        ("hw.memory", "hw.encryption_engine", "crypto.cipher",
         "hw.page_table", "hw.tlb"),
    "managers (ems.lifecycle, page_mgmt, memory_pool, shardpool)":
        ("ems.lifecycle", "ems.page_mgmt", "ems.memory_pool",
         "ems.shardpool"),
    "obs": ("obs",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def predictions(workload: str, share: dict[str, float]) -> list[tuple[str, bool]]:
    """The acceptance predictions for ``workload``, each with whether it held."""
    if workload == "enclave_io":
        datapath = sum(share[name] for name in DATAPATH)
        return [(f"enclave_io: >= 90% of traced time in the datapath "
                 f"(hw.memory, hw.encryption_engine, crypto.*, hw.page_table, "
                 f"hw.tlb): {datapath:.1%}", datapath >= 0.90),
                (f"enclave_io: no obs or ems.shardpool time: "
                 f"{share['obs']:.2%}, {share['ems.shardpool']:.2%}",
                 share["obs"] == 0 and share["ems.shardpool"] == 0)]
    if workload == "control_plane":
        groups = {group: sum(share[name] for name in members)
                  for group, members in GROUPS.items()}
        largest = max(groups, key=groups.get)
        return [(f"control_plane: about 0% in crypto.cipher: "
                 f"{share['crypto.cipher']:.2%}", share["crypto.cipher"] < 0.005),
                (f"control_plane: transport is the largest group "
                 f"({', '.join(f'{g.split()[0]} {v:.1%}' for g, v in groups.items())})",
                 largest.startswith("transport")),
                (f"control_plane: no obs or ems.shardpool time: "
                 f"{share['obs']:.2%}, {share['ems.shardpool']:.2%}",
                 share["obs"] == 0 and share["ems.shardpool"] == 0)]
    return [(f"serve: non-zero obs and ems.shardpool shares: "
             f"{share['obs']:.2%}, {share['ems.shardpool']:.2%}",
             share["obs"] > 0 and share["ems.shardpool"] > 0)]


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from a traced run, with report lines."""
    trace = traced["trace"]
    ops = traced["ops"]
    window_ns = traced["window_s"] * 1e9
    values: dict[str, float] = {}
    share: dict[str, float] = {}
    lines = ["  layer                 status   self us/op   share  calls/op"]
    for i, layer in enumerate(LAYER_NAMES):
        # An absent layer has no wrapped function, so its totals are 0.
        present = layer in trace["present"]
        self_ns = trace["window_self_ns"][i]
        calls = trace["window_calls"][i]
        share[layer] = self_ns / window_ns
        values[f"{layer}.share"] = share[layer]
        values[f"{layer}.calls_per_op"] = calls / ops
        lines.append(f"  {layer:<21} {'present' if present else 'ABSENT':<8}"
                     f" {self_ns / ops / 1e3:>10.2f} {share[layer]:>7.2%}"
                     f" {calls / ops:>9.2f}")
    values["other.share"] = 1.0 - sum(share.values())
    lines.append(f"  {'other':<21} {'':<8} {'':>10} "
                 f"{values['other.share']:>7.2%}")

    setup_ns = sum(end - start for start, end in traced["setup_ns"])
    values["core.system.setup_share"] = (
        trace["setup_self_ns"][LAYER_NAMES.index("core.system")] / setup_ns)
    lines.append("  set-up self-time shares: " + ", ".join(
        f"{name} {ns / setup_ns:.1%}"
        for name, ns in sorted(zip(LAYER_NAMES, trace["setup_self_ns"]),
                               key=lambda item: -item[1]) if ns > 0))

    counts = trace["counts"]
    values["crypto.cipher.blocks_per_op"] = counts.get("cipher.blocks", 0) / ops
    values["hw.tlb.hit_ratio"] = _ratio(counts.get("tlb.hits", 0),
                                        counts.get("tlb.lookups", 0))
    values["cs.emcall.attempts_per_call"] = _ratio(
        counts.get("emcall.attempts", 0), counts.get("emcall.calls", 0))
    values["hw.mailbox.polls_per_response"] = _ratio(
        counts.get("mailbox.polls", 0), counts.get("mailbox.responses", 0))
    values["ems.runtime.empty_pump_share"] = _ratio(
        counts.get("runtime.empty_pumps", 0), counts.get("runtime.pumps", 0))
    values["ems.memory_pool.frames_zeroed_per_op"] = (
        counts.get("memory.frames_zeroed", 0) / ops)
    values["tracing_overhead"] = traced["window_s"] / untraced["window_s"]
    lines.append("  counts: " + ", ".join(
        f"{name}={values[name]:.4g}" for name in (
            "crypto.cipher.blocks_per_op", "hw.tlb.hit_ratio",
            "cs.emcall.attempts_per_call", "hw.mailbox.polls_per_response",
            "ems.runtime.empty_pump_share",
            "ems.memory_pool.frames_zeroed_per_op", "tracing_overhead")))
    for target in trace["unresolved"]:
        lines.append(f"  unresolved   {target}")
    for text, held in predictions(traced["workload"], share):
        lines.append(f"  prediction   {'HELD' if held else 'NOT HELD'}: {text}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in PER_LAYER}
    return metrics, lines
