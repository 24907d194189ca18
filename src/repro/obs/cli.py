"""The ``python -m repro`` command line.

Subcommands::

    python -m repro                     # regenerate every paper artifact
    python -m repro regen table6 fig8a  # a selection (bare names also work)
    python -m repro metrics             # p50/p90/p99 per primitive + more
    python -m repro metrics --format prom   # Prometheus text exposition
    python -m repro metrics --format json   # full registry JSON dump
    python -m repro trace --out /tmp/t.json # Chrome trace_event JSON
    python -m repro slo                     # SLO report: quantiles + budgets
    python -m repro slo --json              # the same, machine-readable
    python -m repro flightrec dump          # flight-recorder black box
    python -m repro serve --shards 4        # seeded load drive + SLO report
    python -m repro serve --chaos queuefull # starvation self-check (exits 1)
    python -m repro lint                    # teelint architectural checks
    python -m repro lint --format=github    # CI annotation output
    python -m repro sanitize --check        # teesan runtime sanitizers
    python -m repro sanitize --seed-violation secret  # self-check (exit 1)

``metrics`` and ``trace`` boot an observability-enabled platform and run
a quickstart-style enclave scenario that exercises the lifecycle, memory,
shared-memory, and attestation primitives, then report from the registry
or the tracer. Open the trace file in Perfetto (https://ui.perfetto.dev).
``lint`` runs the :mod:`repro.analysis` rule catalogue (TEE001-TEE008
and TEE012) over the package sources. ``sanitize`` runs the
:mod:`repro.sanitize` runtime sanitizers (teesan) over sanitized
scenarios — the dynamic twin of the static rules.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.regenerate import ARTIFACTS, regenerate
from repro.eval.report import render_table


def run_instrumented_scenario(seed: int = 0x1EE7):
    """One quickstart-style run on an observability-enabled, traced platform.

    Returns the :class:`~repro.core.api.HyperTEE` facade; its system's
    ``obs`` member holds the populated registry and tracer.
    """
    from repro.common.types import Permission, Primitive
    from repro.core.api import HyperTEE
    from repro.core.config import SystemConfig
    from repro.core.enclave import EnclaveConfig

    tee = HyperTEE(SystemConfig(seed=seed))
    tee.system.enable_observability()
    tee.system.obs.tracer.enabled = True

    enclave = tee.launch_enclave(b"obs scenario enclave code " * 32,
                                 EnclaveConfig(name="obs-scenario",
                                               heap_pages_max=64))
    with enclave.running():
        vaddr = enclave.ealloc(4)
        enclave.write(vaddr, b"observed secret")
        assert enclave.read(vaddr, 15) == b"observed secret"
        # Demand fault -> EALLOC through the page-fault path.
        enclave.write(vaddr + 5 * 4096, b"demand page")
        region = enclave.create_shared_region(2, Permission.RW)
        share_va = enclave.attach(region)
        enclave.write(share_va, b"shared bytes")
        enclave.detach(region)
        enclave.destroy_region(region)
        enclave.attest(report_data=b"obs")
        enclave.efree(vaddr)
    # OS-driven memory pressure: the EWB surrender path.
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    enclave.destroy()
    return tee


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import render_json, render_prometheus

    tee = run_instrumented_scenario(seed=args.seed)
    obs = tee.system.obs
    if not obs.primitive_latency_table():
        print("error: the instrumented run recorded no primitive samples; "
              "observability is wired wrong (is enable_observability() "
              "attached before the scenario runs?)", file=sys.stderr)
        return 1
    if args.format == "prom":
        print(render_prometheus(obs.metrics), end="")
        return 0
    if args.format == "json":
        print(render_json(obs.metrics))
        return 0
    rows = [[r["primitive"], r["count"], f"{r['p50']:.0f}",
             f"{r['p90']:.0f}", f"{r['p99']:.0f}", f"{r['mean']:.0f}"]
            for r in obs.primitive_latency_table()]
    print(render_table(
        "Primitive latency (CS cycles; exact up to 512 samples)",
        ["primitive", "count", "p50", "p90", "p99", "mean"], rows))
    print()
    print(render_table(
        "Subsystem counters (federated from the live *Stats)",
        ["subsystem", "counter", "value"],
        [[name, key, value]
         for name, stats in obs.metrics.federated_snapshot().items()
         for key, value in _flatten(stats)]))
    return 0


def _flatten(stats: dict, prefix: str = "") -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for key, value in stats.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            out.extend(_flatten(value, prefix=f"{label}."))
        else:
            out.append((label, value))
    return out


def _cmd_trace(args: argparse.Namespace) -> int:
    tee = run_instrumented_scenario(seed=args.seed)
    tracer = tee.system.obs.tracer
    try:
        tracer.write_chrome_json(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 1
    roots = [s for s in tracer.spans() if s.parent_id is None]
    print(f"wrote {len(tracer)} spans ({len(roots)} primitives) "
          f"to {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_regen(args: argparse.Namespace) -> int:
    print(regenerate(args.artifacts or None))
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json as _json

    tee = run_instrumented_scenario(seed=args.seed)
    rows = tee.system.obs.slo.report()
    if not rows:
        print("error: the instrumented run recorded no SLO samples",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(rows, indent=1))
        return 0

    def fmt(value, spec=".0f"):
        return "-" if value is None else format(value, spec)

    table = [[r["operation"], r["count"],
              fmt(r["p50"]), fmt(r["p95"]), fmt(r["p99"]), fmt(r["p999"]),
              "-" if r["threshold"] is None
              else f"{r['percentile']}<={r['threshold']:.0f}",
              fmt(r["burn_rate"], ".2f"),
              {True: "yes", False: "NO", None: "-"}[r["compliant"]]]
             for r in rows]
    print(render_table(
        "SLO report (latency quantiles, targets, error-budget burn)",
        ["operation", "count", "p50", "p95", "p99", "p999", "target",
         "burn", "ok"], table))
    return 0


def _cmd_flightrec(args: argparse.Namespace) -> int:
    tee = run_instrumented_scenario(seed=args.seed)
    recorder = tee.system.obs.flightrec
    if args.action == "dump":
        try:
            dump = recorder.write(args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        print(f"wrote {len(dump['events'])} events "
              f"({dump['dropped']} dropped, schema {dump['schema']}) "
              f"to {args.out}")
        return 0
    dump = recorder.snapshot()
    print(f"flight recorder: {len(dump['events'])} events held, "
          f"{dump['recorded_total']} recorded, {dump['dropped']} dropped, "
          f"{dump['trips']} trips")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.eval.serve import ServeConfig, render_report, run_serve

    from repro.sanitize.manager import parse_sanitizer_list

    try:
        cfg = ServeConfig(shards=args.shards, workers=args.workers,
                          ops=args.ops, seed=args.seed,
                          transfer_every=args.transfer_every,
                          chaos=args.chaos,
                          sanitize=parse_sanitizer_list(args.sanitize))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_serve(cfg)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                _json.dump(report, handle, indent=1, default=str)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    if args.json:
        print(_json.dumps(report, indent=1, default=str))
    else:
        print(render_report(report))
        if args.out:
            print(f"\nwrote {args.out}")
    if report["starvation"]["starved"] and args.fail_on_starvation:
        print("error: serve run starved (degraded with zero completed "
              "ops)", file=sys.stderr)
        return 1
    sanitize = report.get("sanitize")
    if sanitize is not None and not sanitize["ok"]:
        print(f"error: teesan reported {len(sanitize['violations'])} "
              "violation(s) during the serve run", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run

    return run(args)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.sanitize.cli import run

    return run(args)


#: Every subcommand name, in help order. ``main()`` uses this to decide
#: whether the first token selects a subcommand or is a bare artifact
#: name for ``regen`` — keep it in lockstep with :func:`build_parser`
#: (pinned by the CLI smoke test).
COMMANDS = ("regen", "metrics", "trace", "slo", "flightrec", "serve",
            "lint", "sanitize")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (one entry per COMMANDS)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HyperTEE reproduction: evaluation artifacts, "
                    "observability surfaces, and architectural lint.")
    sub = parser.add_subparsers(dest="command")

    regen = sub.add_parser(
        "regen", help="regenerate paper tables/figures as text")
    regen.add_argument("artifacts", nargs="*", metavar="artifact",
                       help=f"names from {list(ARTIFACTS)} (all by default)")
    regen.set_defaults(func=_cmd_regen)

    metrics = sub.add_parser(
        "metrics", help="run an instrumented scenario, report the registry")
    metrics.add_argument("--format", choices=("table", "prom", "json"),
                         default="table")
    metrics.add_argument("--seed", type=int, default=0x1EE7)
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace", help="run an instrumented scenario, emit Chrome trace JSON")
    trace.add_argument("--out", default="hypertee-trace.json",
                       help="output path for the trace_event JSON")
    trace.add_argument("--seed", type=int, default=0x1EE7)
    trace.set_defaults(func=_cmd_trace)

    slo = sub.add_parser(
        "slo", help="run an instrumented scenario, report SLO quantiles "
                    "and error-budget burn")
    slo.add_argument("--json", action="store_true",
                     help="machine-readable report rows")
    slo.add_argument("--seed", type=int, default=0x1EE7)
    slo.set_defaults(func=_cmd_slo)

    flightrec = sub.add_parser(
        "flightrec", help="flight-recorder black box: status or JSON dump")
    flightrec.add_argument("action", nargs="?", choices=("status", "dump"),
                           default="status")
    flightrec.add_argument("--out", default="hypertee-flightrec.json",
                           help="output path for the dump document")
    flightrec.add_argument("--seed", type=int, default=0x1EE7)
    flightrec.set_defaults(func=_cmd_flightrec)

    serve = sub.add_parser(
        "serve", help="seeded multi-enclave load drive across EMS shards "
                      "with an SLO + per-shard attribution report")
    serve.add_argument("--shards", type=int, default=4,
                       help="EMS shards backing the platform (default 4)")
    serve.add_argument("--workers", type=int, default=3,
                       help="concurrent worker HostApps (default 3)")
    serve.add_argument("--ops", type=int, default=400,
                       help="total serve steps (default 400)")
    serve.add_argument("--seed", type=int, default=0x5E12)
    serve.add_argument("--transfer-every", type=int, default=3,
                       help="migrate every Nth enclave generation between "
                            "shards (default 3)")
    serve.add_argument("--chaos", choices=("none", "queuefull"),
                       default="none",
                       help="adversarial weather: queuefull pins the "
                            "request queue full for the whole run")
    serve.add_argument("--sanitize", default="", metavar="LIST",
                       help="attach teesan runtime sanitizers for the run "
                            "(comma list from secret,own; default off)")
    serve.add_argument("--json", action="store_true",
                       help="print the machine-readable report document")
    serve.add_argument("--out", default=None, metavar="PATH",
                       help="also write the report JSON to PATH")
    serve.add_argument("--no-fail-on-starvation", dest="fail_on_starvation",
                       action="store_false",
                       help="exit 0 even when the run starved")
    serve.set_defaults(func=_cmd_serve)

    from repro.analysis.cli import configure_parser as configure_lint

    lint = sub.add_parser(
        "lint", help="teelint: AST checks for the CS/EMS decoupling "
                     "invariants (TEE001-TEE008, TEE012)")
    configure_lint(lint)
    lint.set_defaults(func=_cmd_lint)

    from repro.sanitize.cli import configure_parser as configure_sanitize

    sanitize = sub.add_parser(
        "sanitize", help="teesan: runtime sanitizers that dynamically "
                         "verify the lint invariants (secret shadow "
                         "memory, ownership races)")
    configure_sanitize(sanitize)
    sanitize.set_defaults(func=_cmd_sanitize)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Backward compatibility: bare artifact names still regenerate, so
    # ``python -m repro table6 fig8a`` keeps working. Anything in
    # COMMANDS (or a help flag) dispatches as a subcommand instead; any
    # other word is a typo, not an artifact list for ``regen``.
    if argv and argv[0] not in (*COMMANDS, *ARTIFACTS) \
            and not argv[0].startswith("-"):
        parser.error(f"unknown command or artifact {argv[0]!r}; choose a "
                     f"command from {list(COMMANDS)} or an artifact from "
                     f"{list(ARTIFACTS)}")
    if not argv or argv[0] not in (*COMMANDS, "-h", "--help"):
        argv = ["regen", *argv]
    args = parser.parse_args(argv)
    return args.func(args)
