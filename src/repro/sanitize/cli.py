"""``python -m repro sanitize`` — run teesan over the driver scenarios.

Modes::

    python -m repro sanitize --check          # sanitized scenarios, clean
    python -m repro sanitize --seed-violation secret   # must exit 1
    python -m repro sanitize --seed-violation own      # must exit 1
    python -m repro sanitize --report teesan.json      # CI artifact

``--check`` (the default) runs the single-EMS lifecycle scenario and the
sharded transfer scenario, then exits non-zero if any sanitizer fired.
The ``--seed-violation`` modes deliberately break one invariant each and
*expect* the matching diagnostic — CI runs both so a silently-disabled
sanitizer fails the job, mirroring teelint's seeded-violation smoke.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.sanitize.manager import (
    SANITIZERS,
    SanitizerManager,
    parse_sanitizer_list,
)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the sanitize options (shared with ``python -m repro``)."""
    parser.add_argument("--check", action="store_true",
                        help="run the sanitized scenarios and fail on any "
                             "violation (the default action)")
    parser.add_argument("--sanitize", default="secret,own",
                        metavar="LIST",
                        help="comma-separated sanitizers to enable "
                             f"(from {', '.join(SANITIZERS)}; default all)")
    parser.add_argument("--seed-violation", default=None,
                        choices=SANITIZERS, metavar="NAME",
                        help="deliberately break one invariant and expect "
                             "the matching diagnostic (self-check; exits 1)")
    parser.add_argument("--seed", type=int, default=0x1EE7)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON run report to PATH")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable run report")


def _seed_secret_violation(seed: int) -> SanitizerManager:
    """Leak a freshly-minted sealing key onto the raw DRAM bus."""
    from repro.core.config import SystemConfig
    from repro.core.system import HyperTEESystem

    system = HyperTEESystem(SystemConfig(seed=seed))
    manager = system.enable_sanitizers(("secret",)).san
    leaked = system.keys.sealing_key(b"seeded-violation")
    # The deliberate bug: plaintext key material written bus-raw into
    # CS-visible memory (a cold-boot attacker reads exactly this).
    frame = system.os.alloc_frames(1, requestor="seeded-violation")[0]
    system.memory.write_raw(frame * 4096, leaked)
    return manager


def _seed_own_violation(seed: int) -> SanitizerManager:
    """Record the same physical frame in two shards' ownership tables."""
    from repro.core.config import SystemConfig
    from repro.core.system import HyperTEESystem
    from repro.ems.ownership import Owner

    system = HyperTEESystem(SystemConfig(seed=seed, ems_shards=2))
    manager = system.enable_sanitizers(("own",)).san
    shards = system.shard_pool.shards
    # The deliberate bug: shard 1 claims a frame shard 0 already
    # granted — the race the per-shard tables cannot see.
    frame = shards[0].pool.take(1, owner="seeded")[0]
    shards[0].ownership.claim(frame, Owner.enclave(7))
    shards[1].ownership.claim(frame, Owner.enclave(8))
    return manager


def run(args: argparse.Namespace) -> int:
    """Entry point behind ``python -m repro sanitize``."""
    try:
        sanitizers = parse_sanitizer_list(args.sanitize)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.seed_violation is not None:
        if args.seed_violation == "secret":
            manager = _seed_secret_violation(args.seed)
        else:
            manager = _seed_own_violation(args.seed)
        print(manager.report_text())
        if manager.ok():
            print(f"error: the seeded {args.seed_violation} violation "
                  "went undetected", file=sys.stderr)
        return 1

    # -- the clean check ---------------------------------------------------------
    from repro.sanitize.scenario import (
        run_sanitized_scenario,
        run_sanitized_shard_scenario,
    )

    managers = []
    if sanitizers:
        managers.append(("lifecycle", run_sanitized_scenario(
            seed=args.seed, sanitizers=sanitizers)))
        managers.append(("shard-transfer", run_sanitized_shard_scenario(
            seed=args.seed, sanitizers=sanitizers)))
    ok = all(manager.ok() for _, manager in managers)

    document = {
        "schema": "hypertee.teesan.run/1",
        "seed": args.seed,
        "sanitizers": list(sanitizers),
        "ok": ok,
        "scenarios": {label: manager.to_dict()
                      for label, manager in managers},
    }
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.report}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(document, indent=1))
    else:
        for label, manager in managers:
            stats = manager.stats
            state = "clean" if manager.ok() else "VIOLATIONS"
            print(f"teesan {label}: {state} — {stats.events} events, "
                  f"{stats.secrets_registered} secrets tracked, "
                  f"{stats.wire_packets_scanned} wire packets, "
                  f"{stats.frames_scanned} frames scanned")
            if not manager.ok():
                print(manager.report_text())
        if args.report:
            print(f"wrote {args.report}")
    return 0 if ok else 1
