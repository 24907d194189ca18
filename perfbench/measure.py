"""Measure one workload in this process and print the raw result as JSON.

``run.py`` starts this script once per measurement, with ``src`` on the
path and a fixed hash seed, and reads the last line of its output. With
``--traced 1`` the tracer is installed before any platform is built, its
per-layer totals are added to the result, and every span is written to
``--spans``.

numpy is imported on the traced path only: the program does not load it
on the default engine, so an untraced run's ``peak_rss_mb`` stays the
program's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys


def _layer_summary(tracer, m) -> dict:
    """Per-layer self time and calls, for the window and for set-up."""
    import numpy as np

    from stats import layer_totals

    fid, parent, op, start, end = tracer.columns()
    n_layers = len(tracer.layer_names)
    window_ns, window_calls = layer_totals(
        fid, parent, start, end, tracer.function_layer, n_layers, op >= 0)
    in_setup = np.zeros(len(fid), dtype=bool)
    for setup_start, setup_end in m.setup_ns:
        in_setup |= (start >= setup_start) & (end <= setup_end)
    setup_ns, _ = layer_totals(
        fid, parent, start, end, tracer.function_layer, n_layers, in_setup)
    return {
        "present": sorted(tracer.present),
        "unresolved": tracer.unresolved,
        "window_self_ns": window_ns.tolist(),
        "window_calls": window_calls.tolist(),
        "setup_self_ns": setup_ns.tolist(),
        "counts": dict(tracer.counts),
        "spans": int(len(fid)),
    }


def main(argv: list[str]) -> int:
    """Run one workload; the last output line is the raw result."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if tracer is None:
        m = workload(args.seed, args.ops, lambda op: None)
        result = dataclasses.asdict(m)
    else:
        m = workload(args.seed, args.ops, tracer.set_op)
        result = dataclasses.asdict(m)
        result["trace"] = _layer_summary(tracer, m)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
