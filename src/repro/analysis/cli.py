"""The ``python -m repro lint`` surface.

Exit status: 0 when clean (or everything is baselined/suppressed),
1 when blocking findings remain, 2 on usage errors: a missing scan
path, an unknown rule id, an unreadable or malformed baseline, a
``--baseline`` file that does not exist (unless ``--write-baseline``
is creating it), or an artifact that cannot be written.
``--write-baseline`` accepts the current findings as documented
exceptions (edit the reasons afterwards — "baselined pre-existing
finding" is a placeholder, not documentation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import BASELINE_FILENAME, Baseline, BaselineError
from repro.analysis.engine import run_lint
from repro.analysis.render import (
    render_github,
    render_human,
    render_json,
    render_sarif,
)


def default_scan_path() -> Path:
    """The installed ``repro`` package directory (works from any cwd)."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_baseline_path() -> Path:
    """``teelint.baseline.json`` in cwd if present, else at the repo
    root inferred from the package location (src/repro/.. -> repo)."""
    cwd_candidate = Path.cwd() / BASELINE_FILENAME
    if cwd_candidate.exists():
        return cwd_candidate
    package_dir = default_scan_path()
    repo_candidate = package_dir.parent.parent / BASELINE_FILENAME
    if repo_candidate.exists():
        return repo_candidate
    return cwd_candidate


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments (shared with the ``repro`` CLI)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to scan (default: the repro package)")
    parser.add_argument(
        "--format", choices=("human", "json", "github", "sarif"),
        default="human",
        help="report format (github = Actions annotations, sarif = "
             "code-scanning upload)")
    parser.add_argument(
        "--rules", default="", metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file (default: {BASELINE_FILENAME} at the "
             f"repo root)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file entirely")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept current findings into the baseline file and exit 0")
    parser.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="additionally write the JSON findings artifact here "
             "(composes with --write-baseline)")
    parser.add_argument(
        "--sarif-out", default=None, metavar="PATH",
        help="additionally write the SARIF 2.1.0 artifact here (for "
             "GitHub code scanning; composes with any --format)")


def sarif_base_path(paths: list[Path]) -> str:
    """Repo-relative URI prefix for the SARIF artifact.

    Finding paths are scan-root-relative (``repro/...``); code scanning
    resolves URIs against the repo root (``src/repro/...``). When every
    scan path shares one parent directory below the cwd, that parent is
    the prefix; otherwise paths are emitted as-is.
    """
    try:
        parents = {(p if p.is_dir() else p.parent).resolve().parent
                   for p in paths}
    except OSError:
        return ""
    if len(parents) != 1:
        return ""
    parent = parents.pop()
    try:
        rel = parent.relative_to(Path.cwd())
    except ValueError:
        return ""
    return "" if rel == Path(".") else rel.as_posix()


def _write_artifact(path: Path | str, text: str) -> int:
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}",
              file=sys.stderr)
        return 2
    return 0


def _load_baseline(args: argparse.Namespace,
                   path: Path) -> Baseline | None:
    """The baseline this run applies, or ``None`` after an error."""
    if args.no_baseline:
        return Baseline()
    if args.baseline and not args.write_baseline and not path.exists():
        print(f"error: no such baseline: {path}", file=sys.stderr)
        return None
    try:
        return Baseline.load(path)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def run(args: argparse.Namespace) -> int:
    """Execute one lint run from parsed arguments."""
    paths = [Path(p) for p in args.paths] or [default_scan_path()]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    only = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path())
    baseline = _load_baseline(args, baseline_path)
    if baseline is None:
        return 2

    try:
        result = run_lint(paths, baseline=baseline, only=only)
    except ValueError as exc:  # unknown rule ids
        print(f"error: {exc}", file=sys.stderr)
        return 2

    base = sarif_base_path(paths)
    artifacts = []
    if args.json_out:
        artifacts.append((args.json_out, render_json(result)))
    if args.sarif_out:
        artifacts.append((args.sarif_out,
                          render_sarif(result, base_path=base)))

    if args.write_baseline:
        # Matched entries keep their reasons; only stale entries go.
        kept = [entry for entry in baseline.entries
                if entry not in result.stale_baseline]
        new_baseline = Baseline(
            kept + Baseline.from_findings(result.findings).entries)
        status = _write_artifact(baseline_path, new_baseline.render())
        if status:
            return status
        print(f"wrote {len(new_baseline)} baseline entr"
              f"{'y' if len(new_baseline) == 1 else 'ies'} to "
              f"{baseline_path}")
        print("edit each entry's reason: the baseline documents "
              "exceptions, it does not grant them")
    else:
        renderer = {"human": render_human, "json": render_json,
                    "github": render_github,
                    "sarif": lambda r: render_sarif(r, base_path=base)
                    }[args.format]
        print(renderer(result))
    for path, text in artifacts:
        status = _write_artifact(path, text)
        if status:
            return status
    return 0 if args.write_baseline or result.ok else 1
