"""Finding renderers: human report, JSON/SARIF artifacts, GitHub
annotations."""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding, Severity

_ICON = {Severity.ERROR: "E", Severity.WARNING: "W", Severity.INFO: "I"}


def render_human(result: LintResult) -> str:
    """The terminal report: findings grouped by file, then a summary."""
    lines: list[str] = []
    current = None
    for finding in result.findings:
        if finding.path != current:
            if current is not None:
                lines.append("")
            lines.append(finding.path)
            current = finding.path
        lines.append(f"  {finding.line:>4}  {_ICON[finding.severity]} "
                     f"{finding.rule}  {finding.message}")
        if finding.fix_hint:
            lines.append(f"        fix: {finding.fix_hint}")
    if result.findings:
        lines.append("")
    counts = result.counts()
    lines.append(
        f"teelint: {result.modules_scanned} modules scanned, "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{len(result.baselined)} baselined, "
        f"{len(result.suppressed)} suppressed")
    for entry in result.stale_baseline:
        lines.append(f"stale baseline entry: {entry.rule} {entry.path} "
                     f"({entry.key}) — no longer fires; drop it")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-readable artifact uploaded by CI."""
    payload = {
        "version": 3,
        "modules_scanned": result.modules_scanned,
        "counts": result.counts(),
        "findings": [f.to_dict() for f in result.findings],
        "baselined": [f.to_dict() for f in result.baselined],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "stale_baseline": [e.to_dict() for e in result.stale_baseline],
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2)


def _escape_property(value: str) -> str:
    """GitHub workflow-command escaping for property values (file=,
    title=): the message rules plus ``:`` and ``,``, which would
    otherwise terminate the property list or the command itself."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A").replace(":", "%3A")
            .replace(",", "%2C"))


def _escape_message(value: str) -> str:
    """GitHub workflow-command escaping for the message payload."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def _workflow_command(finding: Finding) -> str:
    level = {"error": "error", "warning": "warning",
             "info": "notice"}[finding.severity.value]
    message = finding.message
    if finding.fix_hint:
        message = f"{message} — fix: {finding.fix_hint}"
    return (f"::{level} file={_escape_property(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={_escape_property(f'teelint {finding.rule}')}::"
            f"{_escape_message(message)}")


def render_github(result: LintResult) -> str:
    """GitHub Actions annotations (one workflow command per finding)."""
    lines = [_workflow_command(f) for f in result.findings]
    counts = result.counts()
    lines.append(
        f"teelint: {counts['error']} error(s), "
        f"{counts['warning']} warning(s) across "
        f"{result.modules_scanned} modules")
    return "\n".join(lines)


#: SARIF 2.1.0 — the format GitHub code scanning ingests.
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"

_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning",
                Severity.INFO: "note"}


def _sarif_result(finding: Finding, rule_index: dict[str, int],
                  base_path: str) -> dict:
    message = finding.message
    if finding.fix_hint:
        message = f"{message} — fix: {finding.fix_hint}"
    uri = (f"{base_path}/{finding.path}" if base_path
           else finding.path)
    region = {
        "startLine": max(1, finding.line),
        "startColumn": finding.col + 1,
    }
    if finding.end_line >= finding.line > 0:
        # SARIF columns are 1-based and endColumn is exclusive, which
        # matches ``ast`` ``end_col_offset`` + 1 exactly.
        region["endLine"] = finding.end_line
        region["endColumn"] = finding.end_col + 1
    return {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": _SARIF_LEVEL[finding.severity],
        "message": {"text": message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": uri},
                "region": region,
            },
        }],
        # The same line-independent identity the baseline uses, so
        # code scanning tracks a finding across unrelated edits.
        "partialFingerprints": {
            "teelintFingerprint/v1": finding.fingerprint,
        },
    }


def render_sarif(result: LintResult, *, base_path: str = "") -> str:
    """SARIF 2.1.0 for GitHub code scanning.

    Live findings only — baselined/suppressed findings are accepted
    exceptions and stay out of the security tab. ``base_path`` prefixes
    every artifact URI (finding paths are scan-root-relative, e.g.
    ``repro/...``; code scanning wants repo-root-relative ``src/...``).
    """
    from repro.analysis.rules import rule_catalogue

    catalogue = rule_catalogue()
    used = sorted({f.rule for f in result.findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(used)}
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": catalogue.get(rule_id, "parse failure"),
        },
    } for rule_id in used]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "teelint",
                    "rules": rules,
                },
            },
            "results": [_sarif_result(f, rule_index,
                                      base_path.rstrip("/"))
                        for f in result.findings],
        }],
    }
    return json.dumps(payload, indent=2)
