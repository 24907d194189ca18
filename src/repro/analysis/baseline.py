"""Baseline entries and inline suppressions.

Two escape hatches, both loud:

* the **baseline file** (``teelint.baseline.json``, checked in) lists
  fingerprints of known findings with a mandatory ``reason`` — the
  documented exceptions. Matched findings don't fail the run; entries
  that no longer match anything are reported as stale so the file
  can't rot.
* an **inline suppression** comment on the offending line::

      import random  # teelint: disable=TEE002  -- seeded use only

  ``# teelint: disable`` without ids silences every rule on that line.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from repro.analysis.findings import Finding

#: Default baseline filename, looked up at the repo root.
BASELINE_FILENAME = "teelint.baseline.json"

_SUPPRESS_RE = re.compile(
    r"#\s*teelint:\s*disable(?:=(?P<rules>[A-Za-z0-9_,\s]+))?")


def line_suppresses(source_line: str, rule: str) -> bool:
    """Does the line's ``# teelint: disable`` comment cover ``rule``?"""
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return rule in {r.strip() for r in rules.split(",")}


class BaselineError(ValueError):
    """A baseline file that cannot be read or does not parse."""


@dataclasses.dataclass
class BaselineEntry:
    """One documented exception."""

    fingerprint: str
    rule: str
    path: str
    key: str
    reason: str

    def to_dict(self) -> dict:
        """The JSON form stored in the baseline file."""
        return dataclasses.asdict(self)


#: The fields every stored entry carries, no more and no fewer.
_ENTRY_FIELDS = frozenset(f.name for f in dataclasses.fields(BaselineEntry))


class Baseline:
    """The checked-in set of accepted findings."""

    def __init__(self, entries: list[BaselineEntry] | None = None) -> None:
        self.entries = entries or []
        self._by_fingerprint = {e.fingerprint: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, finding: Finding) -> bool:
        """Is this finding an accepted, documented exception?"""
        return finding.fingerprint in self._by_fingerprint

    def stale_entries(self, findings: list[Finding]) -> list[BaselineEntry]:
        """Entries whose finding no longer exists (candidates to drop)."""
        live = {f.fingerprint for f in findings}
        return [e for e in self.entries if e.fingerprint not in live]

    # -- persistence --------------------------------------------------------

    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        """Read the baseline file; a missing file is an empty baseline.

        Raises :class:`BaselineError` when the file cannot be read, is
        not JSON, or holds an entry without exactly the entry fields.
        """
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BaselineError(
                f"cannot read baseline {path}: {exc}") from exc
        entries = data.get("findings", []) if isinstance(data, dict) \
            else None
        if not isinstance(entries, list):
            raise BaselineError(
                f"baseline {path} must be an object with a findings list")
        for number, entry in enumerate(entries, 1):
            if not isinstance(entry, dict) or set(entry) != _ENTRY_FIELDS:
                raise BaselineError(
                    f"baseline {path}: entry {number} must have exactly "
                    f"the fields {', '.join(sorted(_ENTRY_FIELDS))}")
        return cls([BaselineEntry(**entry) for entry in entries])

    @classmethod
    def from_findings(cls, findings: list[Finding],
                      reason: str = "baselined pre-existing finding"
                      ) -> "Baseline":
        """Accept every current finding (the ``--write-baseline`` path)."""
        entries = [BaselineEntry(
            fingerprint=f.fingerprint, rule=f.rule, path=f.path,
            key=f.key, reason=reason) for f in findings]
        # One entry per fingerprint: same-key findings in one file share it.
        unique: dict[str, BaselineEntry] = {}
        for entry in entries:
            unique.setdefault(entry.fingerprint, entry)
        return cls(list(unique.values()))

    def render(self) -> str:
        """The checked-in JSON form (sorted, diff-friendly)."""
        payload = {
            "comment": ("teelint baseline: documented exceptions only. "
                        "Every entry needs a reason; stale entries are "
                        "reported by `python -m repro lint`."),
            "findings": sorted(
                (e.to_dict() for e in self.entries),
                key=lambda d: (d["path"], d["rule"], d["key"])),
        }
        return json.dumps(payload, indent=2)

    def save(self, path: Path | str) -> None:
        """Write :meth:`render` to ``path``."""
        Path(path).write_text(self.render() + "\n", encoding="utf-8")
