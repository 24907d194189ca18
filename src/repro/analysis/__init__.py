"""teelint: AST-based architectural invariant checking for the model.

The decoupled-TEE architecture rests on invariants no unit test can see
whole-repo: the CS and EMS subsystems must never import each other
(TEE001), all randomness and time must flow from the seeded streams
(TEE002), every cycle cost must reference a named calibration constant
(TEE003), key material must never reach observable sinks (TEE004), and
fault-point / metric names must resolve against their registries
(TEE005). ``teelint`` machine-checks them over the stdlib ``ast`` —
no third-party dependencies — and runs as ``python -m repro lint``.

Layout:

* :mod:`repro.analysis.findings` — the findings model (severity,
  fix hints, stable fingerprints).
* :mod:`repro.analysis.project` — source discovery, module naming,
  and the repo-wide import graph.
* :mod:`repro.analysis.rules` — the pluggable rule framework and the
  TEE001–TEE008 and TEE012 rules.
* :mod:`repro.analysis.baseline` — checked-in baseline entries and
  inline ``# teelint: disable=...`` suppressions.
* :mod:`repro.analysis.engine` — orchestration: scan, run rules,
  apply suppressions and the baseline.
* :mod:`repro.analysis.render` — human, JSON, GitHub-annotation, and
  SARIF output.
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` surface.
"""

from repro.analysis.engine import LintResult, run_lint
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project

__all__ = ["Finding", "LintResult", "Project", "Severity", "run_lint"]
