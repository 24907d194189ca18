"""``python -m repro`` — evaluation artifacts plus observability surfaces.

The argparse CLI lives in :mod:`repro.obs.cli`: ``regen`` (the default;
bare artifact names keep working), ``metrics``, ``trace``, ``slo``,
``flightrec``, ``serve``, ``lint`` and ``sanitize``.
"""

from __future__ import annotations

import sys

from repro.obs.cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
