"""System configuration (paper Table III + Section VII-A scenarios).

:class:`SystemConfig` selects the CS/EMS core configurations and the
security-mechanism toggles the evaluation sweeps:

* ``ems_core`` — "weak" / "medium" / "strong" (Fig. 7);
* ``crypto`` — "engine" / "software" (Table IV);
* ``integrity`` — whether the memory encryption engine keeps per-line
  MACs (enclave memory is always encrypted);
* ``bitmap_checking`` — the *Bitmap* scenario knob (Fig. 10).

The *M_encrypt* scenario of Fig. 8b/9 is a timing scenario, modelled by
:attr:`repro.eval.scenarios.Scenario.memory_encryption` in the workload
runner rather than by a platform knob.

Functional protections stay on regardless of the timing knobs unless a
knob is explicitly about functionality (``bitmap_checking`` off removes
the PTW check entirely — used by ablation benches and baselines).
"""

from __future__ import annotations

import dataclasses

from repro.common.constants import POOL_INITIAL_PAGES
from repro.errors import ConfigurationError
from repro.hw.core import EMS_CONFIGS


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Parameters of one modelled SoC instance."""

    cs_memory_mb: int = 64
    ems_memory_mb: int = 8
    cs_cores: int = 1
    ems_core: str = "medium"
    ems_cores: int = 1
    crypto: str = "engine"
    integrity: bool = True
    bitmap_checking: bool = True
    pool_initial_pages: int = POOL_INITIAL_PAGES
    seed: int = 0x1EE7
    ems_shards: int = 1

    def __post_init__(self) -> None:
        if self.cs_memory_mb < 4 or self.ems_memory_mb < 1:
            raise ConfigurationError("memory sizes too small to boot")
        if self.cs_cores < 1 or self.ems_cores < 1:
            raise ConfigurationError("need at least one core per subsystem")
        if self.ems_core not in EMS_CONFIGS:
            raise ConfigurationError(
                f"unknown EMS core {self.ems_core!r}; "
                f"expected one of {sorted(EMS_CONFIGS)}")
        if self.crypto not in ("engine", "software"):
            raise ConfigurationError("crypto must be 'engine' or 'software'")
        if self.ems_shards < 1:
            raise ConfigurationError(
                f"ems_shards must be >= 1, got {self.ems_shards}")
