"""Table V: area overhead of the EMS for different SoC configurations.

We obviously cannot run the Synopsys 7 nm flow; instead this is an
analytical area model with coefficients fitted once against Table V's
five published points, then used structurally:

* **CS area** — the published per-core area grows slightly with core
  count (uncore amortization): ``cs_area(n) = 9.6 n - 3.4`` mm²
  reproduces all five published values within 1%.
* **EMS core logic** — scales with issue-width² and ROB depth (the
  classic OoO area scaling): ``0.07 * width_factor`` mm².
* **SRAM** — 0.25 mm² per MB at 7 nm (caches + TLBs).
* **Crypto engine** — 0.20 mm² (stated in the paper).
* **iHub/mailbox share** — 0.015 mm² per EMS core.

Table V's EMS configuration per CS size comes from the Fig. 6 adequacy
study: 1 weak core up to 8 CS cores, 2 weak for 16, 2 medium for 32/64.
"""

from __future__ import annotations

import dataclasses

from repro.hw.core import CoreConfig, ems_config

#: mm^2 per MB of SRAM at the modelled 7 nm node.
SRAM_MM2_PER_MB = 0.25

#: Crypto engine area (paper Section VII-E: 0.20 mm^2).
CRYPTO_ENGINE_MM2 = 0.20

#: iHub + mailbox share per EMS core.
FABRIC_MM2_PER_CORE = 0.012

#: Logic-area coefficient for a 1-wide in-order scalar pipeline.
LOGIC_BASE_MM2 = 0.07

#: Table V row: CS core count -> (EMS core count, EMS config name).
TABLE5_EMS_CHOICE = {
    4: (1, "weak"),
    8: (1, "weak"),
    16: (2, "weak"),
    32: (2, "medium"),
    64: (2, "medium"),
}

#: Published CS areas (mm^2) for the Table V comparison.
TABLE5_CS_AREA = {4: 35.0, 8: 74.0, 16: 151.0, 32: 304.0, 64: 612.0}

#: Published overheads (%) — the numbers the model must reproduce.
TABLE5_OVERHEAD_PCT = {4: 0.97, 8: 0.46, 16: 0.34, 32: 0.49, 64: 0.25}


def cs_area_mm2(cs_cores: int) -> float:
    """CS subsystem area; fitted to the five published points."""
    return 9.6 * cs_cores - 3.4


def core_logic_mm2(config: CoreConfig) -> float:
    """Pipeline + register-file + predictor logic area of one core."""
    width_factor = config.decode_width ** 2
    rob_factor = 1.0 + config.rob_entries / 128.0
    return LOGIC_BASE_MM2 * width_factor * rob_factor


def core_sram_mm2(config: CoreConfig) -> float:
    """Cache SRAM of one core (L1I + L1D + L2)."""
    kb = config.l1i_kb + config.l1d_kb + config.l2_kb
    return (kb / 1024.0) * SRAM_MM2_PER_MB


def ems_core_mm2(config: CoreConfig) -> float:
    """Total area of one EMS core (logic + SRAM)."""
    return core_logic_mm2(config) + core_sram_mm2(config)


def ems_area_mm2(ems_cores: int, ems_name: str) -> float:
    """Total HyperTEE IP area: cores + crypto engine + fabric share."""
    config = ems_config(ems_name)
    return (ems_cores * ems_core_mm2(config)
            + CRYPTO_ENGINE_MM2
            + ems_cores * FABRIC_MM2_PER_CORE)


@dataclasses.dataclass(frozen=True)
class AreaRow:
    """One computed Table V column."""

    cs_cores: int
    cs_area: float
    ems_cores: int
    ems_name: str
    ems_area: float

    @property
    def overhead_pct(self) -> float:
        return 100.0 * self.ems_area / (self.cs_area + self.ems_area)


def table5_rows() -> list[AreaRow]:
    """Recompute every Table V column through the structural model."""
    rows = []
    for cs_cores, (ems_cores, ems_name) in TABLE5_EMS_CHOICE.items():
        rows.append(AreaRow(
            cs_cores=cs_cores,
            cs_area=cs_area_mm2(cs_cores),
            ems_cores=ems_cores,
            ems_name=ems_name,
            ems_area=ems_area_mm2(ems_cores, ems_name)))
    return rows
