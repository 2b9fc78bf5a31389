"""Accelerator configuration: array size, storage, and access costs.

Costs are relative energies per word access, normalized to one register-file
access; absolute calibration is the caller's business. The defaults describe a
256-PE spatial array with a four level storage hierarchy: per-PE register
file, inter-PE network, global buffer, DRAM. Storage capacities are not part
of the model: DRAM traffic is always the ideal unique volume.

The ``EnergyTable`` and ``ArchConfig`` constructors check every field and store
costs as floats, so a configuration built in code and one parsed from JSON
agree and fail alike, with ``ArchError``. ``parse_arch`` checks only the
document's shape and maps keys to constructor arguments.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields


class ArchError(ValueError):
    """Invalid accelerator configuration or configuration document."""


def _cost(value, what: str) -> float:
    """A relative energy as a float, so that a cost given as an integer
    prices alike from code and from JSON; the bound rejects NaN and inf."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 < value <= sys.float_info.max):
        raise ArchError(f"{what} must be a finite number > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class EnergyTable:
    """Relative energy per word access at each level; the fields are LEVELS, from the PE out."""

    rf: float = 1.0
    noc: float = 2.0
    buf: float = 6.0
    dram: float = 200.0

    def __post_init__(self):
        costs = [_cost(getattr(self, level), f"energy cost for {level}") for level in LEVELS]
        for level, cost in zip(LEVELS, costs):
            object.__setattr__(self, level, cost)
        if costs != sorted(costs):
            raise ArchError(f"energy costs must be ordered {' <= '.join(LEVELS)}, got "
                            f"({', '.join(map(str, costs))})")


@dataclass(frozen=True)
class ArchConfig:
    """A spatial array: PE count, native word width, access costs, MAC
    energy, and the RS and NLR mapping parameters."""

    pe_count: int = 256
    word_bits: int = 16
    energy: EnergyTable = field(default_factory=EnergyTable)
    mac_energy: float = 1.0
    rs_channels_per_pe: int = 4
    nlr_lane_width: int = 16

    def __post_init__(self):
        for name in ("pe_count", "word_bits", "rs_channels_per_pe", "nlr_lane_width"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ArchError(f"{name} must be an integer >= 1, got {value!r}")
        if self.word_bits > 64:
            raise ArchError(f"word_bits must be in [1, 64], got {self.word_bits}")
        if not isinstance(self.energy, EnergyTable):
            raise ArchError(f"energy must be an EnergyTable, got {self.energy!r}")
        object.__setattr__(self, "mac_energy", _cost(self.mac_energy, "mac_energy"))


def default_arch() -> ArchConfig:
    return ArchConfig()


# the storage levels are EnergyTable's fields, in their order
LEVELS = tuple(f.name for f in fields(EnergyTable))
_TOP_KEYS = {f.name for f in fields(ArchConfig)}


def parse_arch(text: str) -> ArchConfig:
    """Parse a JSON configuration; unspecified fields keep their defaults."""
    try:
        doc = json.loads(text)
    # json raises ValueError past 4,300 digits, RecursionError on deep nesting
    except (ValueError, RecursionError) as exc:
        raise ArchError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArchError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ArchError(f"unknown keys {sorted(unknown)}")
    if "energy" in doc:
        table = doc["energy"]
        if not isinstance(table, dict) or set(table) - set(LEVELS):
            raise ArchError(f"energy must be an object with keys among {LEVELS}")
        doc["energy"] = EnergyTable(**table)
    return ArchConfig(**doc)


def serialize_arch(cfg: ArchConfig) -> str:
    return json.dumps(asdict(cfg), indent=2)
