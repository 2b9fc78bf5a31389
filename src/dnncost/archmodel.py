"""Accelerator configuration: array size, storage, and access costs.

Costs are relative energies per word access, normalized to one register-file
access; absolute calibration is the caller's business. The defaults describe a
256-PE spatial array with a four level storage hierarchy: per-PE register
file, inter-PE network, global buffer, DRAM. Storage capacities are not part
of the model: DRAM traffic is always the ideal unique volume.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

LEVELS = ("rf", "noc", "buf", "dram")


class ArchError(ValueError):
    """Invalid accelerator configuration or configuration document."""


@dataclass(frozen=True)
class EnergyTable:
    """Relative energy per word access at each hierarchy level."""

    rf: float = 1.0
    noc: float = 2.0
    buf: float = 6.0
    dram: float = 200.0

    def cost(self, level: str) -> float:
        if level not in LEVELS:
            raise ArchError(f"unknown hierarchy level {level!r}")
        return getattr(self, level)


@dataclass(frozen=True)
class ArchConfig:
    pe_count: int = 256
    word_bits: int = 16
    energy: EnergyTable = field(default_factory=EnergyTable)
    mac_energy: float = 1.0
    rs_channels_per_pe: int = 4
    nlr_lane_width: int = 16

    def __post_init__(self):
        if self.pe_count < 1:
            raise ArchError(f"pe_count must be >= 1, got {self.pe_count}")
        if not 1 <= self.word_bits <= 64:
            raise ArchError(f"word_bits must be in [1, 64], got {self.word_bits}")
        if not (math.isfinite(self.mac_energy) and self.mac_energy > 0):
            raise ArchError(f"mac_energy must be finite and > 0, got {self.mac_energy}")
        if self.rs_channels_per_pe < 1 or self.nlr_lane_width < 1:
            raise ArchError("rs_channels_per_pe and nlr_lane_width must be >= 1")
        e = self.energy
        for level in LEVELS:
            if not (math.isfinite(e.cost(level)) and e.cost(level) > 0):
                raise ArchError(f"energy cost for {level} must be finite and > 0")
        if not e.rf <= e.noc <= e.buf <= e.dram:
            raise ArchError(
                f"energy costs must be ordered rf <= noc <= buf <= dram, got "
                f"({e.rf}, {e.noc}, {e.buf}, {e.dram})")


def default_arch() -> ArchConfig:
    return ArchConfig()


_TOP_KEYS = {f.name for f in fields(ArchConfig)}


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ArchError(f"{what} must be a number, got {value!r}")
    return float(value)


def parse_arch(text: str) -> ArchConfig:
    """Parse a JSON configuration; unspecified fields keep their defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArchError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ArchError(f"unknown keys {sorted(unknown)}")

    values = {}
    for key in ("pe_count", "word_bits", "rs_channels_per_pe", "nlr_lane_width"):
        if key in doc:
            value = doc[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ArchError(f"{key} must be an integer, got {value!r}")
            values[key] = value
    if "mac_energy" in doc:
        values["mac_energy"] = _number(doc["mac_energy"], "mac_energy")
    if "energy" in doc:
        table = doc["energy"]
        if not isinstance(table, dict) or set(table) - set(LEVELS):
            raise ArchError(f"energy must be an object with keys among {LEVELS}")
        values["energy"] = EnergyTable(**{level: _number(table[level], f"energy.{level}")
                                          for level in LEVELS if level in table})
    return ArchConfig(**values)


def serialize_arch(cfg: ArchConfig) -> str:
    return json.dumps(asdict(cfg), indent=2)
