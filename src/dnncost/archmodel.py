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
from collections import namedtuple

from .netmodel import _json_object, _Record, _require_int, _shown


class ArchError(ValueError):
    """Invalid accelerator configuration or configuration document."""


def _cost(value, what: str) -> float:
    """A relative energy as a float, so that a cost given as an integer
    prices alike from code and from JSON; the bound rejects NaN and inf."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 < value <= sys.float_info.max):
        raise ArchError(f"{what} must be a finite number > 0, got {_shown(value)}")
    return float(value)


class EnergyTable(_Record, namedtuple("EnergyTable", "rf noc buf dram",
                                      defaults=(1.0, 2.0, 6.0, 200.0))):
    """Relative energy per word access at each level; the fields are LEVELS, from the PE out."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        costs = [_cost(cost, f"energy cost for {level}") for level, cost in zip(LEVELS, self)]
        if costs != sorted(costs):
            raise ArchError(f"energy costs must be ordered {' <= '.join(LEVELS)}, got "
                            f"({', '.join(map(str, costs))})")
        return super().__new__(cls, *costs)


# the storage levels are EnergyTable's fields, in their order
LEVELS = EnergyTable._fields


class ArchConfig(_Record, namedtuple(
        "ArchConfig", "pe_count word_bits energy mac_energy rs_channels_per_pe nlr_lane_width",
        defaults=(256, 16, EnergyTable(), 1.0, 4, 16))):
    """A spatial array: PE count, native word width, access costs, MAC
    energy, and the RS and NLR mapping parameters. The four counts are
    Python ints >= 1, and word_bits is at most 64; ArchError names any other."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, high in (("pe_count", None), ("word_bits", 64), ("rs_channels_per_pe", None),
                           ("nlr_lane_width", None)):
            _require_int(getattr(self, name), 1, "", name, ArchError, high)
        if not isinstance(self.energy, EnergyTable):
            raise ArchError(f"energy must be an EnergyTable, got {self.energy!r}")
        return super().__new__(
            cls, **{**self._asdict(), "mac_energy": _cost(self.mac_energy, "mac_energy")})


def default_arch() -> ArchConfig:
    return ArchConfig()


_TOP_KEYS = set(ArchConfig._fields)


def parse_arch(text: str) -> ArchConfig:
    """Parse a JSON configuration; unspecified fields keep their defaults."""
    doc = _json_object(text, ArchError)
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
    return json.dumps({**cfg._asdict(), "energy": cfg.energy._asdict()}, indent=2)
