"""Energy model over access counts, with bitwidth and sparsity modifiers.

Movement energy per data type and level is the access count times the level
cost, scaled by the type's bitwidth relative to the native word. Partial sums
always move at full word width. Compute energy scales quadratically with the
two operand bitwidths and linearly with the product of the operand densities
(a zero operand gates the MAC); sparsity does not modify movement here, which
keeps the movement side a strict upper bound for compressed traffic.

``network_energy`` prices each distinct layer shape once per call, as the
network's ``weighted`` field groups them, and gives every weighted layer its
own report, which owns its ``movement`` dicts. A report's total is derived on
each read, in one pass over ``movement``. Rows of access counts and of
energies are read by key, never by position.

Reports are in relative units (register-file access = 1).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter

from .archmodel import LEVELS, ArchConfig
from .dataflow import DATA_TYPES, AccessCounts, DataflowKind, _as_kind, layer_access_counts
from .netmodel import ResolvedNetwork, _Record, _require_int, _shown

# a movement matrix's rows in DATA_TYPES order; a row's cells in LEVELS order
_types_of = itemgetter(*DATA_TYPES)
_levels_of = itemgetter(*LEVELS)
_CELLS = len(DATA_TYPES) * len(LEVELS)


class Modifiers(_Record, namedtuple("Modifiers", "density_in density_w bits_in bits_w",
                                    defaults=(1.0, 1.0, None, None))):
    """Workload knobs: operand densities in (0, 1] and operand bitwidths.

    ``None`` bitwidths mean the architecture's native word.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for label, rho in (("density_in", self.density_in), ("density_w", self.density_w)):
            if not isinstance(rho, (int, float)) or isinstance(rho, bool) or not 0 < rho <= 1:
                raise ValueError(f"{label} must be in (0, 1], got {_shown(rho)}")
        for label, bits in (("bits_in", self.bits_in), ("bits_w", self.bits_w)):
            if bits is not None:
                _require_int(bits, 1, "", label, ValueError)
        return self


def _resolve_bits(mods: Modifiers, arch: ArchConfig) -> tuple[int, int]:
    bi = arch.word_bits if mods.bits_in is None else mods.bits_in
    bw = arch.word_bits if mods.bits_w is None else mods.bits_w
    _require_int(bi, 1, "", "bits_in", ValueError, arch.word_bits)
    _require_int(bw, 1, "", "bits_w", ValueError, arch.word_bits)
    return bi, bw


class EnergyReport(namedtuple("EnergyReport", "layer dataflow movement compute")):
    """Energy for one layer (or an aggregate) under one dataflow: the layer's
    name (or the aggregate's label), the dataflow's value, and the movement
    and compute energies.

    ``movement[dtype][level]`` is the movement energy matrix, its rows in
    DATA_TYPES order and each row's keys in LEVELS order; totals and both
    breakdown axes are derived, so they cannot drift out of sync with it.
    """

    __slots__ = ()

    @property
    def by_type(self) -> dict[str, float]:
        return dict(zip(DATA_TYPES, map(sum, map(_levels_of, _types_of(self.movement)))))

    @property
    def by_level(self) -> dict[str, float]:
        return {lv: sum(self.movement[d][lv] for d in DATA_TYPES) for lv in LEVELS}

    @property
    def movement_total(self) -> float:
        # the sum() calls of sum(by_type.values()), in the same order,
        # without building by_type
        return sum(map(sum, map(_levels_of, _types_of(self.movement))))

    @property
    def total(self) -> float:
        return self.movement_total + self.compute


def layer_energy(counts: AccessCounts, arch: ArchConfig,
                 mods: Modifiers = Modifiers()) -> EnergyReport:
    """Price one layer's access counts."""
    word, bi, bw = arch.word_bits, mods.bits_in, mods.bits_w
    # a guard, not a second rule: every width it passes, _resolve_bits accepts
    if not (type(bi) is int and type(bw) is int and 0 < bi <= word and 0 < bw <= word):
        bi, bw = _resolve_bits(mods, arch)
    rf, noc, buf, dram = arch.energy
    layer, kind, macs, acc = counts
    # count * cost * width / word, left to right: folding cost * width / word
    # into one factor would round differently. Each row is a literal, keys in
    # LEVELS order, as access_counts builds its rows
    movement = {}
    for dtype, row, width in zip(DATA_TYPES, _types_of(acc), (bi, bw, word)):
        n_rf, n_noc, n_buf, n_dram = _levels_of(row)
        movement[dtype] = {"rf": n_rf * rf * width / word, "noc": n_noc * noc * width / word,
                           "buf": n_buf * buf * width / word, "dram": n_dram * dram * width / word}
    compute = macs * arch.mac_energy * (bi * bw) / (word * word) * mods.density_in * mods.density_w
    return EnergyReport(layer, _as_kind(kind)._value_, movement, compute)


def _aggregate(reports: list[EnergyReport], label: str, kind: str) -> EnergyReport:
    # cells[i::_CELLS] is the i-th cell of every report, in report order
    cells = [cell for r in reports for row in _types_of(r.movement) for cell in _levels_of(row)]
    sums = iter([sum(cells[i::_CELLS], 0.0) for i in range(_CELLS)])
    movement = {d: {lv: next(sums) for lv in LEVELS} for d in DATA_TYPES}
    return EnergyReport(label, kind, movement, sum([r.compute for r in reports], 0.0))


def network_energy(net: ResolvedNetwork, kind: DataflowKind, arch: ArchConfig,
                   mods: Modifiers = Modifiers()) -> tuple[list[EnergyReport], EnergyReport]:
    """Per-layer reports over the weighted layers, plus their aggregate.

    Each distinct layer shape is priced once per call, as ``net.weighted``
    groups the layers; a later layer of the same shape gets a report under
    its own name with its own copies of the ``movement`` dicts, so mutating
    one report changes no other.

    Raises ValueError when the aggregate total overflows to inf, which a
    finite but huge cost in the hardware description can cause.
    """
    kind = _as_kind(kind)
    reports: list[EnergyReport] = []
    for layer, first in net.weighted:
        if first == len(reports):  # the first layer of its shape
            report = layer_energy(layer_access_counts(kind, layer, arch), arch, mods)
        else:
            priced = reports[first]
            report = EnergyReport(layer.name, priced.dataflow,
                                  {d: row.copy() for d, row in priced.movement.items()},
                                  priced.compute)
        reports.append(report)
    agg = _aggregate(reports, "total", kind.value)
    if not math.isfinite(agg.total):
        raise ValueError(f"network {net.name!r}, dataflow {kind.value}: total energy is "
                         f"{agg.total}, not a finite number; the hardware costs are too large")
    return reports, agg


@dataclass(frozen=True)
class DataflowComparison:
    """One dataflow's network totals, its ratios to the cheapest dataflow
    and its breakdowns."""

    kind: str
    total: float
    conv_total: float
    ratio: float
    conv_ratio: float
    by_type: dict[str, float]
    by_level: dict[str, float]
    compute: float


@dataclass(frozen=True)
class ComparisonReport:
    """Every dataflow's entry on one network, and the cheapest overall and
    on the conv layers alone."""

    network: str
    batch: int
    entries: tuple[DataflowComparison, ...]
    winner: str
    conv_winner: str


def compare_dataflows(net: ResolvedNetwork, arch: ArchConfig,
                      mods: Modifiers = Modifiers()) -> ComparisonReport:
    """Aggregate energy per dataflow, normalized to the cheapest one."""
    if not net.weighted:
        raise ValueError(f"network {net.name!r} has no weighted layers")
    # the reports follow net.weighted, and network_energy gives each layer a
    # copy of the report of the first layer of its shape: so each conv layer's
    # total is read once per shape, from the report at that first index
    conv = [first for layer, first in net.weighted if layer.kind == "conv"]
    shapes = set(conv)
    raw = []
    for kind in DataflowKind:
        reports, agg = network_energy(net, kind, arch, mods)
        totals = {first: reports[first].total for first in shapes}
        raw.append((kind.value, agg, agg.total, sum(map(totals.__getitem__, conv))))

    best = min(total for _, _, total, _ in raw)
    conv_best = min(ct for _, _, _, ct in raw)
    entries = tuple(
        DataflowComparison(
            kind=kind,
            total=total,
            conv_total=conv_total,
            ratio=total / best if best else 1.0,
            conv_ratio=conv_total / conv_best if conv_best else 1.0,
            by_type=agg.by_type,
            by_level=agg.by_level,
            compute=agg.compute,
        )
        for kind, agg, total, conv_total in raw
    )
    winner = min(entries, key=lambda en: en.total).kind
    conv_winner = min(entries, key=lambda en: en.conv_total).kind
    return ComparisonReport(network=net.name, batch=net.batch, entries=entries,
                            winner=winner, conv_winner=conv_winner)
