"""Energy model over access counts, with bitwidth and sparsity modifiers.

Movement energy per data type and level is the access count times the level
cost, scaled by the type's bitwidth relative to the native word. Partial sums
always move at full word width. Compute energy scales quadratically with the
two operand bitwidths and linearly with the product of the operand densities
(a zero operand gates the MAC); sparsity does not modify movement here, which
keeps the movement side a strict upper bound for compressed traffic.

``network_energy`` prices each distinct layer shape once per call and gives
every weighted layer its own report, which owns its ``movement`` dicts. A
report's total is derived on each read, in one pass over ``movement``.

Reports are in relative units (register-file access = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .archmodel import LEVELS, ArchConfig
from .dataflow import DATA_TYPES, AccessCounts, DataflowKind, _as_kind, layer_access_counts
from .netmodel import WEIGHTED_KINDS, ResolvedNetwork, shape_key


@dataclass(frozen=True)
class Modifiers:
    """Workload knobs: operand densities in (0, 1] and operand bitwidths.

    ``None`` bitwidths mean the architecture's native word.
    """

    density_in: float = 1.0
    density_w: float = 1.0
    bits_in: int | None = None
    bits_w: int | None = None

    def __post_init__(self):
        for label, rho in (("density_in", self.density_in), ("density_w", self.density_w)):
            if not 0.0 < rho <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {rho}")
        for label, bits in (("bits_in", self.bits_in), ("bits_w", self.bits_w)):
            if bits is None:
                continue
            if not isinstance(bits, int) or isinstance(bits, bool):
                raise ValueError(f"{label} must be an integer, got {bits!r}")
            if bits < 1:
                raise ValueError(f"{label} must be >= 1, got {bits}")


def _resolve_bits(mods: Modifiers, arch: ArchConfig) -> tuple[int, int]:
    bi = arch.word_bits if mods.bits_in is None else mods.bits_in
    bw = arch.word_bits if mods.bits_w is None else mods.bits_w
    for label, bits in (("bits_in", bi), ("bits_w", bw)):
        if not 1 <= bits <= arch.word_bits:
            raise ValueError(f"{label} must be in [1, {arch.word_bits}], got {bits}")
    return bi, bw


class EnergyReport(NamedTuple):
    """Energy for one layer (or an aggregate) under one dataflow.

    ``movement[dtype][level]`` is the movement energy matrix; totals and both
    breakdown axes are derived, so they cannot drift out of sync with it.
    """

    layer: str
    dataflow: str
    movement: dict[str, dict[str, float]]
    compute: float

    @property
    def by_type(self) -> dict[str, float]:
        return {d: sum(self.movement[d][lv] for lv in LEVELS) for d in DATA_TYPES}

    @property
    def by_level(self) -> dict[str, float]:
        return {lv: sum(self.movement[d][lv] for d in DATA_TYPES) for lv in LEVELS}

    @property
    def movement_total(self) -> float:
        # the sum() calls of sum(by_type.values()), in the same order,
        # without building by_type
        m = self.movement
        return sum([sum([m[d][lv] for lv in LEVELS]) for d in DATA_TYPES])

    @property
    def total(self) -> float:
        return self.movement_total + self.compute


def layer_energy(counts: AccessCounts, arch: ArchConfig,
                 mods: Modifiers = Modifiers()) -> EnergyReport:
    """Price one layer's access counts."""
    bi, bw = _resolve_bits(mods, arch)
    word = arch.word_bits
    e = arch.energy
    costs = [(level, getattr(e, level)) for level in LEVELS]
    # count * cost * width / word, left to right: folding cost * width / word
    # into one factor would round differently
    movement = {}
    for dtype, width in zip(DATA_TYPES, (bi, bw, word)):
        row = counts.acc[dtype]
        movement[dtype] = {level: row[level] * cost * width / word for level, cost in costs}
    compute = (counts.total_macs * arch.mac_energy
               * (bi * bw) / (arch.word_bits * arch.word_bits)
               * mods.density_in * mods.density_w)
    return EnergyReport(layer=counts.layer, dataflow=_as_kind(counts.kind).value,
                        movement=movement, compute=compute)


def _aggregate(reports: list[EnergyReport], label: str, kind: str) -> EnergyReport:
    movement = {d: {lv: sum([r.movement[d][lv] for r in reports], 0.0) for lv in LEVELS}
                for d in DATA_TYPES}
    return EnergyReport(layer=label, dataflow=kind, movement=movement,
                        compute=sum([r.compute for r in reports], 0.0))


def network_energy(net: ResolvedNetwork, kind: DataflowKind, arch: ArchConfig,
                   mods: Modifiers = Modifiers()) -> tuple[list[EnergyReport], EnergyReport]:
    """Per-layer reports over the weighted layers, plus their aggregate.

    Each distinct layer shape (``netmodel.shape_key``) is priced once per
    call; a later layer of the same shape gets a report under its own name
    with its own copies of the ``movement`` dicts, so mutating one report
    changes no other.

    Raises ValueError when the aggregate total overflows to inf, which a
    finite but huge cost in the hardware description can cause.
    """
    kind = DataflowKind(kind)
    priced: dict[tuple, EnergyReport] = {}
    reports = []
    for layer in net.layers:
        if layer.kind not in WEIGHTED_KINDS:
            continue
        key = shape_key(layer)
        first = priced.get(key)
        if first is None:
            report = priced[key] = layer_energy(layer_access_counts(kind, layer, arch),
                                                arch, mods)
        else:
            report = EnergyReport(layer=layer.name, dataflow=first.dataflow,
                                  movement={d: dict(row) for d, row in first.movement.items()},
                                  compute=first.compute)
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
    kinds = {layer.name: layer.kind for layer in net.layers}
    if not any(kind in WEIGHTED_KINDS for kind in kinds.values()):
        raise ValueError(f"network {net.name!r} has no weighted layers")
    raw = []
    for kind in DataflowKind:
        reports, agg = network_energy(net, kind, arch, mods)
        conv_total = sum(r.total for r in reports if kinds[r.layer] == "conv")
        raw.append((kind.value, agg, agg.total, conv_total))

    best = min(total for _, _, total, _ in raw)
    conv_best = min(ct for _, _, _, ct in raw)
    entries = tuple(
        DataflowComparison(
            kind=kind,
            total=total,
            conv_total=conv_total,
            ratio=total / best,
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
