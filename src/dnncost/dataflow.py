"""Access-count model for four spatial-accelerator dataflow policies.

The model answers one question per layer: how many times does each data type
(input activations, weights, partial sums) touch each level of the storage
hierarchy (per-PE register file, inter-PE network, global buffer, DRAM)?

Each dataflow is summarized by a small table of reuse factors per data type:

* ``resident``       the type lives in the PE register file, so every MAC
                     touches the RF (twice for partial sums: read + update)
* ``rf_reuse``       MACs served by one RF fill; deliveries from above are
                     T / rf_reuse
* ``multicast``      PEs fed by one buffer read over the network
* ``spatial_accum``  partial sums combined across PEs before a buffer update

A table also records the layer it was computed for, which carries its batch
size and its counts, so counting a table needs nothing else.

Counting rules, with T (the MACs over the whole batch), Di, Dw and Do from
``layer.stats``:

* RF: T per resident read type, 2T for resident partial sums, else 0
* NoC: deliveries = ceil(T / rf_reuse), floored at the unique volume
  (deliveries can never undercut the distinct words consumed)
* buffer: deliveries / multicast for read types, clamped to
  [unique volume, deliveries]; partial-sum updates count read + write, so
  2 * ceil(T / (rf_reuse * spatial_accum)) clamped to [Do, 2T]
* DRAM: the unique volume, fetched or written exactly once (ideal DRAM,
  no capacity-induced refetch)

No count exceeds 2T or a unique volume, so for a layer from
``resolve_shapes``, whose counts are within ``netmodel.COUNT_BUDGET``, every
count fits int64.

The four policies:

* ws   weights pinned in RFs; inputs multicast to the filter-sized PE
       groups; partial sums accumulated spatially across each filter plane
* os   each PE owns one output; partial sums never leave the RF until done
* nlr  no per-PE storage at all; everything streams from the global buffer,
       inputs and partial sums ride wide broadcast/adder lanes
* rs   filter rows and input rows pinned per PE; one-dimensional
       convolutions replay from the RF, partial sums accumulated across the
       kernel-row dimension
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .archmodel import LEVELS, ArchConfig
from .netmodel import WEIGHTED_KINDS, ResolvedLayer

DATA_TYPES = ("input", "weight", "psum")


class DataflowKind(str, Enum):
    WS = "ws"
    OS = "os"
    NLR = "nlr"
    RS = "rs"


@dataclass(frozen=True)
class TypeReuse:
    resident: bool
    rf_reuse: int = 1
    multicast: int = 1
    spatial_accum: int = 1


@dataclass(frozen=True)
class ReuseFactors:
    """Reuse factors of one layer under one dataflow. The table carries the
    layer it was computed for, so counting it needs no other argument."""

    kind: DataflowKind
    layer: ResolvedLayer
    input: TypeReuse
    weight: TypeReuse
    psum: TypeReuse

    def of(self, dtype: str) -> TypeReuse:
        return getattr(self, dtype)


@dataclass(frozen=True)
class AccessCounts:
    """Access counts per data type and hierarchy level for one layer."""

    layer: str
    kind: DataflowKind
    total_macs: int
    acc: dict[str, dict[str, int]]


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def reuse_factors(kind: DataflowKind, layer: ResolvedLayer, arch: ArchConfig) -> ReuseFactors:
    """Reuse factor table for one layer, at its batch size, under one dataflow.

    Degenerate shapes clamp every factor to at least 1.
    """
    if layer.kind not in WEIGHTED_KINDS:
        raise ValueError(
            f"layer {layer.name!r}: access counts are defined for conv and fc "
            f"layers only, not {layer.kind!r}")
    kind = DataflowKind(kind)
    r, s = layer.kernel
    e, f = layer.out_height, layer.out_width
    m = layer.out_channels
    p = arch.pe_count
    # MACs per output word, ceil(macs / do) with the E*F and batch factors
    # cancelled; equals (C/G)*R*S on densely wired layers
    depth = max(1, _ceildiv(layer.stats.dw, m))

    if kind is DataflowKind.WS:
        # one weight per PE; a filter occupies an R*S block of the array
        mp = min(max(p // (r * s), 1), m)
        return ReuseFactors(
            kind=kind, layer=layer,
            weight=TypeReuse(resident=True, rf_reuse=max(1, layer.batch * e * f)),
            input=TypeReuse(resident=False, multicast=mp),
            psum=TypeReuse(resident=False, spatial_accum=r * s),
        )
    if kind is DataflowKind.OS:
        q = max(1, min(p, e * f))
        return ReuseFactors(
            kind=kind, layer=layer,
            psum=TypeReuse(resident=True, rf_reuse=depth),
            input=TypeReuse(resident=False, multicast=min(r * s, q)),
            weight=TypeReuse(resident=False, multicast=q),
        )
    if kind is DataflowKind.NLR:
        lane = arch.nlr_lane_width
        return ReuseFactors(
            kind=kind, layer=layer,
            input=TypeReuse(resident=False, multicast=min(m, lane)),
            weight=TypeReuse(resident=False, multicast=1),
            psum=TypeReuse(resident=False, spatial_accum=min(depth, lane)),
        )
    # RS: filter row and input row pinned per PE, sliding window along a row
    g = max(1, min(arch.rs_channels_per_pe, layer.in_channels))
    return ReuseFactors(
        kind=kind, layer=layer,
        weight=TypeReuse(resident=True, rf_reuse=max(1, f), multicast=min(e, p)),
        input=TypeReuse(resident=True, rf_reuse=max(1, s), multicast=min(r, p)),
        psum=TypeReuse(resident=True, rf_reuse=max(1, s * g), spatial_accum=max(1, r)),
    )


def access_counts(factors: ReuseFactors) -> AccessCounts:
    """Evaluate the counting rules for the layer of one factor table."""
    layer = factors.layer
    st = layer.stats
    t = st.macs

    acc: dict[str, dict[str, int]] = {}
    for dtype, fac, unique in (("input", factors.input, st.di),
                               ("weight", factors.weight, st.dw)):
        deliveries = max(_ceildiv(t, fac.rf_reuse), unique)
        acc[dtype] = {
            "rf": t if fac.resident else 0,
            "noc": deliveries,
            # buffer reads clamped to [unique, deliveries]
            "buf": max(unique, min(_ceildiv(deliveries, fac.multicast), deliveries)),
            "dram": unique,
        }

    fac = factors.psum
    updates = _ceildiv(t, fac.rf_reuse * fac.spatial_accum)
    acc["psum"] = {
        "rf": 2 * t if fac.resident else 0,
        "noc": max(_ceildiv(t, fac.rf_reuse), st.do),
        "buf": max(st.do, min(2 * updates, 2 * t)),  # clamped to [Do, 2T]
        "dram": st.do,  # output writes only
    }
    return AccessCounts(layer=layer.name, kind=factors.kind, total_macs=t, acc=acc)


def layer_access_counts(kind: DataflowKind, layer: ResolvedLayer,
                        arch: ArchConfig) -> AccessCounts:
    """Convenience: factor table and counting rules in one step."""
    return access_counts(reuse_factors(kind, layer, arch))
