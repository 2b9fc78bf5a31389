"""Access-count model for four spatial-accelerator dataflow policies.

The model answers one question per layer: how many times does each data type
(input activations, weights, partial sums) touch each level of the storage
hierarchy (per-PE register file, inter-PE network, global buffer, DRAM)?

Each dataflow is summarized by a table of three reuse factors per data type:

* ``resident``  the type lives in the PE register file, so every MAC touches
                the RF (twice for partial sums: read + update)
* ``rf_reuse``  MACs served by one RF fill; deliveries from above are
                T / rf_reuse
* ``share``     PEs one buffer access serves: the multicast fan-out of an
                input or weight read, the spatial-accumulation fan-in of a
                partial-sum update

A table also records the layer it was computed for, which carries its batch
size and its counts, so counting a table needs nothing else.

One counting rule covers every data type, with T (the MACs over the whole
batch) and the type's unique volume U (Di, Dw or Do) from ``layer.stats``.
k = 2 for partial sums, whose RF accesses and buffer updates each read and
write, and 1 for inputs and weights:

* RF: k * T if the type is resident, else 0
* NoC: ceil(T / rf_reuse), floored at U (deliveries can never undercut the
  distinct words consumed)
* buffer: k * ceil(T / (rf_reuse * share)), floored at U
* DRAM: U, each word fetched or written once (ideal DRAM, no refetch)

Every reuse factor is an integer >= 1, so the rule needs no ceiling: no count
exceeds 2T or a unique volume, and for a layer from ``resolve_shapes``, whose
counts are within ``netmodel.COUNT_BUDGET``, every count fits int64.

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

from typing import TYPE_CHECKING, NamedTuple

from .names import DataflowKind
from .netmodel import WEIGHTED_KINDS, ResolvedLayer

if TYPE_CHECKING:
    from .archmodel import ArchConfig


def _as_kind(kind) -> DataflowKind:
    """``DataflowKind(kind)``, without the enum call when kind is a member."""
    return kind if isinstance(kind, DataflowKind) else DataflowKind(kind)


class TypeReuse(NamedTuple):
    """Reuse factors of one data type under one dataflow."""

    resident: bool
    rf_reuse: int = 1
    share: int = 1


class ReuseFactors(NamedTuple):
    """Reuse factors of one layer under one dataflow. The table carries the
    layer it was computed for, so counting it needs no other argument."""

    kind: DataflowKind
    layer: ResolvedLayer
    input: TypeReuse
    weight: TypeReuse
    psum: TypeReuse


# the data types are ReuseFactors' type fields, in their order
DATA_TYPES = ReuseFactors._fields[2:]


class AccessCounts(NamedTuple):
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
    kind = _as_kind(kind)
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
            input=TypeReuse(resident=False, share=mp),
            psum=TypeReuse(resident=False, share=r * s),
        )
    if kind is DataflowKind.OS:
        q = max(1, min(p, e * f))
        return ReuseFactors(
            kind=kind, layer=layer,
            psum=TypeReuse(resident=True, rf_reuse=depth),
            input=TypeReuse(resident=False, share=min(r * s, q)),
            weight=TypeReuse(resident=False, share=q),
        )
    if kind is DataflowKind.NLR:
        lane = arch.nlr_lane_width
        return ReuseFactors(
            kind=kind, layer=layer,
            input=TypeReuse(resident=False, share=min(m, lane)),
            weight=TypeReuse(resident=False, share=1),
            psum=TypeReuse(resident=False, share=min(depth, lane)),
        )
    # RS: filter row and input row pinned per PE, sliding window along a row
    g = max(1, min(arch.rs_channels_per_pe, layer.in_channels))
    return ReuseFactors(
        kind=kind, layer=layer,
        weight=TypeReuse(resident=True, rf_reuse=max(1, f), share=min(e, p)),
        input=TypeReuse(resident=True, rf_reuse=max(1, s), share=min(r, p)),
        psum=TypeReuse(resident=True, rf_reuse=max(1, s * g), share=max(1, r)),
    )


def access_counts(factors: ReuseFactors) -> AccessCounts:
    """Evaluate the counting rule for the layer of one factor table."""
    layer = factors.layer
    st = layer.stats
    t = st.macs

    acc: dict[str, dict[str, int]] = {}
    for dtype, fac, unique, k in zip(DATA_TYPES, factors[2:], (st.di, st.dw, st.do), (1, 1, 2)):
        # a literal, keys in LEVELS order: three times as fast as dict(zip(LEVELS, ...))
        acc[dtype] = {
            "rf": k * t if fac.resident else 0,
            "noc": max(_ceildiv(t, fac.rf_reuse), unique),
            "buf": max(k * _ceildiv(t, fac.rf_reuse * fac.share), unique),
            "dram": unique,
        }
    return AccessCounts(layer=layer.name, kind=factors.kind, total_macs=t, acc=acc)


def layer_access_counts(kind: DataflowKind, layer: ResolvedLayer,
                        arch: ArchConfig) -> AccessCounts:
    """Convenience: factor table and counting rule in one step."""
    return access_counts(reuse_factors(kind, layer, arch))
