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

from collections import namedtuple
from typing import TYPE_CHECKING

from .netmodel import WEIGHTED_KINDS, DataflowKind, ResolvedLayer

if TYPE_CHECKING:
    from .archmodel import ArchConfig


def _as_kind(kind) -> DataflowKind:
    """``DataflowKind(kind)``, without the enum call when kind is a member."""
    return kind if isinstance(kind, DataflowKind) else DataflowKind(kind)


class TypeReuse(namedtuple("TypeReuse", "resident rf_reuse share", defaults=(1, 1))):
    """Reuse factors of one data type under one dataflow: whether it is
    ``resident`` in the RF, and the int factors ``rf_reuse`` and ``share``."""

    __slots__ = ()


class ReuseFactors(namedtuple("ReuseFactors", "kind layer input weight psum")):
    """Reuse factors of one layer under one dataflow: the ``DataflowKind``,
    the ``ResolvedLayer`` and a ``TypeReuse`` per data type. The table carries
    the layer it was computed for, so counting it needs no other argument."""

    __slots__ = ()


# the data types are ReuseFactors' type fields, in their order
DATA_TYPES = ReuseFactors._fields[2:]


class AccessCounts(namedtuple("AccessCounts", "layer kind total_macs acc")):
    """Access counts per data type and hierarchy level for one layer: the
    layer's name, the ``DataflowKind``, its MACs and ``acc[dtype][level]``."""

    __slots__ = ()


def reuse_factors(kind: DataflowKind, layer: ResolvedLayer, arch: ArchConfig) -> ReuseFactors:
    """Reuse factor table for one layer, at its batch size, under one dataflow.

    Each policy states its (resident, rf_reuse, share) rows in DATA_TYPES
    order, and one clamp at the return lifts every rf_reuse and share to at
    least 1. So a layer built in code with a zero extent is counted too.
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
    depth = -(-layer.stats.dw // (m if m > 1 else 1))

    if kind is DataflowKind.WS:
        # one weight per PE; a filter occupies an R*S block of the array
        rows = ((False, 1, min(p // max(1, r * s), m)), (True, layer.batch * e * f, 1),
                (False, 1, r * s))
    elif kind is DataflowKind.OS:
        q = min(p, e * f)
        rows = ((False, 1, min(r * s, q)), (False, 1, q), (True, depth, 1))
    elif kind is DataflowKind.NLR:
        lane = arch.nlr_lane_width
        rows = ((False, 1, min(m, lane)), (False, 1, 1), (False, 1, min(depth, lane)))
    else:
        # RS: filter row and input row pinned per PE, sliding window along a row
        g = max(1, min(arch.rs_channels_per_pe, layer.in_channels))
        rows = ((True, s, min(r, p)), (True, f, min(e, p)), (True, s * g, r))
    (ri, ui, si), (rw, uw, sw), (rp, up, sp) = rows
    return ReuseFactors(kind, layer,
                        TypeReuse(ri, ui if ui > 1 else 1, si if si > 1 else 1),
                        TypeReuse(rw, uw if uw > 1 else 1, sw if sw > 1 else 1),
                        TypeReuse(rp, up if up > 1 else 1, sp if sp > 1 else 1))


def access_counts(factors: ReuseFactors) -> AccessCounts:
    """Evaluate the counting rule for the layer of one factor table."""
    kind, layer, ti, tw, tp = factors
    st = layer.stats
    t = st.macs

    acc: dict[str, dict[str, int]] = {}
    for dtype, (resident, rf_reuse, share), unique, k in zip(
            DATA_TYPES, (ti, tw, tp), (st.di, st.dw, st.do), (1, 1, 2)):
        # the ceilings and max() inline: this runs for every layer priced
        noc = -(-t // rf_reuse)
        buf = k * -(-t // (rf_reuse * share))
        # a literal, keys in LEVELS order: three times as fast as dict(zip(LEVELS, ...))
        acc[dtype] = {
            "rf": k * t if resident else 0,
            "noc": unique if unique > noc else noc,
            "buf": unique if unique > buf else buf,
            "dram": unique,
        }
    return AccessCounts(layer.name, kind, t, acc)


def layer_access_counts(kind: DataflowKind, layer: ResolvedLayer,
                        arch: ArchConfig) -> AccessCounts:
    """Convenience: factor table and counting rule in one step."""
    return access_counts(reuse_factors(kind, layer, arch))
