"""Brute-force oracles the analytical engine is tested against.

Everything here recounts model quantities by literal enumeration, one loop
iteration per event, so the closed-form code has an independent witness.
Keep these dumb; their value is that they cannot share a bug with the
formulas under test.

The two references at the end are not enumerations. The layer-count
reference is the closed form that counted a layer before the count moved
into the ``ResolvedLayer`` constructor, with wired pairs as its own
function. The pricing reference is the engine's earlier, plainer pricing
path (depth from a second count of the layer at batch 1, a validated cost()
lookup per cell, totals re-derived from the report properties, the batch
passed explicitly rather than read off the layer). Both are kept so the lean
engine path can be held to them with ``==``.
"""

from dataclasses import replace

import numpy as np

from dnncost.archmodel import LEVELS
from dnncost.dataflow import (DATA_TYPES, AccessCounts, DataflowKind, ReuseFactors,
                              TypeReuse)
from dnncost.energy import ComparisonReport, DataflowComparison, EnergyReport
from dnncost.netmodel import WEIGHTED_KINDS, LayerStats, ResolvedLayer
from dnncost.optkit import MAX_RUN, MAX_VALUE, PAIR_BITS, VALUE_BITS, CodecError

# Which data types live in the per-PE register file under each policy.
# This restates the taxonomy definition, not the engine's factor table.
RESIDENT = {
    "ws": frozenset({"weight"}),
    "os": frozenset({"psum"}),
    "nlr": frozenset(),
    "rs": frozenset({"input", "weight", "psum"}),
}


def brute_macs(batch, in_ch, height, width, out_ch, r, s, stride=1, pad=0,
               groups=1, connections=None):
    """Count MACs by stepping through the seven nested loops one at a time."""
    out_h = (height - r + 2 * pad) // stride + 1
    out_w = (width - s + 2 * pad) // stride + 1
    pairs = connections if connections is not None else out_ch * (in_ch // groups)
    count = 0
    for _n in range(batch):
        for _p in range(pairs):
            for _e in range(out_h):
                for _f in range(out_w):
                    for _r in range(r):
                        for _s in range(s):
                            count += 1
    return count


def simulate_accesses(kind, batch, in_ch, out_ch, height, width, r, s):
    """Execute the dense stride-1 unpadded loop nest and count accesses.

    Returns (rf, dram) dicts keyed by data type. Each MAC touches its
    operand in the register file once when that type is resident under the
    policy (twice for a partial sum: read plus write back). DRAM traffic is
    the set of distinct words the nest touches: reads for inputs and
    weights, final writes for outputs.
    """
    resident = RESIDENT[kind]
    out_h = height - r + 1
    out_w = width - s + 1
    rf = {"input": 0, "weight": 0, "psum": 0}
    inputs = set()
    weights = set()
    outputs = set()
    for n in range(batch):
        for m in range(out_ch):
            for e in range(out_h):
                for f in range(out_w):
                    for c in range(in_ch):
                        for kr in range(r):
                            for ks in range(s):
                                inputs.add((n, c, e + kr, f + ks))
                                weights.add((m, c, kr, ks))
                                outputs.add((n, m, e, f))
                                if "input" in resident:
                                    rf["input"] += 1
                                if "weight" in resident:
                                    rf["weight"] += 1
                                if "psum" in resident:
                                    rf["psum"] += 2
    dram = {"input": len(inputs), "weight": len(weights),
            "psum": len(outputs)}
    return rf, dram


def make_conv(in_ch, height, width, out_ch, r, s, stride=1, pad=0, groups=1,
              bias=False, connections=None, name="probe", batch=1):
    """Directly build a resolved conv layer for engine-level tests."""
    out_h = (height - r + 2 * pad) // stride + 1
    out_w = (width - s + 2 * pad) // stride + 1
    return ResolvedLayer(kind="conv", name=name, batch=batch, in_channels=in_ch,
                         in_height=height, in_width=width, out_channels=out_ch,
                         out_height=out_h, out_width=out_w, kernel=(r, s),
                         stride=stride, pad=pad, groups=groups, bias=bias,
                         connections=connections, inputs=("input",))


def window_conv(x, w, stride=1, pad=0):
    """Strided, padded 2-D cross-correlation as the literal window dot
    product, one output position at a time.

    Returns the M x E x F output and the C*R*S x E*F patch matrix, whose
    column e * F + f holds the window under output position (e, f).
    """
    c, height, width = x.shape
    m, _, r, s = w.shape
    out_h = (height - r + 2 * pad) // stride + 1
    out_w = (width - s + 2 * pad) // stride + 1
    padded = np.zeros((c, height + 2 * pad, width + 2 * pad))
    padded[:, pad:pad + height, pad:pad + width] = x
    flat = w.reshape(m, -1)
    out = np.empty((m, out_h, out_w))
    cols = np.empty((c * r * s, out_h * out_w))
    for e in range(out_h):
        for f in range(out_w):
            patch = padded[:, e * stride:e * stride + r, f * stride:f * stride + s].reshape(-1)
            cols[:, e * out_w + f] = patch
            out[:, e, f] = flat @ patch
    return out, cols


# -- run-length codec ------------------------------------------------------------

def _reference_pairs(words):
    """Check the words, then generate (run, value) pairs one word at a time;
    a (31, 0) pair denotes 32 zeros."""
    for value in words:
        if not isinstance(value, (int, np.integer)) or not 0 <= value <= MAX_VALUE:
            raise CodecError(f"stream words must be integers in [0, {MAX_VALUE}], got {value!r}")
    run = 0
    for value in words:
        if value == 0:
            run += 1
            if run == MAX_RUN + 1:
                yield MAX_RUN, 0
                run = 0
        else:
            yield run, int(value)
            run = 0
    if run:
        # trailing zeros end in a literal zero
        yield run - 1, 0


def reference_rle_pair_count(words):
    return sum(1 for _ in _reference_pairs(words))


def reference_rle_encode(words):
    """Bit-packed pairs through a bit accumulator, one pair at a time."""
    out = bytearray()
    acc = 0
    nbits = 0
    for run, value in _reference_pairs(words):
        acc = (acc << PAIR_BITS) | (run << VALUE_BITS) | value
        nbits += PAIR_BITS
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


# -- layer-count reference -----------------------------------------------------

def reference_wired_pairs(layer):
    """Number of wired (filter, input-channel) pairs of a weighted layer."""
    if layer.kind == "conv" and layer.connections is not None:
        return layer.connections
    return layer.out_channels * (layer.in_channels // layer.groups)


def reference_layer_stats(layer):
    """Storage and compute counts for one resolved layer at its batch size."""
    batch = layer.batch
    di = batch * layer.in_channels * layer.in_height * layer.in_width
    do = batch * layer.out_channels * layer.out_height * layer.out_width
    if layer.kind in WEIGHTED_KINDS:
        r, s = layer.kernel
        dw = reference_wired_pairs(layer) * r * s
        weights = dw + (layer.out_channels if layer.bias else 0)
        macs = batch * dw * layer.out_height * layer.out_width
    else:
        dw = 0
        weights = 0
        macs = 0
    return LayerStats(name=layer.name, kind=layer.kind, weights=weights,
                      macs=macs, di=di, dw=dw, do=do)


# -- pricing reference ---------------------------------------------------------

def _ceildiv(a, b):
    return -(-a // b)


def reference_factors(kind, layer, arch, batch):
    """Reuse factor table of ``layer`` at ``batch``, depth = ceil(MACs /
    output words) at batch 1."""
    kind = DataflowKind(kind)
    layer = replace(layer, batch=batch)
    r, s = layer.kernel
    e, f = layer.out_height, layer.out_width
    m = layer.out_channels
    p = arch.pe_count
    st = reference_layer_stats(replace(layer, batch=1))
    depth = max(1, _ceildiv(st.macs, st.do))
    if kind is DataflowKind.WS:
        mp = min(max(p // (r * s), 1), m)
        return ReuseFactors(
            kind=kind, layer=layer,
            weight=TypeReuse(resident=True, rf_reuse=max(1, batch * e * f)),
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
    g = max(1, min(arch.rs_channels_per_pe, layer.in_channels))
    return ReuseFactors(
        kind=kind, layer=layer,
        weight=TypeReuse(resident=True, rf_reuse=max(1, f), multicast=min(e, p)),
        input=TypeReuse(resident=True, rf_reuse=max(1, s), multicast=min(r, p)),
        psum=TypeReuse(resident=True, rf_reuse=max(1, s * g), spatial_accum=max(1, r)),
    )


def reference_counts(kind, layer, arch, batch):
    """Access counts with every clamp spelled out as max(lo, min(x, hi))."""
    factors = reference_factors(kind, layer, arch, batch)
    st = reference_layer_stats(replace(layer, batch=batch))
    t = st.macs
    unique = {"input": st.di, "weight": st.dw, "psum": st.do}
    acc = {}
    for dtype in ("input", "weight"):
        fac = factors.of(dtype)
        deliveries = max(_ceildiv(t, fac.rf_reuse), unique[dtype])
        acc[dtype] = {
            "rf": t if fac.resident else 0,
            "noc": deliveries,
            "buf": max(unique[dtype], min(_ceildiv(deliveries, fac.multicast), deliveries)),
            "dram": unique[dtype],
        }
    fac = factors.psum
    updates = _ceildiv(t, fac.rf_reuse * fac.spatial_accum)
    acc["psum"] = {
        "rf": 2 * t if fac.resident else 0,
        "noc": max(_ceildiv(t, fac.rf_reuse), st.do),
        "buf": max(st.do, min(2 * updates, 2 * t)),
        "dram": st.do,
    }
    return AccessCounts(layer=layer.name, kind=factors.kind, total_macs=t, acc=acc)


def reference_layer_energy(counts, arch, mods):
    """Price each (type, level) cell with its own cost() lookup."""
    bi = arch.word_bits if mods.bits_in is None else mods.bits_in
    bw = arch.word_bits if mods.bits_w is None else mods.bits_w
    width = {"input": bi, "weight": bw, "psum": arch.word_bits}
    movement = {
        dtype: {
            level: counts.acc[dtype][level] * arch.energy.cost(level)
                   * width[dtype] / arch.word_bits
            for level in LEVELS
        }
        for dtype in DATA_TYPES
    }
    compute = (counts.total_macs * arch.mac_energy
               * (bi * bw) / (arch.word_bits * arch.word_bits)
               * mods.density_in * mods.density_w)
    return EnergyReport(layer=counts.layer, dataflow=counts.kind.value,
                        movement=movement, compute=compute)


def reference_network_energy(net, kind, arch, mods):
    """Per-layer reports over the weighted layers, plus their aggregate."""
    kind = DataflowKind(kind)
    reports = [reference_layer_energy(reference_counts(kind, layer, arch, net.batch),
                                      arch, mods)
               for layer in net.layers if layer.kind in WEIGHTED_KINDS]
    movement = {d: {lv: sum(r.movement[d][lv] for r in reports) for lv in LEVELS}
                for d in DATA_TYPES}
    agg = EnergyReport(layer="total", dataflow=kind.value, movement=movement,
                       compute=sum(r.compute for r in reports))
    return reports, agg


def reference_compare(net, arch, mods):
    """Dataflow comparison reading every total from the report properties."""
    kinds = {layer.name: layer.kind for layer in net.layers}
    raw = []
    for kind in DataflowKind:
        reports, agg = reference_network_energy(net, kind, arch, mods)
        conv_total = sum(r.total for r in reports if kinds[r.layer] == "conv")
        raw.append((kind.value, agg, conv_total, {r.layer: r.total for r in reports}))
    best = min(agg.total for _, agg, _, _ in raw)
    conv_best = min(ct for _, _, ct, _ in raw)
    entries = tuple(
        DataflowComparison(
            kind=kind, total=agg.total, conv_total=conv_total,
            ratio=agg.total / best,
            conv_ratio=conv_total / conv_best if conv_best else 1.0,
            by_type=agg.by_type, by_level=agg.by_level, compute=agg.compute,
            layer_totals=layer_totals)
        for kind, agg, conv_total, layer_totals in raw)
    return ComparisonReport(
        network=net.name, batch=net.batch, entries=entries,
        winner=min(entries, key=lambda en: en.total).kind,
        conv_winner=min(entries, key=lambda en: en.conv_total).kind)
