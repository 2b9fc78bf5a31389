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
lookup per cell, totals and breakdowns derived here with generator sums
rather than read from the report properties, the batch passed explicitly
rather than read off the layer). Both are kept so the lean engine path can be
held to them with ``==``.

``reference_conv_fft`` is not an enumeration either. It is the FFT
convolution as ``kernels.conv_fft`` computed it while it still transformed
the whole filter bank, kept so the reordered kernel has a witness that
differs from it only in the order of the sums.
"""

from dataclasses import replace

import numpy as np

from dnncost.archmodel import LEVELS
from dnncost.dataflow import (DATA_TYPES, AccessCounts, DataflowKind, ReuseFactors,
                              TypeReuse)
from dnncost.energy import ComparisonReport, DataflowComparison, EnergyReport
from dnncost.netmodel import WEIGHTED_KINDS, LayerStats, ResolvedLayer
from dnncost.optkit import MAX_RUN, MAX_VALUE, PAIR_BITS, VALUE_BITS, CodecError
from dnncost.stats import next_pow2

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


def reference_conv_fft(x, w):
    """Stride-1 cross-correlation by the textbook three-transform route: the
    real 2-D FFT of the input and of every flipped filter, zero-padded to the
    next powers of two >= H + R - 1 and W + S - 1, their product summed over
    channels, the inverse FFT, and the valid crop."""
    c, h, wd = x.shape
    m, _, r, s = w.shape
    e, f = h - r + 1, wd - s + 1
    nh = next_pow2(h + r - 1)
    nw = next_pow2(wd + s - 1)
    fx = np.fft.rfft2(x, (nh, nw))
    fw = np.fft.rfft2(w[:, :, ::-1, ::-1], (nh, nw))
    prod = np.einsum("cij,mcij->mij", fx, fw)
    full = np.fft.irfft2(prod, (nh, nw))
    return full[:, r - 1:r - 1 + e, s - 1:s - 1 + f]


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
    g = max(1, min(arch.rs_channels_per_pe, layer.in_channels))
    return ReuseFactors(
        kind=kind, layer=layer,
        weight=TypeReuse(resident=True, rf_reuse=max(1, f), share=min(e, p)),
        input=TypeReuse(resident=True, rf_reuse=max(1, s), share=min(r, p)),
        psum=TypeReuse(resident=True, rf_reuse=max(1, s * g), share=max(1, r)),
    )


def reference_counts(kind, layer, arch, batch):
    """Access counts of ``layer`` at ``batch`` under one dataflow."""
    return reference_table_counts(reference_factors(kind, layer, arch, batch))


def reference_table_counts(factors):
    """Access counts of any factor table, its layer's batch included, with
    every clamp spelled out as max(lo, min(x, hi))."""
    layer = factors.layer
    st = reference_layer_stats(layer)
    t = st.macs
    unique = {"input": st.di, "weight": st.dw, "psum": st.do}
    acc = {}
    for dtype in ("input", "weight"):
        fac = getattr(factors, dtype)
        deliveries = max(_ceildiv(t, fac.rf_reuse), unique[dtype])
        acc[dtype] = {
            "rf": t if fac.resident else 0,
            "noc": deliveries,
            "buf": max(unique[dtype], min(_ceildiv(deliveries, fac.share), deliveries)),
            "dram": unique[dtype],
        }
    fac = factors.psum
    updates = _ceildiv(t, fac.rf_reuse * fac.share)
    acc["psum"] = {
        "rf": 2 * t if fac.resident else 0,
        "noc": max(_ceildiv(t, fac.rf_reuse), st.do),
        "buf": max(st.do, min(2 * updates, 2 * t)),
        "dram": st.do,
    }
    return AccessCounts(layer=layer.name, kind=factors.kind, total_macs=t, acc=acc)


def reference_layer_energy(counts, arch, mods):
    """Price each (type, level) cell with its own cost lookup."""
    bi = arch.word_bits if mods.bits_in is None else mods.bits_in
    bw = arch.word_bits if mods.bits_w is None else mods.bits_w
    width = {"input": bi, "weight": bw, "psum": arch.word_bits}
    movement = {
        dtype: {
            level: counts.acc[dtype][level] * getattr(arch.energy, level)
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


def reference_by_type(report):
    return {d: sum(report.movement[d][lv] for lv in LEVELS) for d in DATA_TYPES}


def reference_by_level(report):
    return {lv: sum(report.movement[d][lv] for d in DATA_TYPES) for lv in LEVELS}


def reference_total(report):
    """Movement summed per data type, then over the types, plus compute."""
    return sum(reference_by_type(report).values()) + report.compute


def reference_compare(net, arch, mods):
    """Dataflow comparison with every total and breakdown derived here."""
    kinds = {layer.name: layer.kind for layer in net.layers}
    raw = []
    for kind in DataflowKind:
        reports, agg = reference_network_energy(net, kind, arch, mods)
        conv_total = sum(reference_total(r) for r in reports if kinds[r.layer] == "conv")
        raw.append((kind.value, agg, reference_total(agg), conv_total))
    best = min(total for _, _, total, _ in raw)
    conv_best = min(ct for _, _, _, ct in raw)
    entries = tuple(
        DataflowComparison(
            kind=kind, total=total, conv_total=conv_total,
            ratio=total / best,
            conv_ratio=conv_total / conv_best if conv_best else 1.0,
            by_type=reference_by_type(agg), by_level=reference_by_level(agg),
            compute=agg.compute)
        for kind, agg, total, conv_total in raw)
    return ComparisonReport(
        network=net.name, batch=net.batch, entries=entries,
        winner=min(entries, key=lambda en: en.total).kind,
        conv_winner=min(entries, key=lambda en: en.conv_total).kind)
