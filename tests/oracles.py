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

``SCALARS`` and ``mostly`` are the Hypothesis draws that the description
tests share, kept here so that every file draws its wrong values alike.
"""

import cmath
import itertools

import numpy as np
from hypothesis import strategies as st

from dnncost.archmodel import LEVELS
from dnncost.dataflow import (DATA_TYPES, AccessCounts, DataflowKind, ReuseFactors,
                              TypeReuse)
from dnncost.energy import ComparisonReport, DataflowComparison, EnergyReport
from dnncost.netmodel import WEIGHTED_KINDS, LayerStats, ResolvedLayer
from dnncost.optkit import MAX_RUN, MAX_VALUE, PAIR_BITS, VALUE_BITS, CodecError
from dnncost.stats import next_pow2

# any JSON scalar: Python None, bool, int (unbounded), float (NaN and inf
# included) and str
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))


def mostly(values, otherwise=SCALARS):
    """``values`` fifteen times in sixteen, ``otherwise`` the rest."""
    return st.sampled_from(range(16)).flatmap(lambda i: otherwise if i == 15 else values)


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


# -- multiplication counts -------------------------------------------------------

def direct_conv_count(x, w):
    """Stride-1, unpadded cross-correlation of one H x W channel ``x`` by one
    R x S filter ``w`` (lists of rows) as the literal loop nest, and the
    multiplications it made."""
    r_n, s_n = len(w), len(w[0])
    out = [[0] * (len(x[0]) - s_n + 1) for _ in range(len(x) - r_n + 1)]
    mults = 0
    for e, row in enumerate(out):
        for f in range(len(row)):
            for r in range(r_n):
                for s in range(s_n):
                    row[f] += x[e + r][f + s] * w[r][s]
                    mults += 1
    return out, mults


def im2col_conv_count(x, w):
    """The cross-correlation of ``direct_conv_count`` lowered to a matrix
    product: the E*F x R*S patch matrix, one row per output position, times
    the R*S filter column by the schoolbook product, and the multiplications
    it made."""
    r_n, s_n = len(w), len(w[0])
    out_h, out_w = len(x) - r_n + 1, len(x[0]) - s_n + 1
    lowered = [[x[e + r][f + s] for r in range(r_n) for s in range(s_n)]
               for e in range(out_h) for f in range(out_w)]
    column = [tap for row in w for tap in row]
    product = []
    mults = 0
    for patch in lowered:
        acc = 0
        for value, tap in zip(patch, column):
            acc += value * tap
            mults += 1
        product.append(acc)
    return [product[e * out_w:(e + 1) * out_w] for e in range(out_h)], mults


def _add(p, q):
    return [[a + b for a, b in zip(rp, rq)] for rp, rq in zip(p, q)]


def _sub(p, q):
    return [[a - b for a, b in zip(rp, rq)] for rp, rq in zip(p, q)]


def strassen_product(a, b):
    """The product of two n x n matrices (lists of rows), n a power of two, by
    Strassen's recursion down to 1 x 1 blocks, and the scalar multiplications
    it made: seven half-size products per level, one multiplication per
    1 x 1 product."""
    n = len(a)
    if n == 1:
        return [[a[0][0] * b[0][0]]], 1
    h = n // 2
    a11, a12, a21, a22 = ([row[:h] for row in a[:h]], [row[h:] for row in a[:h]],
                          [row[:h] for row in a[h:]], [row[h:] for row in a[h:]])
    b11, b12, b21, b22 = ([row[:h] for row in b[:h]], [row[h:] for row in b[:h]],
                          [row[:h] for row in b[h:]], [row[h:] for row in b[h:]])
    products = [strassen_product(p, q) for p, q in (
        (_add(a11, a22), _add(b11, b22)), (_add(a21, a22), b11), (a11, _sub(b12, b22)),
        (a22, _sub(b21, b11)), (_add(a11, a12), b22), (_sub(a21, a11), _add(b11, b12)),
        (_sub(a12, a22), _add(b21, b22)))]
    m1, m2, m3, m4, m5, m6, m7 = (m for m, _ in products)
    c11 = _add(_sub(_add(m1, m4), m5), m7)
    c12 = _add(m3, m5)
    c21 = _add(m2, m4)
    c22 = _add(_add(_sub(m1, m2), m3), m6)
    return ([r1 + r2 for r1, r2 in zip(c11, c12)] + [r1 + r2 for r1, r2 in zip(c21, c22)],
            sum(mults for _, mults in products))


# F(2x2, 3x3) transforms (Lavin & Gray): filter G, input B^T, output A^T
WINOGRAD_G = [[1, 0, 0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0, 0, 1]]
WINOGRAD_BT = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
WINOGRAD_AT = [[1, 1, 1, 0], [0, 1, -1, -1]]


def _matmul(a, b):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*b)] for row in a]


def _sandwich(p, x):
    """P x P^T."""
    return _matmul(_matmul(p, x), [list(col) for col in zip(*p)])


def winograd_conv_count(x, w):
    """The cross-correlation of ``direct_conv_count`` for a 3 x 3 filter by
    F(2x2, 3x3) over the 2x2 output tiles that ``conv_winograd_f22_33`` forms:
    an odd output extent is padded up to whole tiles with zero input on the
    high side, and the output cropped. Returns the output and the
    elementwise products made, 16 per tile; the transforms multiply by the
    constants 0, +-1 and +-1/2 only, which are not counted."""
    out_h, out_w = len(x) - 2, len(x[0]) - 2
    tiles_h, tiles_w = -(-out_h // 2), -(-out_w // 2)
    width = 2 * tiles_w + 2
    padded = ([list(row) + [0] * (width - len(row)) for row in x]
              + [[0] * width for _ in range(2 * tiles_h + 2 - len(x))])
    u = _sandwich(WINOGRAD_G, w)
    out = [[0] * (2 * tiles_w) for _ in range(2 * tiles_h)]
    mults = 0
    for ty in range(tiles_h):
        for tx in range(tiles_w):
            v = _sandwich(WINOGRAD_BT, [row[2 * tx:2 * tx + 4]
                                        for row in padded[2 * ty:2 * ty + 4]])
            m = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(4):
                    m[i][j] = u[i][j] * v[i][j]
                    mults += 1
            for i, row in enumerate(_sandwich(WINOGRAD_AT, m)):
                out[2 * ty + i][2 * tx:2 * tx + 2] = row
    return [row[:out_w] for row in out[:out_h]], mults


def fft_count(a, sign=-1):
    """The DFT of a power-of-two length list by recursive radix-2
    Cooley-Tukey, exp(sign * 2 pi i j k / n) per term, and the complex
    multiplications it made: one twiddle product per butterfly, the trivial
    twiddle 1 included, so n/2 * log2(n) for length n."""
    n = len(a)
    if n == 1:
        return list(a), 0
    even, even_mults = fft_count(a[0::2], sign)
    odd, odd_mults = fft_count(a[1::2], sign)
    out = [0j] * n
    mults = even_mults + odd_mults
    for k in range(n // 2):
        t = cmath.exp(sign * 2j * cmath.pi * k / n) * odd[k]
        mults += 1
        out[k], out[k + n // 2] = even[k] + t, even[k] - t
    return out, mults


def fft2_count(a, sign=-1):
    """The 2-D DFT of an n x n list of rows, n a power of two, as n row
    transforms and then n column transforms, and the complex multiplications
    they made."""
    rows, mults = [], 0
    for row in a:
        spectrum, count = fft_count(row, sign)
        rows.append(spectrum)
        mults += count
    cols = []
    for col in zip(*rows):
        spectrum, count = fft_count(list(col), sign)
        cols.append(spectrum)
        mults += count
    return [list(row) for row in zip(*cols)], mults


def fft_conv_count(x, w):
    """The cross-correlation of ``direct_conv_count`` by the textbook
    three-transform route at n, the least power of two >= the H-wide input:
    the input and the flipped filter zero-padded to n x n and transformed,
    their n^2 pointwise products, the inverse transform and the valid crop.
    At n >= H the circular wrap misses the valid region. Returns the output,
    the complex multiplications made, and n; the inverse's 1/n^2 scale is
    not counted."""
    h, f = len(x), len(w)
    n = 1
    while n < h:
        n *= 2

    def padded(a):
        return ([list(row) + [0] * (n - len(row)) for row in a]
                + [[0] * n for _ in range(n - len(a))])

    fx, x_mults = fft2_count(padded(x))
    fw, w_mults = fft2_count(padded([row[::-1] for row in w[::-1]]))
    prod, mults = [], x_mults + w_mults
    for row_x, row_w in zip(fx, fw):
        prod.append([p * q for p, q in zip(row_x, row_w)])
        mults += len(row_x)
    full, inverse_mults = fft2_count(prod, sign=1)
    out = [[full[f - 1 + e][f - 1 + c].real / (n * n) for c in range(h - f + 1)]
           for e in range(h - f + 1)]
    return out, mults + inverse_mults, n


def conv_fft_count(x, w):
    """``kernels.conv_fft``'s stages, in its order, on a C x H x W input ``x``
    and an M x C x R x S filter bank ``w`` (nested lists), and the complex
    multiplications each stage made, in ``fft_conv_count``'s units: one per
    radix-2 butterfly, one per DFT-matrix or channel-sum product.

    The stages, at nh x nw, the least powers of two >= H and W, as the
    kernel pads, with nw/2 + 1 bins along W:
    - "input": each of the H rows of each channel transformed as a complex
      FFT, its bins kept, then each bin's zero-padded nh-point column;
    - "filters": the S-tap DFT of the flipped filters' rows into the bins;
    - "channel_sums": in each bin, the R*M x C filter rows times the input's
      C x nh column spectra, which sums over the channels;
    - "taps": the R-tap DFT along the filter rows, per output channel, bin
      and row frequency;
    - "inverse": per output channel, each bin's nh-point column, then each
      row from its bins and their conjugate mirror; the 1/(nh*nw) scale is
      not counted.
    Returns the valid M x E x F output, the counts by stage, and (nh, nw)."""
    c_n, h, wd = len(x), len(x[0]), len(x[0][0])
    m_n, r_n, s_n = len(w), len(w[0][0]), len(w[0][0][0])
    nh, nw = next_pow2(h), next_pow2(wd)
    bins = nw // 2 + 1
    counts = dict.fromkeys(("input", "filters", "channel_sums", "taps", "inverse"), 0)

    def fft(a, stage, sign=-1):
        spectrum, mults = fft_count(list(a), sign)
        counts[stage] += mults
        return spectrum

    def dft(n, taps, k):
        """exp(-2 pi i t k / n) for each tap t."""
        return [cmath.exp(-2j * cmath.pi * (t * k % n) / n) for t in range(taps)]

    # fx[c][l][k]: channel c's spectrum at bin l and row frequency k
    fx = []
    for plane in x:
        rows = [fft(list(row) + [0] * (nw - wd), "input")[:bins] for row in plane]
        fx.append([fft(list(col) + [0] * (nh - h), "input") for col in zip(*rows)])
    # spec[m][c][r][l]: the S-tap DFT of the flipped filter row r at bin l
    bin_taps = [dft(nw, s_n, l) for l in range(bins)]
    spec = [[[[0j] * bins for _ in range(r_n)] for _ in range(c_n)] for _ in range(m_n)]
    for m, c, r, l in itertools.product(range(m_n), range(c_n), range(r_n), range(bins)):
        row = w[m][c][r_n - 1 - r][::-1]
        for s in range(s_n):
            spec[m][c][r][l] += row[s] * bin_taps[l][s]
            counts["filters"] += 1
    # z[l][r][m][k]: row r of filter m times the input, summed over channels
    z = [[[[0j] * nh for _ in range(m_n)] for _ in range(r_n)] for _ in range(bins)]
    for l, r, m, k in itertools.product(range(bins), range(r_n), range(m_n), range(nh)):
        for c in range(c_n):
            z[l][r][m][k] += spec[m][c][r][l] * fx[c][l][k]
            counts["channel_sums"] += 1
    # prod[m][k][l]: the R-tap DFT of z along the filter rows
    row_taps = [dft(nh, r_n, k) for k in range(nh)]
    prod = [[[0j] * bins for _ in range(nh)] for _ in range(m_n)]
    for m, k, l in itertools.product(range(m_n), range(nh), range(bins)):
        for r in range(r_n):
            prod[m][k][l] += row_taps[k][r] * z[l][r][m][k]
            counts["taps"] += 1
    e, f = h - r_n + 1, wd - s_n + 1
    out = []
    for plane in prod:
        cols = [fft(col, "inverse", sign=1) for col in zip(*plane)]  # bins x nh
        full = [fft([*row, *(row[j].conjugate() for j in range(nw - bins, 0, -1))],
                    "inverse", sign=1) for row in zip(*cols)]
        out.append([[full[r_n - 1 + i][s_n - 1 + j].real / (nh * nw) for j in range(f)]
                    for i in range(e)])
    return out, counts, (nh, nw)


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
    layer = layer._replace(batch=batch)
    r, s = layer.kernel
    e, f = layer.out_height, layer.out_width
    m = layer.out_channels
    p = arch.pe_count
    st = reference_layer_stats(layer._replace(batch=1))
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
    # one report per weighted layer, in order: matched by position, since
    # a network built by hand may give two layers one name
    kinds = [layer.kind for layer in net.layers if layer.kind in WEIGHTED_KINDS]
    raw = []
    for kind in DataflowKind:
        reports, agg = reference_network_energy(net, kind, arch, mods)
        conv_total = sum(reference_total(r) for r, k in zip(reports, kinds) if k == "conv")
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
