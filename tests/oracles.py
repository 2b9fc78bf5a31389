"""Brute-force oracles the analytical engine is tested against.

Everything here recounts model quantities by literal enumeration, one loop
iteration per event, so the closed-form code has an independent witness.
Keep these dumb; their value is that they cannot share a bug with the
formulas under test.
"""

import numpy as np

from dnncost.netmodel import ResolvedLayer

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
              bias=False, connections=None, name="probe"):
    """Directly build a resolved conv layer for engine-level tests."""
    out_h = (height - r + 2 * pad) // stride + 1
    out_w = (width - s + 2 * pad) // stride + 1
    return ResolvedLayer(kind="conv", name=name, in_channels=in_ch,
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
