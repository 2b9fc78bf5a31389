"""Network documents the benchmark writes, and its own recount of them.

``recount`` walks a network document with the counting conventions that the
package documents (bias words stored but not streamed, fc as a conv over its
whole input, zero-cost pool/act/concat/add). It shares no code with the
package, so the engine's tallies are checked against an independent witness.
"""

from __future__ import annotations

# Published storage/compute table: (weights, MACs at batch 1, relative tolerance).
PUBLISHED = {
    "lenet5": (60e3, 341e3, 0.05),
    "alexnet": (61e6, 724e6, 0.05),
    "vgg16": (138e6, 15.5e9, 0.05),
    "googlenet": (7e6, 1.43e9, 0.10),
    "resnet50": (25.5e6, 3.9e9, 0.10),
}

# The CIFAR residual network of the approximation workload: ResNet-56
# (three stages of nine basic blocks, widths 16/32/64), about 0.85 M weights.
CIFAR_BLOCKS = 9
CIFAR_WIDTHS = (16, 32, 64)
# the 3x3 layer the four convolution routes are run on: 16 ch, 32x32
KERNEL_LAYER = "s1b1_b"


def _conv(name, m, k, stride=1, pad=0, inp=None):
    doc = {"type": "conv", "name": name, "out_channels": m, "kernel": [k, k],
           "stride": stride, "pad": pad, "bias": False}
    if inp is not None:
        doc["input"] = inp
    return doc


def cifar_resnet_doc() -> dict:
    """ResNet-56 for 3x32x32 inputs with 1x1 projection shortcuts."""
    layers = [_conv("conv1", CIFAR_WIDTHS[0], 3, pad=1),
              {"type": "act", "name": "conv1_relu"}]
    prev = "conv1_relu"
    for si, width in enumerate(CIFAR_WIDTHS, start=1):
        for bi in range(1, CIFAR_BLOCKS + 1):
            prefix = f"s{si}b{bi}"
            stride = 2 if si > 1 and bi == 1 else 1
            layers += [
                _conv(f"{prefix}_a", width, 3, stride=stride, pad=1, inp=prev),
                {"type": "act", "name": f"{prefix}_a_relu"},
                _conv(f"{prefix}_b", width, 3, pad=1),
            ]
            shortcut = prev
            if stride != 1:
                layers.append(_conv(f"{prefix}_proj", width, 1, stride=stride, inp=prev))
                shortcut = f"{prefix}_proj"
            layers += [
                {"type": "add", "name": prefix, "inputs": [f"{prefix}_b", shortcut]},
                {"type": "act", "name": f"{prefix}_relu"},
            ]
            prev = f"{prefix}_relu"
    layers += [{"type": "pool", "name": "avgpool", "kernel": [8, 8], "stride": 1},
               {"type": "fc", "name": "fc", "out_channels": 10}]
    return {"name": "resnet56_cifar",
            "input": {"channels": 3, "height": 32, "width": 32},
            "layers": layers}


def _extent(size, kernel, stride, pad):
    return (size + 2 * pad - kernel) // stride + 1


def recount(doc: dict, batch: int = 1) -> list[dict]:
    """Per-layer counts of the weighted layers of a network document.

    Each row holds name, kind, weights, macs, d_in, d_w, d_out, and the
    input shape (c, h, w) the layer sees.
    """
    shape = doc["input"]
    first = (shape["channels"], shape["height"], shape["width"])
    shapes: dict[str, tuple[int, int, int]] = {}
    rows = []
    prev = None
    for layer in doc["layers"]:
        kind = layer["type"]
        if kind in ("concat", "add"):
            feeds = [shapes[name] for name in layer["inputs"]]
            if kind == "concat":
                out = (sum(f[0] for f in feeds), feeds[0][1], feeds[0][2])
            else:
                out = feeds[0]
        else:
            feed = layer.get("input", prev)
            c, h, w = first if feed is None else shapes[feed]
            if kind == "act":
                out = (c, h, w)
            elif kind == "pool":
                r, s = layer["kernel"]
                stride, pad = layer.get("stride", 1), layer.get("pad", 0)
                out = (c, _extent(h, r, stride, pad), _extent(w, s, stride, pad))
            else:
                m = layer["out_channels"]
                if kind == "fc":
                    r, s, e, f, groups, wired = h, w, 1, 1, 1, None
                else:
                    r, s = layer["kernel"]
                    stride, pad = layer.get("stride", 1), layer.get("pad", 0)
                    e, f = _extent(h, r, stride, pad), _extent(w, s, stride, pad)
                    groups, wired = layer.get("groups", 1), layer.get("connections")
                pairs = m * (c // groups) if wired is None else wired
                dw = pairs * r * s
                bias = m if layer.get("bias", True) else 0
                rows.append({"name": layer["name"], "kind": kind,
                             "weights": dw + bias, "macs": batch * dw * e * f,
                             "d_in": batch * c * h * w, "d_w": dw,
                             "d_out": batch * m * e * f, "in_shape": (c, h, w)})
                out = (m, e, f)
        shapes[layer["name"]] = out
        prev = layer["name"]
    return rows


def totals(rows: list[dict]) -> dict[str, int]:
    """Column sums of a recount."""
    return {key: sum(row[key] for row in rows)
            for key in ("weights", "macs", "d_in", "d_w", "d_out")}
