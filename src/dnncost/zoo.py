"""Built-in classifier descriptions.

Each builder returns a plain JSON-ready document in the network description
format, so every built-in round-trips through parse_network by construction.
Geometry and wiring follow the published architectures as they are usually
counted for storage/compute tallies:

* lenet5     the 1x32x32 digit classifier; its second conv keeps the original
             sparse connection table (60 of 96 filter-channel pairs wired)
* alexnet    3x227x227; conv2/conv4/conv5 split across two groups
* vgg16      13 convs in five 3x3 blocks plus three fc layers
* googlenet  stem + 9 inception modules, flat per-branch layers merged by
             concat pseudo-layers; between-stage pools use floor arithmetic
             (55/27/13/6), auxiliary classifiers omitted
* resnet50   bottleneck residual stages with explicit 1x1 projections and
             zero-cost add pseudo-layers; convs are bias-free
"""

from __future__ import annotations

import json

from .netmodel import NetworkError, NetworkSpec, parse_network


def _conv(name, m, k, stride=1, pad=0, groups=1, bias=True, inp=None, connections=None):
    doc = {"type": "conv", "name": name, "out_channels": m, "kernel": [k, k],
           "stride": stride, "pad": pad, "groups": groups, "bias": bias}
    if connections is not None:
        doc["connections"] = connections
    if inp is not None:
        doc["input"] = inp
    return doc


def _pool(name, k, stride, pad=0, inp=None):
    doc = {"type": "pool", "name": name, "kernel": [k, k], "stride": stride, "pad": pad}
    if inp is not None:
        doc["input"] = inp
    return doc


def _fc(name, m, bias=True):
    return {"type": "fc", "name": name, "out_channels": m, "bias": bias}


def _lenet5():
    return {
        "name": "lenet5",
        "input": {"channels": 1, "height": 32, "width": 32},
        "layers": [
            _conv("c1", 6, 5),
            _pool("s2", 2, 2),
            # original sparse connection table: 60 of the 96 pairs are wired
            _conv("c3", 16, 5, connections=60),
            _pool("s4", 2, 2),
            _fc("c5", 120),
            _fc("f6", 84),
        ],
    }


def _alexnet():
    return {
        "name": "alexnet",
        "input": {"channels": 3, "height": 227, "width": 227},
        "layers": [
            _conv("conv1", 96, 11, stride=4),
            _pool("pool1", 3, 2),
            _conv("conv2", 256, 5, pad=2, groups=2),
            _pool("pool2", 3, 2),
            _conv("conv3", 384, 3, pad=1),
            _conv("conv4", 384, 3, pad=1, groups=2),
            _conv("conv5", 256, 3, pad=1, groups=2),
            _pool("pool5", 3, 2),
            _fc("fc6", 4096),
            _fc("fc7", 4096),
            _fc("fc8", 1000),
        ],
    }


def _vgg16():
    layers = []
    block_channels = ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3))
    for bi, (m, depth) in enumerate(block_channels, start=1):
        for ci in range(1, depth + 1):
            layers.append(_conv(f"conv{bi}_{ci}", m, 3, pad=1))
        layers.append(_pool(f"pool{bi}", 2, 2))
    layers += [_fc("fc6", 4096), _fc("fc7", 4096), _fc("fc8", 1000)]
    return {
        "name": "vgg16",
        "input": {"channels": 3, "height": 224, "width": 224},
        "layers": layers,
    }


def _inception(prefix, inp, c1, c3r, c3, c5r, c5, pp):
    return [
        _conv(f"{prefix}_1x1", c1, 1, inp=inp),
        _conv(f"{prefix}_3x3r", c3r, 1, inp=inp),
        _conv(f"{prefix}_3x3", c3, 3, pad=1),
        _conv(f"{prefix}_5x5r", c5r, 1, inp=inp),
        _conv(f"{prefix}_5x5", c5, 5, pad=2),
        _pool(f"{prefix}_pool", 3, 1, pad=1, inp=inp),
        _conv(f"{prefix}_poolproj", pp, 1),
        {"type": "concat", "name": prefix,
         "inputs": [f"{prefix}_1x1", f"{prefix}_3x3", f"{prefix}_5x5",
                    f"{prefix}_poolproj"]},
    ]


def _googlenet():
    layers = [
        _conv("conv1", 64, 7, stride=2, pad=3),
        _pool("pool1", 3, 2),
        _conv("conv2_reduce", 64, 1),
        _conv("conv2", 192, 3, pad=1),
        _pool("pool2", 3, 2),
    ]
    modules = [
        ("inc3a", (64, 96, 128, 16, 32, 32)),
        ("inc3b", (128, 128, 192, 32, 96, 64)),
        ("pool", None),
        ("inc4a", (192, 96, 208, 16, 48, 64)),
        ("inc4b", (160, 112, 224, 24, 64, 64)),
        ("inc4c", (128, 128, 256, 24, 64, 64)),
        ("inc4d", (112, 144, 288, 32, 64, 64)),
        ("inc4e", (256, 160, 320, 32, 128, 128)),
        ("pool", None),
        ("inc5a", (256, 160, 320, 32, 128, 128)),
        ("inc5b", (384, 192, 384, 48, 128, 128)),
    ]
    prev = "pool2"
    pools = 3
    for name, widths in modules:
        if widths is None:
            layers.append(_pool(f"pool{pools}", 3, 2, inp=prev))
            prev = f"pool{pools}"
            pools += 1
        else:
            layers += _inception(name, prev, *widths)
            prev = name
    layers += [_pool("avgpool", 6, 1), _fc("fc", 1000)]
    return {
        "name": "googlenet",
        "input": {"channels": 3, "height": 224, "width": 224},
        "layers": layers,
    }


def _bottleneck(prefix, inp, mid, out, stride, project):
    layers = [
        _conv(f"{prefix}_a", mid, 1, stride=stride, bias=False, inp=inp),
        _conv(f"{prefix}_b", mid, 3, pad=1, bias=False),
        _conv(f"{prefix}_c", out, 1, bias=False),
    ]
    if project:
        layers.append(_conv(f"{prefix}_proj", out, 1, stride=stride, bias=False, inp=inp))
        shortcut = f"{prefix}_proj"
    else:
        shortcut = inp
    layers.append({"type": "add", "name": prefix, "inputs": [f"{prefix}_c", shortcut]})
    return layers


def _resnet50():
    layers = [
        _conv("conv1", 64, 7, stride=2, pad=3, bias=False),
        _pool("pool1", 3, 2, pad=1),
    ]
    prev = "pool1"
    stages = [
        ("res2", 64, 256, 3, 1),
        ("res3", 128, 512, 4, 2),
        ("res4", 256, 1024, 6, 2),
        ("res5", 512, 2048, 3, 2),
    ]
    for stage, mid, out, blocks, stride in stages:
        for bi in range(1, blocks + 1):
            prefix = f"{stage}{chr(ord('a') + bi - 1)}"
            first = bi == 1
            layers += _bottleneck(prefix, prev, mid, out,
                                  stride if first else 1, project=first)
            prev = prefix
    layers += [_pool("avgpool", 7, 1), _fc("fc", 1000)]
    return {
        "name": "resnet50",
        "input": {"channels": 3, "height": 224, "width": 224},
        "layers": layers,
    }


_BUILDERS = {
    "lenet5": _lenet5,
    "alexnet": _alexnet,
    "vgg16": _vgg16,
    "googlenet": _googlenet,
    "resnet50": _resnet50,
}

BUILTIN_NAMES = tuple(sorted(_BUILDERS))


def builtin_document(name: str) -> str:
    """Return a built-in network as a JSON document."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise NetworkError(
            f"unknown built-in network {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return json.dumps(builder(), indent=2)


# name -> (the parser that made it, parsed spec); a NetworkSpec is immutable,
# so every caller shares one
_PARSED: dict[str, tuple] = {}


def builtin(name: str) -> NetworkSpec:
    """Return a built-in network, parsed from its embedded document once per
    process and shared by every caller.

    A spec is reused only while ``parse_network`` is the function that parsed
    it, so a replaced parser (a timing wrapper, a test double) is called again.
    """
    hit = _PARSED.get(name)
    if hit is None or hit[0] is not parse_network:
        hit = _PARSED[name] = (parse_network, parse_network(builtin_document(name)))
    return hit[1]
