"""Network descriptions and shape resolution.

A network is a flat, ordered list of layers over a single N x C x H x W input.
Each layer consumes the output of the previous layer unless it names another
earlier layer via ``input`` (or, for the merge pseudo-layers ``concat`` and
``add``, a list of earlier layers via ``inputs``). Named feeds are enough to
express branch-and-merge topologies such as inception modules and residual
shortcuts while keeping the description a flat list; arbitrary graphs are out
of scope.

Layer kinds:

* ``conv``   weighted, strided, padded, optionally grouped 2-D convolution
* ``fc``     fully connected; modeled as a conv whose kernel equals its input
* ``pool``   spatial downsampling, no weights
* ``act``    elementwise nonlinearity, no weights, shape preserving
* ``concat`` channel concatenation of several feeds (zero cost)
* ``add``    elementwise sum of identically shaped feeds (zero cost)

All types are immutable after construction and every function is pure, so the
module is safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

LAYER_KINDS = ("conv", "fc", "pool", "act", "concat", "add")

# the kinds that carry weights and MACs; every other kind is zero cost
WEIGHTED_KINDS = ("conv", "fc")

# the kinds that merge two or more named feeds; every other kind reads one
_MERGE_KINDS = ("concat", "add")


# the LayerSpec fields each kind reads besides kind, name and inputs; a spec
# must leave every other field at its default
_FIELDS = {
    "conv": {"out_channels", "kernel", "stride", "pad", "groups", "bias", "connections"},
    "fc": {"out_channels", "bias"},
    "pool": {"kernel", "stride", "pad"},
    "act": set(),
    "concat": set(),
    "add": set(),
}


class NetworkError(ValueError):
    """Base class for every network-description failure."""


class NetworkSyntaxError(NetworkError):
    """The document is not well-formed (bad JSON, wrong container types)."""


class NetworkSemanticError(NetworkError):
    """A well-formed document carries an invalid field; names the layer."""


class ShapeError(NetworkError):
    """Shape propagation failed (output underflow, bad channel split)."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer as declared, before shape resolution.

    ``connections`` overrides the number of wired (filter, input-channel)
    pairs of a conv layer; ``None`` means dense wiring, M * C / groups pairs.
    ``inputs`` holds explicit feed names, two or more for a merge and at
    most one otherwise; empty means "previous layer".
    """

    kind: str
    name: str
    out_channels: int = 0
    kernel: tuple[int, int] = (1, 1)
    stride: int = 1
    pad: int = 0
    groups: int = 1
    bias: bool = True
    connections: int | None = None
    inputs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise NetworkSemanticError(f"layer {self.name!r}: unknown kind {self.kind!r}")
        if not self.name:
            raise NetworkSemanticError("layer with empty name")
        r, s = self.kernel
        if r < 1 or s < 1:
            raise NetworkSemanticError(f"layer {self.name!r}: kernel must be positive, got {self.kernel}")
        if self.stride < 1:
            raise NetworkSemanticError(f"layer {self.name!r}: stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise NetworkSemanticError(f"layer {self.name!r}: pad must be >= 0, got {self.pad}")
        if self.groups < 1:
            raise NetworkSemanticError(f"layer {self.name!r}: groups must be >= 1, got {self.groups}")
        if self.kind in WEIGHTED_KINDS and self.out_channels < 1:
            raise NetworkSemanticError(f"layer {self.name!r}: out_channels must be >= 1")
        if self.connections is not None and self.connections < 1:
            raise NetworkSemanticError(f"layer {self.name!r}: connections must be >= 1")
        if self.kind in _MERGE_KINDS and len(self.inputs) < 2:
            raise NetworkSemanticError(f"layer {self.name!r}: inputs must list at least two layers")
        if self.kind not in _MERGE_KINDS and len(self.inputs) > 1:
            raise NetworkSemanticError(
                f"layer {self.name!r}: {self.kind} layers take one input, got {len(self.inputs)}")
        for field, default in _UNUSED_FIELDS[self.kind]:
            if getattr(self, field) != default:
                raise NetworkSemanticError(
                    f"layer {self.name!r}: {field} does not apply to {self.kind} layers")


# per kind, the (field, default) pairs of the LayerSpec fields it does not read
_UNUSED_FIELDS = {kind: tuple((f.name, f.default) for f in fields(LayerSpec)
                              if f.name not in used and f.name not in ("kind", "name", "inputs"))
                  for kind, used in _FIELDS.items()}


@dataclass(frozen=True)
class NetworkSpec:
    """A parsed network description."""

    name: str
    in_channels: int
    in_height: int
    in_width: int
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class ResolvedLayer:
    """A layer with its input and output shapes pinned down.

    For fc layers the kernel is set to the full input extent (R = H, S = W)
    and the output is 1 x 1, so downstream arithmetic treats conv and fc
    uniformly. Pool/act/concat/add keep kernel fields only where meaningful.
    """

    kind: str
    name: str
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    out_height: int
    out_width: int
    kernel: tuple[int, int]
    stride: int
    pad: int
    groups: int
    bias: bool
    connections: int | None
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class ResolvedNetwork:
    name: str
    batch: int
    in_channels: int
    in_height: int
    in_width: int
    layers: tuple[ResolvedLayer, ...]


# required and allowed JSON keys per layer kind
_REQUIRED = {
    "conv": {"out_channels", "kernel"},
    "fc": {"out_channels"},
    "pool": {"kernel"},
    "act": set(),
    "concat": {"inputs"},
    "add": {"inputs"},
}
_ALLOWED = {kind: keys | {"type", "name", "inputs" if kind in _MERGE_KINDS else "input"}
            for kind, keys in _FIELDS.items()}


def _require_int(value, what, minimum):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise NetworkSemanticError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _parse_layer(doc, index, seen):
    where = f"layer {index}"
    if not isinstance(doc, dict):
        raise NetworkSyntaxError(f"{where}: expected an object, got {type(doc).__name__}")
    kind = doc.get("type")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise NetworkSemanticError(f"{where}: missing or empty name")
    where = f"{where} ({name!r})"
    if kind not in LAYER_KINDS:
        raise NetworkSemanticError(f"{where}: unknown layer type {kind!r}")
    if name in seen:
        raise NetworkSemanticError(f"{where}: duplicate layer name")

    unknown = set(doc) - _ALLOWED[kind]
    if unknown:
        raise NetworkSemanticError(f"{where}: unknown keys {sorted(unknown)}")
    missing = _REQUIRED[kind] - set(doc)
    if missing:
        raise NetworkSemanticError(f"{where}: missing required keys {sorted(missing)}")

    if kind in _MERGE_KINDS:
        # LayerSpec checks the number of feeds
        feeds = doc["inputs"]
        if not isinstance(feeds, list):
            raise NetworkSemanticError(f"{where}: inputs must list at least two layers")
    else:
        feeds = [doc["input"]] if "input" in doc else []
    for feed in feeds:
        if not isinstance(feed, str) or feed not in seen:
            raise NetworkSemanticError(f"{where}: input {feed!r} does not name an earlier layer")

    kernel = (1, 1)
    if "kernel" in doc:
        raw = doc["kernel"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise NetworkSemanticError(f"{where}: kernel must be a [height, width] pair")
        kernel = (_require_int(raw[0], f"{where}: kernel height", 1),
                  _require_int(raw[1], f"{where}: kernel width", 1))
    # _ALLOWED has rejected every key that does not belong to this kind, so
    # the LayerSpec defaults stand in for the absent ones
    ints = {key: _require_int(doc[key], f"{where}: {key}", minimum)
            for key, minimum in (("stride", 1), ("pad", 0), ("groups", 1),
                                 ("out_channels", 1), ("connections", 1))
            if key in doc}
    bias = doc.get("bias", True)
    if not isinstance(bias, bool):
        raise NetworkSemanticError(f"{where}: bias must be a boolean")
    return LayerSpec(kind=kind, name=name, kernel=kernel, bias=bias,
                     inputs=tuple(feeds), **ints)


def parse_network(text: str) -> NetworkSpec:
    """Parse a JSON network description into a NetworkSpec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkSyntaxError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkSyntaxError("top level must be an object")
    unknown = set(doc) - {"name", "input", "layers"}
    if unknown:
        raise NetworkSemanticError(f"unknown top-level keys {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise NetworkSemanticError("missing or empty network name")
    shape = doc.get("input")
    if not isinstance(shape, dict) or set(shape) != {"channels", "height", "width"}:
        raise NetworkSemanticError("input must be an object with channels, height, width")
    channels = _require_int(shape["channels"], "input channels", 1)
    height = _require_int(shape["height"], "input height", 1)
    width = _require_int(shape["width"], "input width", 1)
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise NetworkSemanticError("layers must be a non-empty list")

    layers = []
    seen: set[str] = set()
    for index, raw in enumerate(raw_layers):
        spec = _parse_layer(raw, index, seen)
        seen.add(spec.name)
        layers.append(spec)
    return NetworkSpec(name=name, in_channels=channels, in_height=height,
                       in_width=width, layers=tuple(layers))


def _layer_doc(spec: LayerSpec) -> dict:
    doc: dict = {"type": spec.kind, "name": spec.name}
    for field in fields(LayerSpec):
        value = getattr(spec, field.name)
        if field.name in _FIELDS[spec.kind] and value is not None:
            doc[field.name] = list(value) if isinstance(value, tuple) else value
    if spec.kind in _MERGE_KINDS:
        doc["inputs"] = list(spec.inputs)
    elif spec.inputs:
        doc["input"] = spec.inputs[0]
    return doc


def serialize_network(net: NetworkSpec) -> str:
    """Serialize a NetworkSpec back to its JSON document form."""
    doc = {
        "name": net.name,
        "input": {"channels": net.in_channels, "height": net.in_height,
                  "width": net.in_width},
        "layers": [_layer_doc(spec) for spec in net.layers],
    }
    return json.dumps(doc, indent=2)


def out_extent(extent: int, kernel: int, stride: int, pad: int, where: str = "") -> int:
    """Output extent E = floor((H - R + 2 * pad) / stride) + 1 of one
    spatial dimension; ``where`` prefixes the error message."""
    out = (extent - kernel + 2 * pad) // stride + 1
    if out < 1:
        raise ShapeError(f"{where}kernel {kernel} does not fit input extent {extent} "
                         f"with stride {stride}, pad {pad}")
    return out


def resolve_shapes(net: NetworkSpec, batch: int = 1) -> ResolvedNetwork:
    """Propagate shapes through the layer list.

    Output extents follow ``out_extent`` per spatial dimension. Raises
    ShapeError when a kernel does not fit or a channel count does not divide
    by the group count.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    out_shapes: dict[str, tuple[int, int, int]] = {}
    resolved = []
    prev: tuple[str, ...] = ()
    for spec in net.layers:
        where = f"layer {spec.name!r}: "
        feed_names = spec.inputs or prev
        for nm in feed_names:
            if nm not in out_shapes:
                raise NetworkSemanticError(f"{where}input {nm!r} does not name an earlier layer")
        feeds = ([out_shapes[nm] for nm in feed_names]
                 or [(net.in_channels, net.in_height, net.in_width)])
        c, h, w = feeds[0]
        # act, add and concat preserve the spatial shape and have no kernel
        m, e, f, kernel, stride, pad, groups, bias = c, h, w, (1, 1), 1, 0, 1, False
        if spec.kind == "concat":
            if len({(fh, fw) for _, fh, fw in feeds}) != 1:
                raise ShapeError(f"{where}concat feeds disagree on spatial size")
            c = m = sum(ch for ch, _, _ in feeds)
        elif spec.kind == "add":
            if len(set(feeds)) != 1:
                raise ShapeError(f"{where}add feeds disagree on shape")
        elif spec.kind == "fc":
            m, e, f, kernel, bias = spec.out_channels, 1, 1, (h, w), spec.bias
        elif spec.kind in ("conv", "pool"):
            if spec.kind == "conv":
                m, groups, bias = spec.out_channels, spec.groups, spec.bias
                if c % groups or m % groups:
                    raise ShapeError(
                        f"{where}channels {c} -> {m} not divisible by groups {groups}")
            kernel, stride, pad = spec.kernel, spec.stride, spec.pad
            e = out_extent(h, kernel[0], stride, pad, where)
            f = out_extent(w, kernel[1], stride, pad, where)
            if spec.connections is not None and spec.connections > m * (c // groups):
                raise ShapeError(f"{where}connections {spec.connections} exceeds "
                                 f"dense wiring {m * (c // groups)}")
        resolved.append(ResolvedLayer(
            kind=spec.kind, name=spec.name, in_channels=c, in_height=h, in_width=w,
            out_channels=m, out_height=e, out_width=f, kernel=kernel, stride=stride,
            pad=pad, groups=groups, bias=bias, connections=spec.connections,
            inputs=feed_names))
        out_shapes[spec.name] = (m, e, f)
        prev = (spec.name,)
    return ResolvedNetwork(name=net.name, batch=batch, in_channels=net.in_channels,
                           in_height=net.in_height, in_width=net.in_width,
                           layers=tuple(resolved))
