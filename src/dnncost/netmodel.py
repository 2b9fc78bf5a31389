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

Every value rule lives in the ``LayerSpec`` and ``NetworkSpec`` constructors,
so a spec built in code and one parsed from JSON are held to the same rules and
raise the same ``NetworkSemanticError``. ``parse_network`` checks only the
document's shape (JSON, object and list types, known and required keys) and
maps keys to constructor arguments.

All types are immutable after construction and every function is pure, so the
module is safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import attrgetter

# per layer kind: the LayerSpec fields it reads besides kind, name and inputs
# (a spec must leave every other field at its default), and the JSON keys its
# description must give
_KINDS = {
    "conv": ({"out_channels", "kernel", "stride", "pad", "groups", "bias", "connections"},
             {"out_channels", "kernel"}),
    "fc": ({"out_channels", "bias"}, {"out_channels"}),
    "pool": ({"kernel", "stride", "pad"}, {"kernel"}),
    "act": (set(), set()),
    "concat": (set(), {"inputs"}),
    "add": (set(), {"inputs"}),
}
LAYER_KINDS = tuple(_KINDS)

# the kinds that carry weights and MACs; every other kind is zero cost
WEIGHTED_KINDS = ("conv", "fc")

# the kinds that merge two or more named feeds; every other kind reads one
_MERGE_KINDS = tuple(kind for kind, (_, required) in _KINDS.items() if "inputs" in required)

# the largest MAC count and data volume (di, dw, do) of a resolved weighted
# layer. The largest count derived from a layer is its partial-sum RF count
# 2T, and 2 * (2**62 - 1) still fits int64 (2**63 - 1).
COUNT_BUDGET = 2**62 - 1


class NetworkError(ValueError):
    """Base class for every network-description failure."""


class NetworkSyntaxError(NetworkError):
    """The document is not well-formed (bad JSON, wrong container types)."""


class NetworkSemanticError(NetworkError):
    """A well-formed document carries an invalid field; names the layer."""


class ShapeError(NetworkError):
    """Shape propagation failed (output underflow, bad channel split)."""


def _require_int(value, minimum, where, what):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise NetworkSemanticError(f"{where}{what} must be an integer >= {minimum}, got {value!r}")


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
        if not isinstance(self.name, str) or not self.name:
            raise NetworkSemanticError(f"layer name must be a non-empty string, got {self.name!r}")
        where = f"layer {self.name!r}: "
        if self.kind not in LAYER_KINDS:
            raise NetworkSemanticError(f"{where}unknown layer type {self.kind!r}")
        if not isinstance(self.kernel, tuple) or len(self.kernel) != 2:
            raise NetworkSemanticError(
                f"{where}kernel must be a (height, width) tuple, got {self.kernel!r}")
        for what, value, minimum in (
                ("kernel height", self.kernel[0], 1), ("kernel width", self.kernel[1], 1),
                ("stride", self.stride, 1), ("pad", self.pad, 0), ("groups", self.groups, 1),
                ("out_channels", self.out_channels, 1 if self.kind in WEIGHTED_KINDS else 0)):
            _require_int(value, minimum, where, what)
        if self.connections is not None:
            _require_int(self.connections, 1, where, "connections")
        if not isinstance(self.bias, bool):
            raise NetworkSemanticError(f"{where}bias must be a boolean, got {self.bias!r}")
        if not isinstance(self.inputs, tuple):
            raise NetworkSemanticError(f"{where}inputs must list layer names, got {self.inputs!r}")
        for feed in self.inputs:
            if not isinstance(feed, str):
                raise NetworkSemanticError(f"{where}input {feed!r} does not name a layer")
        if self.kind in _MERGE_KINDS and len(self.inputs) < 2:
            raise NetworkSemanticError(f"{where}inputs must list at least two layers")
        if self.kind not in _MERGE_KINDS and len(self.inputs) > 1:
            raise NetworkSemanticError(
                f"{where}{self.kind} layers take one input, got {len(self.inputs)}")
        for field, default in _UNUSED_FIELDS[self.kind]:
            if getattr(self, field) != default:
                raise NetworkSemanticError(f"{where}{field} does not apply to {self.kind} layers")


# per kind, the (field, default) pairs of the LayerSpec fields it does not read
_UNUSED_FIELDS = {kind: tuple((f.name, f.default) for f in fields(LayerSpec)
                              if f.name not in used and f.name not in ("kind", "name", "inputs"))
                  for kind, (used, _) in _KINDS.items()}


@dataclass(frozen=True)
class NetworkSpec:
    """A parsed network description."""

    name: str
    in_channels: int
    in_height: int
    in_width: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise NetworkSemanticError(
                f"network name must be a non-empty string, got {self.name!r}")
        for what, value in (("channels", self.in_channels), ("height", self.in_height),
                            ("width", self.in_width)):
            _require_int(value, 1, "input ", what)
        if not isinstance(self.layers, tuple) or not self.layers:
            raise NetworkSemanticError(
                f"network {self.name!r}: layers must be a non-empty tuple of LayerSpec")
        seen: set[str] = set()
        for spec in self.layers:
            if not isinstance(spec, LayerSpec):
                raise NetworkSemanticError(
                    f"network {self.name!r}: layers must be LayerSpec objects, got {spec!r}")
            if spec.name in seen:
                raise NetworkSemanticError(f"layer {spec.name!r}: duplicate layer name")
            for feed in spec.inputs:
                if feed not in seen:
                    raise NetworkSemanticError(
                        f"layer {spec.name!r}: input {feed!r} does not name an earlier layer")
            seen.add(spec.name)


@dataclass(frozen=True)
class LayerStats:
    """Counts for a single layer at the batch size it was resolved with.

    ``weights`` counts stored words, biases included. di, dw, do are the
    data-movement volumes in words: the input feature map, the weights
    without biases (added once per output, not streamed per MAC), and the
    output feature map.
    """

    name: str
    kind: str
    weights: int
    macs: int
    di: int
    dw: int
    do: int


@dataclass(frozen=True)
class ResolvedLayer:
    """A layer with its input and output shapes pinned down.

    For fc layers the kernel is set to the full input extent (R = H, S = W)
    and the output is 1 x 1, so downstream arithmetic treats conv and fc
    uniformly. Pool/act/concat/add keep kernel fields only where meaningful.
    ``batch`` is the number of input images N the layer processes, and
    ``stats`` its counts at that batch: the constructor derives them, so a
    layer built by hand or by ``dataclasses.replace`` is counted too.

    A weighted layer built by ``resolve_shapes`` has its MACs and its di, dw
    and do volumes within ``COUNT_BUDGET``. A layer built by hand is not
    checked: it is counted exactly, as unbounded Python ints.
    """

    kind: str
    name: str
    batch: int
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
    stats: LayerStats = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        batch = self.batch
        weights = macs = dw = 0
        if self.kind in WEIGHTED_KINDS:
            # wired (filter, input-channel) pairs; only conv reads connections
            pairs = (self.connections if self.kind == "conv" and self.connections is not None
                     else self.out_channels * (self.in_channels // self.groups))
            dw = pairs * self.kernel[0] * self.kernel[1]
            weights = dw + (self.out_channels if self.bias else 0)
            macs = batch * dw * self.out_height * self.out_width
        object.__setattr__(self, "stats", LayerStats(
            name=self.name, kind=self.kind, weights=weights, macs=macs, dw=dw,
            di=batch * self.in_channels * self.in_height * self.in_width,
            do=batch * self.out_channels * self.out_height * self.out_width))


# A layer's shape: every init field but its name and its feeds. Two layers
# with equal keys have equal counts and prices under any dataflow.
shape_key = attrgetter(*(f.name for f in fields(ResolvedLayer)
                         if f.init and f.name not in ("name", "inputs")))


@dataclass(frozen=True)
class ResolvedNetwork:
    """A network resolved at one batch size; ``layers[0]`` reads its input."""

    name: str
    batch: int
    layers: tuple[ResolvedLayer, ...]


# the JSON keys a layer description of each kind may give
_ALLOWED = {kind: used | {"type", "name", "inputs" if kind in _MERGE_KINDS else "input"}
            for kind, (used, _) in _KINDS.items()}


def _tuple(value):
    """A JSON list as the tuple a LayerSpec holds; any other value as it
    stands, for LayerSpec to judge."""
    return tuple(value) if isinstance(value, list) else value


def _parse_layer(doc, index):
    if not isinstance(doc, dict):
        raise NetworkSyntaxError(f"layer {index}: expected an object, got {type(doc).__name__}")
    where = f"layer {index} ({doc.get('name')!r})"
    # LayerSpec reads None as "absent", so a null must not reach it
    if None in doc.values():
        nulls = sorted(key for key, value in doc.items() if value is None)
        raise NetworkSemanticError(f"{where}: null values for {nulls}")
    kind = doc.get("type")
    # the type picks the key set; LayerSpec rejects a type it does not know
    if kind in LAYER_KINDS:
        unknown = doc.keys() - _ALLOWED[kind]
        if unknown:
            raise NetworkSemanticError(f"{where}: unknown keys {sorted(unknown)}")
        missing = _KINDS[kind][1] - doc.keys()
        if missing:
            raise NetworkSemanticError(f"{where}: missing required keys {sorted(missing)}")
    # conv reads every field but kind, name and inputs; the LayerSpec
    # defaults stand in for the absent ones
    args = {key: doc[key] for key in _KINDS["conv"][0] & doc.keys()}
    if "kernel" in args:
        args["kernel"] = _tuple(args["kernel"])
    feeds = doc["inputs"] if "inputs" in doc else [doc["input"]] if "input" in doc else []
    return LayerSpec(kind=kind, name=doc.get("name"), inputs=_tuple(feeds), **args)


def parse_network(text: str) -> NetworkSpec:
    """Parse a JSON network description into a NetworkSpec."""
    try:
        doc = json.loads(text)
    # json raises ValueError past 4,300 digits, RecursionError on deep nesting
    except (ValueError, RecursionError) as exc:
        raise NetworkSyntaxError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkSyntaxError("top level must be an object")
    unknown = set(doc) - {"name", "input", "layers"}
    if unknown:
        raise NetworkSemanticError(f"unknown top-level keys {sorted(unknown)}")
    shape = doc.get("input")
    if not isinstance(shape, dict) or set(shape) != {"channels", "height", "width"}:
        raise NetworkSemanticError("input must be an object with channels, height, width")
    layers = doc.get("layers")
    if not isinstance(layers, list):
        raise NetworkSemanticError("layers must be a list")
    return NetworkSpec(name=doc.get("name"), in_channels=shape["channels"],
                       in_height=shape["height"], in_width=shape["width"],
                       layers=tuple(_parse_layer(raw, index) for index, raw in enumerate(layers)))


def _layer_doc(spec: LayerSpec) -> dict:
    doc: dict = {"type": spec.kind, "name": spec.name}
    for field in fields(LayerSpec):
        value = getattr(spec, field.name)
        if field.name in _KINDS[spec.kind][0] and value is not None:
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
    """Propagate shapes through the layer list at batch size ``batch``.

    This is the one place a batch size enters the model: every resolved
    layer records it. Output extents follow ``out_extent`` per spatial
    dimension. Raises NetworkSemanticError (a ValueError) when the batch is
    not an integer >= 1 or when a weighted layer's MACs, di, dw or do at
    that batch exceed ``COUNT_BUDGET``, and ShapeError when a kernel does
    not fit or a channel count does not divide by the group count.
    """
    _require_int(batch, 1, "", "batch")
    out_shapes: dict[str, tuple[int, int, int]] = {}
    resolved = []
    prev: tuple[str, ...] = ()
    for spec in net.layers:
        where = f"layer {spec.name!r}: "
        feed_names = spec.inputs or prev
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
        elif spec.kind in ("conv", "fc", "pool"):
            if spec.kind in WEIGHTED_KINDS:
                m, groups, bias = spec.out_channels, spec.groups, spec.bias
                if c % groups or m % groups:
                    raise ShapeError(
                        f"{where}channels {c} -> {m} not divisible by groups {groups}")
            # LayerSpec pins an fc's stride, pad and groups to 1, 0, 1: output 1 x 1
            kernel = (h, w) if spec.kind == "fc" else spec.kernel
            stride, pad = spec.stride, spec.pad
            e = out_extent(h, kernel[0], stride, pad, where)
            f = out_extent(w, kernel[1], stride, pad, where)
            if spec.connections is not None and spec.connections > m * (c // groups):
                raise ShapeError(f"{where}connections {spec.connections} exceeds "
                                 f"dense wiring {m * (c // groups)}")
        layer = ResolvedLayer(
            kind=spec.kind, name=spec.name, batch=batch, in_channels=c, in_height=h,
            in_width=w, out_channels=m, out_height=e, out_width=f, kernel=kernel,
            stride=stride, pad=pad, groups=groups, bias=bias, connections=spec.connections,
            inputs=feed_names)
        if spec.kind in WEIGHTED_KINDS:
            # the count is not printed: it may pass Python's 4,300-digit int-to-str limit
            for what in ("macs", "di", "dw", "do"):
                if getattr(layer.stats, what) > COUNT_BUDGET:
                    raise NetworkSemanticError(
                        f"{where}{what} exceeds the count budget {COUNT_BUDGET}")
        resolved.append(layer)
        out_shapes[spec.name] = (m, e, f)
        prev = (spec.name,)
    return ResolvedNetwork(name=net.name, batch=batch, layers=tuple(resolved))
