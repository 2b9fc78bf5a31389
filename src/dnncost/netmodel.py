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
module is safe for concurrent use. It is also the package's numpy-free base:
every module that needs its value checks, the CLI's closed name sets, the codec
widths or the count-only prune rules imports it anyway, and it loads no numpy.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter

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


# the numpy-free base, kept here because each module that needs it imports netmodel
class DataflowKind(str, Enum):
    WS = "ws"
    OS = "os"
    NLR = "nlr"
    RS = "rs"


# the transforms stats.mult_count counts, each with the sizes it reads
_CONV_SIZES = ("out_size", "filter_size")
MULT_SIZES = {"direct": _CONV_SIZES, "im2col": _CONV_SIZES, "fft": _CONV_SIZES,
              "winograd": _CONV_SIZES, "strassen": ("matrix_size",)}
MULT_METHODS = tuple(MULT_SIZES)

# optkit's codec: a RUN_BITS zero-run length (0..MAX_RUN), then a VALUE_BITS literal
RUN_BITS = 5
VALUE_BITS = 16
PAIR_BITS = RUN_BITS + VALUE_BITS
MAX_RUN = (1 << RUN_BITS) - 1
MAX_VALUE = (1 << VALUE_BITS) - 1


def _shown(value) -> str:
    """A rejected value as an error shows it: repr, or an int's size past the int-to-str limit."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits() digits
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _require_int(value, low, where, what, error=NetworkSemanticError, high=None):
    """Raise ``error`` unless ``value`` is an int, not a bool, in [low, high]."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{where}{what} must be an integer {bound}, got {_shown(value)}")


def _json_object(text: str, error: type[ValueError]) -> dict:
    """The JSON object ``text`` holds, or ``error``."""
    try:
        doc = json.loads(text)
    # json raises ValueError past 4,300 digits, RecursionError on deep nesting
    except (ValueError, RecursionError) as exc:
        raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("top level must be an object")
    return doc


def _budget(fraction: float, n: int) -> int:
    """The floor(fraction * n) weights a prune of n weights drops."""
    if (not isinstance(fraction, (int, float)) or isinstance(fraction, bool)
            or not 0 <= fraction <= 1):
        raise ValueError(f"fraction must be in [0, 1], got {_shown(fraction)}")
    return int(fraction * n)


def _drain(sizes: dict[str, int], budget: int, order: dict[str, float]) -> dict[str, int]:
    """Weights each layer loses when layers are drained greedily in descending
    ``order`` key, the name breaking ties, until ``budget`` is spent; in that
    drain order."""
    missing = set(sizes) - set(order)
    if missing:
        raise ValueError(f"order lacks keys for layers {sorted(missing)}")
    for name in sizes:  # a NaN key would leave the drain order undefined
        key = order[name]
        if not isinstance(key, (int, float)) or isinstance(key, bool) or key != key:
            raise ValueError(f"layer {name!r}: order must be a number, not NaN, got {_shown(key)}")
    lost = {}
    for name in sorted(sizes, key=lambda nm: (-order[nm], nm)):
        lost[name] = min(budget, sizes[name])
        budget -= lost[name]
    return lost


class _Record:
    """A named tuple whose ``__new__`` checks its values: ``_make``, and so
    ``_replace``, build through that ``__new__`` too. Like every named tuple it
    equals a plain tuple of the same values, so a function that must not take
    one for the record checks the type. Nothing can be set on it or deleted
    from it. A subclass that declares no ``__slots__`` keeps the values its
    ``__new__`` derives in the instance dict, out of the fields, so out of
    ``==``, hash and ``repr``.

    The fields come from the last base, a ``collections.namedtuple``, as for
    every named tuple of the package: a ``typing.NamedTuple`` class compiles
    each field's annotation at import, which a cold command pays.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # inspect.signature and help() show the fields, not (*args, **kwargs)
        cls.__new__.__wrapped__ = cls.__bases__[-1].__new__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


class LayerSpec(_Record, namedtuple(
        "LayerSpec", "kind name out_channels kernel stride pad groups bias connections inputs",
        defaults=(0, (1, 1), 1, 0, 1, True, None, ()))):
    """One layer as declared, before shape resolution.

    ``kernel`` is a (height, width) tuple, ``bias`` a bool and the counts
    ints. ``connections`` overrides the number of wired (filter,
    input-channel) pairs of a conv layer; ``None`` means dense wiring,
    M * C / groups pairs.
    ``inputs`` holds explicit feed names, two or more for a merge and at
    most one otherwise; empty means "previous layer".
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


# per kind, the (field, default) pairs of the LayerSpec fields it does not read
_UNUSED_FIELDS = {kind: tuple((name, default) for name, default in LayerSpec._field_defaults.items()
                              if name not in used and name != "inputs")
                  for kind, (used, _) in _KINDS.items()}


class NetworkSpec(_Record, namedtuple(
        "NetworkSpec", "name in_channels in_height in_width layers")):
    """A parsed network description: its input shape and a tuple of LayerSpecs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.name, str) or not self.name:
            raise NetworkSemanticError(
                f"network name must be a non-empty string, got {self.name!r}")
        for what in ("channels", "height", "width"):
            _require_int(getattr(self, f"in_{what}"), 1, "input ", what)
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
        return self


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


class ResolvedLayer(_Record, namedtuple(
        "ResolvedLayer", "kind name batch in_channels in_height in_width out_channels "
        "out_height out_width kernel stride pad groups bias connections inputs")):
    """A layer with its input and output shapes pinned down.

    For fc layers the kernel is set to the full input extent (R = H, S = W)
    and the output is 1 x 1, so downstream arithmetic treats conv and fc
    uniformly. Pool/act/concat/add keep kernel fields only where meaningful.
    ``batch`` is the number of input images N the layer processes, and
    ``stats`` its counts at that batch: not a field, but derived by the
    constructor, so a layer built by hand, by ``_replace`` or by ``_make`` is
    counted too.

    A weighted layer built by ``resolve_shapes`` has its MACs and its di, dw
    and do volumes within ``COUNT_BUDGET``. A layer built by hand is not
    checked: it is counted exactly, as unbounded Python ints.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        batch = self.batch
        weights = macs = dw = 0
        if self.kind in WEIGHTED_KINDS:
            # wired (filter, input-channel) pairs; only conv reads connections
            pairs = (self.connections if self.kind == "conv" and self.connections is not None
                     else self.out_channels * (self.in_channels // self.groups))
            dw = pairs * self.kernel[0] * self.kernel[1]
            weights = dw + (self.out_channels if self.bias else 0)
            macs = batch * dw * self.out_height * self.out_width
        self.__dict__["stats"] = LayerStats(
            name=self.name, kind=self.kind, weights=weights, macs=macs, dw=dw,
            di=batch * self.in_channels * self.in_height * self.in_width,
            do=batch * self.out_channels * self.out_height * self.out_width)
        return self


# A layer's shape: every field but its name and its feeds. Two layers with
# equal keys have equal counts and prices under any dataflow.
shape_key = itemgetter(*(i for i, name in enumerate(ResolvedLayer._fields)
                         if name not in ("name", "inputs")))


class ResolvedNetwork(_Record, namedtuple("ResolvedNetwork", "name batch layers")):
    """A network resolved at one batch size; ``layers[0]`` reads its input.

    ``weighted`` pairs each conv and fc layer, in order, with the index among
    them of the first layer of its shape (``shape_key``). The constructor
    derives it, as ``ResolvedLayer``'s derives ``stats``.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        firsts: dict[tuple, int] = {}
        weighted = [layer for layer in self.layers if layer.kind in WEIGHTED_KINDS]
        self.__dict__["weighted"] = tuple(
            (layer, firsts.setdefault(shape_key(layer), i)) for i, layer in enumerate(weighted))
        return self


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
    doc = _json_object(text, NetworkSyntaxError)
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
    for field, value in zip(spec._fields, spec):
        if field in _KINDS[spec.kind][0] and value is not None:
            doc[field] = list(value) if isinstance(value, tuple) else value
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

    The result is shared and immutable: it is kept per ``(net, batch)``, the
    spec compared by value, for the life of the process, so a sweep that
    prices one network on many designs resolves each network and batch
    once. An error is never kept; a failing spec raises on every call.
    Raises TypeError when ``net`` is not a NetworkSpec: a plain tuple equal
    to a kept spec must not get that spec's resolution.
    """
    if not isinstance(net, NetworkSpec):
        raise TypeError(f"resolve_shapes takes a NetworkSpec, got {type(net).__name__}")
    _require_int(batch, 1, "", "batch")
    return _resolve(net, batch)


# the most (spec, batch) resolutions kept: a design-space sweep over the five
# built-ins at three batch sizes needs 15
_RESOLVED_KEPT = 32


@lru_cache(maxsize=_RESOLVED_KEPT)
def _resolve(net: NetworkSpec, batch: int) -> ResolvedNetwork:
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
