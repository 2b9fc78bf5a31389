"""Network description parsing, validation, and shape resolution."""

import hashlib
import json
import re
import sys
from enum import IntEnum

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dnncost as dc
from dnncost import zoo
from dnncost.cli import main
from dnncost.energy import layer_energy
from dnncost.netmodel import (COUNT_BUDGET, LAYER_KINDS, NetworkError,
                              NetworkSemanticError, NetworkSyntaxError, ResolvedLayer,
                              ShapeError, shape_key)
from dnncost.stats import MAX_COUNT_SIZE
from oracles import SCALARS, make_conv, mostly


def doc(layers, channels=1, height=8, width=8, name="net"):
    return json.dumps({
        "name": name,
        "input": {"channels": channels, "height": height, "width": width},
        "layers": layers,
    })


def conv(name="c1", **overrides):
    base = {"type": "conv", "name": name, "out_channels": 2,
            "kernel": [3, 3], "stride": 1, "pad": 1}
    base.update(overrides)
    return base


class TestParse:
    def test_minimal_single_conv(self):
        net = dc.parse_network(doc([conv(out_channels=1, kernel=[1, 1], pad=0)]))
        assert len(net.layers) == 1
        assert net.layers[0].kind == "conv"
        assert net.layers[0].out_channels == 1

    def test_not_json(self):
        with pytest.raises(NetworkSyntaxError):
            dc.parse_network("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(NetworkSyntaxError):
            dc.parse_network("[1, 2]")

    def test_unknown_top_level_key(self):
        bad = json.loads(doc([conv()]))
        bad["framework"] = "x"
        with pytest.raises(NetworkSemanticError, match="framework"):
            dc.parse_network(json.dumps(bad))

    def test_unknown_layer_key_rejected(self):
        with pytest.raises(NetworkSemanticError, match="kernel_size"):
            dc.parse_network(doc([conv(kernel_size=3)]))

    def test_missing_required_key(self):
        layer = conv()
        del layer["out_channels"]
        with pytest.raises(NetworkSemanticError, match="out_channels"):
            dc.parse_network(doc([layer]))

    def test_unknown_layer_type(self):
        with pytest.raises(NetworkSemanticError, match="unknown layer type"):
            dc.parse_network(doc([{"type": "dropout", "name": "d"}]))

    def test_stride_zero_names_offending_layer(self):
        with pytest.raises(NetworkSemanticError, match="c1"):
            dc.parse_network(doc([conv(stride=0)]))

    def test_negative_dimension(self):
        with pytest.raises(NetworkSemanticError):
            dc.parse_network(doc([conv(out_channels=-3)]))

    def test_duplicate_layer_name(self):
        with pytest.raises(NetworkSemanticError, match="duplicate"):
            dc.parse_network(doc([conv("same"), conv("same")]))

    def test_input_must_name_earlier_layer(self):
        with pytest.raises(NetworkSemanticError, match="later"):
            dc.parse_network(doc([conv("a", input="later"), conv("later")]))

    @pytest.mark.parametrize("bad", [
        conv("b", input=[]),
        conv("b", input={}),
        conv("b", input=["a"]),
        {"type": "concat", "name": "b", "inputs": ["a", ["a"]]},
        {"type": "add", "name": "b", "inputs": [{}, "a"]},
    ])
    def test_non_string_feed_names_the_layer(self, bad, tmp_path):
        text = doc([conv("a"), bad])
        with pytest.raises(NetworkSemanticError, match="'b'.*does not name"):
            dc.parse_network(text)
        path = tmp_path / "net.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["stats", "--net", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: layer 'b': input ")

    def test_concat_needs_two_feeds(self):
        layers = [conv("a"), {"type": "concat", "name": "m", "inputs": ["a"]}]
        with pytest.raises(NetworkSemanticError, match="at least two"):
            dc.parse_network(doc(layers))

    def test_empty_layer_list(self):
        with pytest.raises(NetworkSemanticError):
            dc.parse_network(doc([]))

    @pytest.mark.parametrize("layer, kind", [(["conv"], "list"), ("conv", "str"), (3, "int")])
    def test_layer_must_be_an_object(self, layer, kind):
        with pytest.raises(NetworkSyntaxError,
                           match=f"^layer 1: expected an object, got {kind}$"):
            dc.parse_network(doc([conv("a"), layer]))

    @pytest.mark.parametrize("key", ["connections", "stride", "bias", "kernel", "input", "name"])
    def test_null_value_rejected(self, key):
        # a null connections would otherwise read as dense wiring
        with pytest.raises(NetworkSemanticError, match="null"):
            dc.parse_network(doc([conv(**{key: None})]))

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(NetworkSyntaxError, match="not valid JSON"):
            dc.parse_network("[" * 100_000)


# sha256 of each built-in document, so that its bytes stay fixed whatever code writes them
BUILTIN_SHA256 = {
    "lenet5": "78ab1256bcebabab381e2e1d9fbb1d0f8699ed5d3c6b4e8db81fd3170104e04d",
    "alexnet": "974114af9d4fe405cc81c03f1bc08b41b4e4bc19c8a04851e4e1e9d7bbf52d93",
    "vgg16": "9a0f4c5342a6d59f0f907528cdf925ec4951ecb8422b217e23b272046804518e",
    "googlenet": "535d75acebe8ceffbf887e7a06c55e76efd9b958b62c4cdc0848bf589c982f58",
    "resnet50": "8a28d65151452222b2dd9c5a7644a61bc640f8af5f3e21d56359882347ead302",
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builtin_round_trips(self, name):
        spec = dc.builtin(name)
        assert dc.parse_network(dc.serialize_network(spec)) == spec

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builtin_document_bytes_are_pinned(self, name):
        text = dc.builtin_document(name)
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SHA256[name]

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builder_spec_is_the_parsed_builtin(self, name):
        assert zoo._BUILDERS[name]() == dc.builtin(name)

    def test_custom_round_trips(self):
        text = doc([conv("a", groups=1, bias=False),
                    {"type": "pool", "name": "p", "kernel": [2, 2], "stride": 2},
                    {"type": "fc", "name": "f", "out_channels": 10}])
        spec = dc.parse_network(text)
        assert dc.parse_network(dc.serialize_network(spec)) == spec


class TestResolve:
    def test_output_extent_with_stride(self):
        net = dc.parse_network(doc(
            [conv(out_channels=96, kernel=[11, 11], stride=4, pad=0)],
            channels=3, height=227, width=227))
        layer = dc.resolve_shapes(net).layers[0]
        assert (layer.out_height, layer.out_width) == (55, 55)

    def test_size_preserving_padding(self):
        net = dc.parse_network(doc([conv(pad=1)], height=224, width=224))
        layer = dc.resolve_shapes(net).layers[0]
        assert (layer.out_height, layer.out_width) == (224, 224)

    def test_kernel_does_not_fit(self):
        net = dc.parse_network(doc([conv(pad=0)], height=2, width=2))
        with pytest.raises(ShapeError, match="c1"):
            dc.resolve_shapes(net)

    def test_group_divisibility(self):
        net = dc.parse_network(doc([conv(groups=2)], channels=3))
        with pytest.raises(ShapeError, match="groups"):
            dc.resolve_shapes(net)

    def test_connections_bounded_by_dense_wiring(self):
        net = dc.parse_network(doc([conv(connections=99)], channels=2))
        with pytest.raises(ShapeError, match="connections"):
            dc.resolve_shapes(net)

    @pytest.mark.parametrize("feeds, net_input, fc_input, bias", [
        ([], (3, 7, 5), (3, 7, 5), True),
        ([conv("a", out_channels=4, stride=2)], (1, 8, 8), (4, 4, 4), True),
        ([{"type": "pool", "name": "a", "kernel": [2, 2], "stride": 2}], (2, 8, 6), (2, 4, 3),
         True),
        ([conv("a", out_channels=3), conv("b", input="a", out_channels=5),
          {"type": "concat", "name": "m", "inputs": ["a", "b"]}], (1, 8, 8), (8, 8, 8), True),
        ([conv("a", out_channels=3), conv("b", input="a", out_channels=3),
          {"type": "add", "name": "m", "inputs": ["a", "b"]}], (1, 8, 8), (3, 8, 8), True),
        ([], (3, 1, 1), (3, 1, 1), True),
        ([], (3, 7, 5), (3, 7, 5), False),
    ], ids=["input", "conv", "pool", "concat", "add", "1x1", "no-bias"])
    def test_fc_takes_full_input_extent(self, feeds, net_input, fc_input, bias):
        fc = {"type": "fc", "name": "f", "out_channels": 10, "bias": bias}
        net = dc.resolve_shapes(dc.parse_network(doc([*feeds, fc], *net_input)), batch=2)
        c, h, w = fc_input
        want = ResolvedLayer(kind="fc", name="f", batch=2, in_channels=c, in_height=h,
                             in_width=w, out_channels=10, out_height=1, out_width=1,
                             kernel=(h, w), stride=1, pad=0, groups=1, bias=bias,
                             connections=None, inputs=(feeds[-1]["name"],) if feeds else ())
        assert net.layers[-1] == want
        assert net.layers[-1].stats == want.stats

    def test_concat_sums_channels(self):
        layers = [conv("a", out_channels=3), conv("b", input="a", out_channels=5),
                  {"type": "concat", "name": "m", "inputs": ["a", "b"]}]
        net = dc.resolve_shapes(dc.parse_network(doc(layers)))
        assert net.layers[-1].out_channels == 8

    def test_add_requires_matching_shapes(self):
        layers = [conv("a", out_channels=3), conv("b", input="a", out_channels=5),
                  {"type": "add", "name": "m", "inputs": ["a", "b"]}]
        with pytest.raises(ShapeError, match="disagree"):
            dc.resolve_shapes(dc.parse_network(doc(layers)))

    def test_concat_requires_matching_spatial_size(self):
        # b's unpadded 3x3 window makes 6x6 of a's 8x8
        layers = [conv("a"), conv("b", input="a", pad=0),
                  {"type": "concat", "name": "m", "inputs": ["a", "b"]}]
        with pytest.raises(ShapeError,
                           match="^layer 'm': concat feeds disagree on spatial size$"):
            dc.resolve_shapes(dc.parse_network(doc(layers)))

    def test_code_built_spec_holds_only_layer_specs(self):
        layer = dc.LayerSpec("act", "a")
        with pytest.raises(NetworkSemanticError,
                           match="^network 'n': layers must be LayerSpec objects, got 'b'$"):
            dc.NetworkSpec("n", 1, 8, 8, (layer, "b"))

    def test_unknown_feed_in_code_built_spec(self):
        with pytest.raises(NetworkSemanticError, match="'a'.*input 'zz' does not name"):
            dc.NetworkSpec("n", 1, 8, 8, (
                dc.LayerSpec("conv", "a", out_channels=1, kernel=(3, 3), inputs=("zz",)),))

    def test_batch_must_be_positive(self):
        net = dc.parse_network(doc([conv()]))
        for batch in (0, -5):
            with pytest.raises(ValueError, match=f"batch must be an integer >= 1, got {batch}$"):
                dc.resolve_shapes(net, batch=batch)

    @pytest.mark.parametrize("batch", [2.5, True, "2"])
    def test_batch_must_be_an_integer(self, batch):
        net = dc.parse_network(doc([conv()]))
        with pytest.raises(ValueError, match=re.escape(
                f"batch must be an integer >= 1, got {batch!r}")):
            dc.resolve_shapes(net, batch=batch)

    def test_batch_recorded(self):
        net = dc.resolve_shapes(dc.parse_network(doc([conv(), conv("b")])), batch=7)
        assert net.batch == 7
        assert [layer.batch for layer in net.layers] == [7, 7]


class TestResolveMemo:
    """A resolution is kept per (spec, batch) for the process and shared."""

    def test_a_repeat_call_returns_the_same_object(self):
        net = dc.parse_network(doc([conv(), conv("b")]))
        assert dc.resolve_shapes(net, batch=3) is dc.resolve_shapes(net, batch=3)
        assert dc.resolve_shapes(net) is dc.resolve_shapes(net, batch=1)

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_an_equal_spec_gets_what_a_fresh_resolution_gives(self, name):
        kept = dc.builtin(name)
        twin = dc.parse_network(dc.builtin_document(name))
        assert twin == kept and twin is not kept
        for batch in (1, 2, 4):
            shared = dc.resolve_shapes(kept, batch=batch)
            assert dc.resolve_shapes(twin, batch=batch) is shared
            fresh = dc.netmodel._resolve.__wrapped__(twin, batch)
            assert shared == fresh
            assert [layer.stats for layer in shared.layers] == \
                [layer.stats for layer in fresh.layers]

    @pytest.mark.parametrize("batch", [0, True, 1.0, "1", [1], None],
                             ids=["zero", "true", "float", "str", "list", "none"])
    def test_a_bad_batch_is_checked_before_the_lookup(self, batch):
        net = dc.parse_network(doc([conv()]))
        dc.resolve_shapes(net)  # kept at batch 1, which 1.0 and True equal
        for _ in range(2):
            with pytest.raises(NetworkSemanticError, match="^" + re.escape(
                    f"batch must be an integer >= 1, got {batch!r}") + "$"):
                dc.resolve_shapes(net, batch=batch)

    @pytest.mark.parametrize("value", ["abc", None, "plain tuple"],
                             ids=["str", "none", "plain-tuple"])
    def test_only_a_network_spec_is_looked_up(self, value):
        net = dc.parse_network(doc([conv()]))
        dc.resolve_shapes(net)  # kept, and equal to the plain tuple of its fields
        if value == "plain tuple":
            value = tuple(net)
            assert value == net and hash(value) == hash(net)
        with pytest.raises(TypeError, match="^resolve_shapes takes a NetworkSpec, got "
                                            f"{type(value).__name__}$"):
            dc.resolve_shapes(value)

    @pytest.mark.parametrize("net, error", [
        (dc.parse_network(doc([conv(pad=0)], height=2, width=2)), ShapeError),
        (dc.NetworkSpec("n", 1, 1, 1, (dc.LayerSpec("fc", "x", out_channels=COUNT_BUDGET + 1),)),
         NetworkSemanticError),
    ], ids=["shape", "budget"])
    def test_an_error_is_never_kept(self, net, error):
        kept = dc.netmodel._resolve.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                dc.resolve_shapes(net)
        assert dc.netmodel._resolve.cache_info().currsize == kept

    def test_the_oldest_resolution_is_evicted_past_maxsize(self):
        maxsize = dc.netmodel._resolve.cache_info().maxsize
        net = dc.parse_network(doc([conv()]))
        first = dc.resolve_shapes(net, batch=1)
        for batch in range(2, maxsize + 2):
            dc.resolve_shapes(net, batch=batch)
        assert dc.netmodel._resolve.cache_info().currsize == maxsize
        again = dc.resolve_shapes(net, batch=1)
        assert again is not first and again == first

    def test_a_sweep_builds_each_network_once_per_batch(self, monkeypatch):
        built = []

        def recorder(**kwargs):
            built.append((kwargs["name"], kwargs["batch"]))
            return ResolvedLayer(**kwargs)

        monkeypatch.setattr(dc.netmodel, "ResolvedLayer", recorder)
        dc.netmodel._resolve.cache_clear()
        seen = {}
        for point in range(50):  # one design point, priced on every built-in
            batch = (1, 2, 4)[point % 3]
            for name in dc.BUILTIN_NAMES:
                seen[name, batch] = dc.resolve_shapes(dc.builtin(name), batch=batch)
        assert len(seen) == 15
        assert sorted(built) == sorted((layer.name, batch) for (_, batch), net in seen.items()
                                       for layer in net.layers)


def other_value(value):
    """A different value of the same type as a ``ResolvedLayer`` field's."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    return {"conv": "fc", None: 2}[value]


class TestShapeKey:
    # two 2-channel 3x3 convs, the second fed by the first
    A, B = dc.resolve_shapes(dc.parse_network(doc([conv("a"), conv("b")], channels=2))).layers

    def test_name_and_inputs_are_not_part_of_the_shape(self):
        a, b = self.A, self.B
        assert (a.name, a.inputs) != (b.name, b.inputs)
        assert a._replace(name=b.name, inputs=b.inputs) == b
        assert shape_key(a) == shape_key(b)

    def test_every_other_field_is(self):
        shaped = [name for name in ResolvedLayer._fields if name not in ("name", "inputs")]
        for name in shaped:
            changed = self.A._replace(**{name: other_value(getattr(self.A, name))})
            assert shape_key(changed) != shape_key(self.A), name


def regrouped(layers):
    """Each conv and fc layer of ``layers`` with the index among them of the
    first one of its shape, regrouped from scratch."""
    weighted = [layer for layer in layers if layer.kind in ("conv", "fc")]
    keys = [shape_key(layer) for layer in weighted]
    return tuple((layer, keys.index(key)) for layer, key in zip(weighted, keys))


class TestWeightedGrouping:
    """``ResolvedNetwork.weighted`` is derived from ``layers`` by the
    constructor, however the network was built."""

    @staticmethod
    def assert_grouped(net):
        assert net.weighted == regrouped(net.layers)
        # the very layer objects, not equal copies
        assert all(a is b for (a, _), (b, _) in zip(net.weighted, regrouped(net.layers)))

    @pytest.mark.parametrize("batch", [1, 2, 4])
    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builtins(self, name, batch):
        net = dc.resolve_shapes(dc.builtin(name), batch=batch)
        self.assert_grouped(net)
        if name == "resnet50":
            assert len({first for _, first in net.weighted}) == 21

    def test_a_network_built_by_hand(self):
        a = make_conv(2, 8, 8, 2, 3, 3, pad=1, name="a")
        b = make_conv(2, 8, 8, 4, 3, 3, pad=1, name="b")
        c = a._replace(name="c")
        pool = a._replace(kind="pool", name="p")
        fc = b._replace(kind="fc", name="f")
        net = dc.ResolvedNetwork("hand", 1, (a, pool, b, c, fc, a))
        self.assert_grouped(net)
        assert [(layer.name, first) for layer, first in net.weighted] == [
            ("a", 0), ("b", 1), ("c", 0), ("f", 3), ("a", 0)]
        assert dc.ResolvedNetwork("none", 1, ()).weighted == ()
        assert dc.ResolvedNetwork("pools", 1, (pool,)).weighted == ()

    @pytest.mark.parametrize("name", ["lenet5", "resnet50"])
    def test_replace_regroups(self, name):
        net = dc.resolve_shapes(dc.builtin(name), batch=2)
        for layers in (net.layers[::-1], net.layers[: len(net.layers) // 2], ()):
            changed = net._replace(layers=layers)
            self.assert_grouped(changed)
        assert net._replace(name="other").weighted == net.weighted

    def test_not_part_of_equality_or_repr(self):
        net = dc.resolve_shapes(dc.builtin("lenet5"))
        assert "weighted" not in repr(net)
        assert net == dc.ResolvedNetwork(net.name, net.batch, net.layers)
        with pytest.raises(TypeError):
            dc.ResolvedNetwork(net.name, net.batch, net.layers, net.weighted)


def one_layer(layer, channels=1, height=1, width=1):
    return dc.NetworkSpec("n", channels, height, width, (layer,))


class TestCountBudget:
    def test_layer_at_the_budget_resolves(self):
        # fc on a 1x1x1 input: macs, dw and do all equal out_channels
        layer = dc.resolve_shapes(one_layer(
            dc.LayerSpec("fc", "f", out_channels=COUNT_BUDGET))).layers[0]
        st = dc.layer_stats(layer)
        assert st.macs == st.dw == st.do == COUNT_BUDGET
        for kind in dc.DataflowKind:
            counts = dc.layer_access_counts(kind, layer, dc.default_arch())
            assert max(max(row.values()) for row in counts.acc.values()) <= 2**63 - 1

    @pytest.mark.parametrize("what,net", [
        ("macs", one_layer(dc.LayerSpec("fc", "x", out_channels=COUNT_BUDGET + 1))),
        # a stride as wide as the input reads every input word for one output
        ("di", one_layer(dc.LayerSpec("conv", "x", out_channels=1, stride=2**31),
                         height=2**31, width=2**31)),
        # one wired pair feeds every output channel
        ("do", one_layer(dc.LayerSpec("conv", "x", out_channels=COUNT_BUDGET + 1,
                                      connections=1))),
    ], ids=["macs", "di", "do"])
    def test_one_count_over_the_budget_is_named(self, what, net):
        with pytest.raises(NetworkSemanticError, match=re.escape(
                f"layer 'x': {what} exceeds the count budget {COUNT_BUDGET}") + "$"):
            dc.resolve_shapes(net)

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builtins_fit_with_wide_margin(self, name):
        for batch in range(1, 5):
            net = dc.resolve_shapes(dc.builtin(name), batch=batch)
            largest = max(max(st.macs, st.di, st.dw, st.do)
                          for st in map(dc.layer_stats, net.layers))
            assert largest < COUNT_BUDGET >> 20


# every integer the cost model takes from a caller outside a network spec, as
# (the name its error gives, the error class, a call with it set to a value,
# its inclusive upper bound or None)
INTEGER_SITES = [
    *[pytest.param(name, dc.ArchError, lambda v, name=name: dc.ArchConfig(**{name: v}),
                   64 if name == "word_bits" else None, id=f"ArchConfig-{name}")
      for name in ("pe_count", "word_bits", "rs_channels_per_pe", "nlr_lane_width")],
    *[pytest.param(name, ValueError, lambda v, name=name: dc.Modifiers(**{name: v}), None,
                   id=f"Modifiers-{name}") for name in ("bits_in", "bits_w")],
    *[pytest.param(name, ValueError, lambda v, name=name, method=method: dc.mult_count(
        method, **{"out_size": 4, "filter_size": 3, name: v}), MAX_COUNT_SIZE,
        id=f"mult_count-{method}-{name}")
      for method in ("direct", "im2col", "fft", "winograd")
      for name in ("out_size", "filter_size")],
    pytest.param("matrix_size", ValueError, lambda v: dc.mult_count("strassen", matrix_size=v),
                 MAX_COUNT_SIZE, id="mult_count-strassen-matrix_size"),
    pytest.param("n", ValueError, dc.next_pow2, None, id="next_pow2"),
    *[pytest.param("stride", ValueError, lambda v, conv=conv: conv(
        np.ones((1, 4, 4)), np.ones((1, 1, 2, 2)), stride=v), None, id=f"{conv.__name__}-stride")
      for conv in (dc.conv_direct, dc.conv_im2col)],
    pytest.param("bits", ValueError, lambda v: dc.quantize_uniform([1.0], v), 16,
                 id="quantize_uniform-bits"),
]


def _range(low, high):
    return f">= {low}" if high is None else f"in [{low}, {high}]"


class _Int(int):
    pass


def _int_enum(value):
    return IntEnum("Width", {"V": value}).V


class TestOneIntegerCheck:
    """Each integer of ArchConfig, Modifiers, mult_count, next_pow2, the
    convolution stride and quantize_uniform is a Python int >= 1, and at most
    its bound where it has one: a float, a bool, a string, a numpy integer or
    a value past the bound raises the site's error, which names it and its
    range, rather than giving a fractional or wrapped count. An int subclass,
    such as an IntEnum member, is judged by its value."""

    @pytest.mark.parametrize("name, error, call, high", INTEGER_SITES)
    @pytest.mark.parametrize(
        "value", [0, -1, 2.5, True, "8", np.int64(8), _Int(0), _int_enum(0)],
        ids=["0", "-1", "2.5", "True", "str", "int64", "int-subclass", "IntEnum"])
    def test_each_site_rejects_what_is_not_a_positive_int(self, name, error, call, high, value):
        with pytest.raises(error, match=re.escape(
                f"{name} must be an integer {_range(1, high)}, got {value!r}") + "$"):
            call(value)

    @pytest.mark.parametrize("name, error, call, high",
                             [site for site in INTEGER_SITES if site.values[3] is not None])
    @pytest.mark.parametrize("as_int", [int, _Int, _int_enum],
                             ids=["int", "int-subclass", "IntEnum"])
    def test_each_bound_is_inclusive(self, name, error, call, high, as_int):
        try:
            call(as_int(high))
        except ValueError as exc:  # a rule besides the range, such as winograd's 3x3
            assert "must be an integer" not in str(exc)
        past = as_int(high + 1)
        with pytest.raises(error, match=re.escape(
                f"{name} must be an integer in [1, {high}], got {past!r}") + "$"):
            call(past)

    def test_pad_is_an_int_from_zero(self):
        x, w = np.ones((1, 4, 4)), np.ones((1, 1, 2, 2))
        for conv in (dc.conv_direct, dc.conv_im2col):
            assert conv(x, w, pad=0).shape == (1, 3, 3)
            for value in (-1, 0.5, True, "1", np.int64(1)):
                with pytest.raises(ValueError, match=re.escape(
                        f"pad must be an integer >= 0, got {value!r}") + "$"):
                    conv(x, w, pad=value)


# every site that judges a value and shows it in its error, as (the message
# up to ", got", the error class, a call with a value, whether it has an
# upper bound, an id): each integer site and the three real-valued checks
_JUDGES = [
    *[(f"{name} must be an integer {_range(1, high)}", error, call, high is not None, site.id)
      for site in INTEGER_SITES for name, error, call, high in [site.values]],
    ("energy cost for rf must be a finite number > 0", dc.ArchError,
     lambda v: dc.EnergyTable(rf=v), True, "EnergyTable-rf"),
    ("density_in must be in (0, 1]", ValueError,
     lambda v: dc.Modifiers(density_in=v), True, "Modifiers-density_in"),
    ("fraction must be in [0, 1]", ValueError,
     lambda v: dc.prune_network({"a": [1.0]}, v), True, "prune_network-fraction"),
]
# -10**5000 at every site, +10**5000 at each bounded one
HUGE_CASES = [pytest.param(message, error, call, sign * 10**5000, id=f"{name}-{label}")
              for message, error, call, bounded, name in _JUDGES
              for sign, label in ((-1, "negative"), (1, "positive")) if sign < 0 or bounded]


@pytest.fixture(params=[4300, 0], ids=["limit4300", "unlimited"])
def int_str_limit(request):
    """Python's int-to-str digit limit, set for one test: the default, then none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(saved)


class TestValuesTooLongToPrint:
    """A rejected int past Python's int-to-str limit is shown by its size, so
    each site still raises its own error naming its field, rather than
    Python's "Exceeds the limit (4300 digits)" ValueError."""

    @staticmethod
    def shown(value, limit):
        if limit == 0:
            return repr(value)
        return f"{'a negative' if value < 0 else 'an'} integer of 16610 bits"

    @pytest.mark.parametrize("message, error, call, value", HUGE_CASES)
    def test_each_site_names_its_field(self, int_str_limit, message, error, call, value):
        with pytest.raises(error) as raised:
            call(value)
        assert str(raised.value) == f"{message}, got {self.shown(value, int_str_limit)}"

    def test_a_width_past_the_word_names_its_field_when_priced(self, int_str_limit):
        layer = dc.resolve_shapes(dc.builtin("lenet5")).weighted[0][0]
        arch = dc.ArchConfig()
        counts = dc.layer_access_counts(dc.DataflowKind.RS, layer, arch)
        with pytest.raises(ValueError) as raised:
            layer_energy(counts, arch, dc.Modifiers(bits_in=10**5000))
        assert str(raised.value) == ("bits_in must be an integer in [1, 16], got "
                                     + self.shown(10**5000, int_str_limit))


REQUIRED = {"conv": {"out_channels": 1, "kernel": (3, 3)}, "fc": {"out_channels": 1},
            "pool": {"kernel": (2, 2)}, "act": {}, "concat": {}, "add": {}}


class TestCodeAndJsonAgree:
    """A LayerSpec built in code is accepted exactly when the same layer
    parsed from JSON is, and then both give the same spec."""

    @pytest.mark.parametrize("kind, field, value", [
        ("conv", "groups", 1), ("conv", "connections", 2), ("conv", "bias", False),
        ("fc", "bias", False), ("pool", "stride", 2), ("pool", "pad", 1),
        ("fc", "groups", 3), ("fc", "kernel", (3, 3)), ("fc", "stride", 2),
        ("fc", "connections", 1), ("pool", "out_channels", 4), ("pool", "bias", False),
        ("pool", "groups", 2), ("act", "pad", 1), ("act", "kernel", (2, 2)),
        ("concat", "out_channels", 2), ("add", "stride", 2),
    ])
    def test_field_accepted_alike(self, kind, field, value):
        inputs = ("x", "y") if kind in ("concat", "add") else ()
        self.assert_agree(kind, {**REQUIRED[kind], field: value}, inputs)

    @pytest.mark.parametrize("kind, inputs", [
        ("conv", ("x",)), ("conv", ("x", "y")), ("act", ("x", "y")),
        ("concat", ("x", "y")), ("concat", ()), ("add", ("x",)),
    ], ids=["conv-one", "conv-two", "act-two", "concat-two", "concat-none", "add-one"])
    def test_feed_count_accepted_alike(self, kind, inputs):
        self.assert_agree(kind, REQUIRED[kind], inputs)

    @staticmethod
    def assert_agree(kind, fields, inputs):
        """Build the layer in code and parse it from JSON after two act
        layers named x and y. A merge kind, or a layer with several feeds,
        spells them as an "inputs" list, the only form JSON allows."""
        layer = {"type": kind, "name": "a",
                 **{k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}}
        if kind in ("concat", "add") or len(inputs) > 1:
            layer["inputs"] = list(inputs)
        elif inputs:
            layer["input"] = inputs[0]
        text = doc([{"type": "act", "name": "x"}, {"type": "act", "name": "y"}, layer])
        try:
            built = dc.LayerSpec(kind, "a", inputs=inputs, **fields)
        except NetworkSemanticError:
            with pytest.raises(NetworkSemanticError):
                dc.parse_network(text)
        else:
            parsed = dc.parse_network(text)
            assert parsed.layers[-1] == built
            assert dc.parse_network(dc.serialize_network(parsed)) == parsed


# a scalar, or a tuple of up to three scalars and small integers
OTHERS = SCALARS | st.lists(SCALARS | st.integers(1, 3), max_size=3).map(tuple)
NAMES = ("a", "b", "c")


# per LayerSpec field, values that are mostly in range
FIELD_VALUES = {
    "out_channels": st.integers(1, 4),
    "kernel": st.tuples(st.integers(1, 4), st.integers(1, 4)),
    "stride": st.integers(1, 4),
    "pad": st.integers(0, 3),
    "groups": st.integers(1, 4),
    "bias": st.booleans(),
    "connections": st.none() | st.integers(1, 12),
}
DEFAULTS = dc.LayerSpec._field_defaults
# the fields each kind reads, which serialize_network always writes
READS = {"conv": ("out_channels", "kernel", "stride", "pad", "groups", "bias", "connections"),
         "fc": ("out_channels", "bias"), "pool": ("kernel", "stride", "pad")}


@st.composite
def layer_recipes(draw):
    """(kind, name, field arguments, inputs) of one layer: mostly the
    fields its kind reads, now and then one it does not."""
    kind = draw(mostly(st.sampled_from(LAYER_KINDS)))
    reads = READS.get(kind, ())
    # out_channels has no valid default, so a weighted kind always sets it
    args = draw(st.fixed_dictionaries(
        {field: mostly(FIELD_VALUES[field], OTHERS) for field in reads
         if field == "out_channels"},
        optional={field: mostly(FIELD_VALUES[field], OTHERS) for field in reads
                  if field != "out_channels"}))
    if draw(mostly(st.just(False), st.just(True))):
        field = draw(st.sampled_from(sorted(FIELD_VALUES)))
        args[field] = draw(FIELD_VALUES[field] | OTHERS)
    merge = kind in ("concat", "add")
    feeds = st.lists(mostly(st.sampled_from(NAMES)), min_size=2 * merge, max_size=1 + 2 * merge)
    inputs = draw(mostly(feeds.map(tuple), OTHERS))
    return kind, draw(mostly(st.sampled_from(NAMES))), args, inputs


NETWORKS = st.tuples(
    mostly(st.just("net")),
    st.tuples(*[mostly(st.integers(1, 9))] * 3),
    mostly(st.lists(layer_recipes(), min_size=1, max_size=4), st.just([]) | SCALARS))


def build_network(name, dims, layers):
    """The network built in code; a non-list ``layers`` is passed as is."""
    if isinstance(layers, list):
        layers = tuple(dc.LayerSpec(kind, lname, inputs=inputs, **args)
                       for kind, lname, args, inputs in layers)
    return dc.NetworkSpec(name, *dims, layers)


def _same(value, default):
    return type(value) is type(default) and value == default


def layer_json(kind, name, args, inputs):
    """The JSON form of a layer built in code, written as serialize_network
    writes a valid one: every field the kind reads, except a None
    connections, plus every other field set off its default."""
    layer = {"type": kind, "name": name}
    for field, default in DEFAULTS.items():
        value = args.get(field, default)
        if ((field in READS.get(kind, ()) and value is not None)
                or (field in args and not _same(value, default))):
            layer[field] = list(value) if isinstance(value, tuple) else value
    if kind in ("concat", "add") or not isinstance(inputs, tuple) or len(inputs) > 1:
        layer["inputs"] = list(inputs) if isinstance(inputs, tuple) else inputs
    elif inputs:
        layer["input"] = inputs[0]
    return layer


def network_json(name, dims, layers):
    return json.dumps({
        "name": name,
        "input": dict(zip(("channels", "height", "width"), dims)),
        "layers": ([layer_json(*layer) for layer in layers]
                   if isinstance(layers, list) else layers),
    })


def assert_well_formed(net):
    """The constructors' rules restated: every field of an accepted network
    has its type and range, names are unique and feeds name earlier layers."""
    def count(value, low=1):
        return type(value) is int and value >= low

    assert isinstance(net.name, str) and net.name
    assert all(count(d) for d in (net.in_channels, net.in_height, net.in_width))
    assert type(net.layers) is tuple and net.layers
    seen = set()
    for layer in net.layers:
        assert layer.kind in LAYER_KINDS
        assert isinstance(layer.name, str) and layer.name and layer.name not in seen
        assert type(layer.kernel) is tuple and len(layer.kernel) == 2
        assert all(count(v) for v in (*layer.kernel, layer.stride, layer.groups))
        assert count(layer.pad, 0) and type(layer.bias) is bool
        assert count(layer.out_channels, layer.kind in ("conv", "fc"))
        assert layer.connections is None or count(layer.connections)
        assert type(layer.inputs) is tuple and set(layer.inputs) <= seen
        assert len(layer.inputs) >= 2 if layer.kind in ("concat", "add") else len(layer.inputs) <= 1
        seen.add(layer.name)


def accepted(fn, *args):
    """``fn(*args)``, or None when it raises a NetworkError; any other
    exception propagates."""
    try:
        return fn(*args)
    except NetworkError:
        return None


@st.composite
def mutated_builtins(draw):
    """A built-in document with one to three keys set to a scalar or a list
    of scalars, deleted, or with a layer moved or copied."""
    net = json.loads(zoo.builtin_document(draw(st.sampled_from(dc.BUILTIN_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        layers = net.get("layers") if isinstance(net.get("layers"), list) else []
        action = draw(st.sampled_from(("set", "delete", "move", "copy")))
        if action in ("move", "copy") and layers:
            at = draw(st.integers(0, len(layers) - 1))
            moved = layers[at] if action == "copy" else layers.pop(at)
            layers.insert(draw(st.integers(0, len(layers))), moved)
            continue
        targets = [item for item in [net, net.get("input"), *layers] if isinstance(item, dict)]
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted({*target, *FIELD_VALUES, "type", "name", "input",
                                           "inputs", "layers", "channels", "height"})))
        if action == "delete":
            target.pop(key, None)
        else:
            target[key] = draw(SCALARS | st.sampled_from(NAMES)
                               | st.lists(SCALARS | st.sampled_from(NAMES), max_size=3))
    return json.dumps(net)


class TestCodeAndJsonAgreeProperty:
    """TestCodeAndJsonAgree over arbitrary scalars in every field: a network
    built in code is accepted exactly when its JSON form is, and then both
    give the same spec, which round-trips. Only a NetworkError escapes."""

    @settings(deadline=None, max_examples=400)
    @given(net=NETWORKS)
    @example(net=("net", (1, 8, 8), [("conv", "a", {"out_channels": 2, "kernel": (3, 3),
                                                    "stride": 1.5}, ())]))
    @example(net=("net", (1, 8, 8), [("conv", "a", {"out_channels": 2, "kernel": (3, 3)}, ()),
                                     ("fc", "a", {"out_channels": 2}, ())]))
    @example(net=("net", (0, 8, 8), [("act", "a", {}, ())]))
    @example(net=("net", (1, 8, 8), []))
    def test_code_and_json_accept_alike(self, net):
        built = accepted(build_network, *net)
        parsed = accepted(dc.parse_network, network_json(*net))
        assert (built is None) == (parsed is None)
        if built is not None:
            assert_well_formed(built)
            assert parsed == built
            assert dc.parse_network(dc.serialize_network(built)) == built

    @settings(deadline=None, max_examples=200)
    @given(text=mutated_builtins())
    def test_mutated_builtin_fails_only_with_network_error(self, text):
        spec = accepted(dc.parse_network, text)
        if spec is not None:
            assert_well_formed(spec)
            assert dc.parse_network(dc.serialize_network(spec)) == spec
            accepted(dc.resolve_shapes, spec)


class TestBuiltins:
    @pytest.mark.parametrize("name,conv_layers,fc_layers", [
        ("lenet5", 2, 2),
        ("alexnet", 5, 3),
        ("vgg16", 13, 3),
        ("googlenet", 57, 1),
        ("resnet50", 53, 1),
    ])
    def test_layer_counts(self, name, conv_layers, fc_layers):
        net = dc.resolve_shapes(dc.builtin(name))
        kinds = [layer.kind for layer in net.layers]
        assert kinds.count("conv") == conv_layers
        assert kinds.count("fc") == fc_layers

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builtins_resolve_at_batch_one(self, name):
        net = dc.resolve_shapes(dc.builtin(name))
        assert all(layer.out_height >= 1 and layer.out_width >= 1
                   for layer in net.layers)

    def test_unknown_builtin(self):
        for _ in range(2):  # a failure is not cached
            with pytest.raises(NetworkError, match="mobilenet"):
                dc.builtin("mobilenet")

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_builtin_is_parsed_once_and_shared(self, name):
        spec = dc.builtin(name)
        assert dc.builtin(name) is spec
        assert spec == dc.parse_network(dc.builtin_document(name))

    def test_builtin_calls_a_replaced_parser_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return dc.parse_network(text)

        monkeypatch.setattr(zoo, "parse_network", counting)
        assert dc.builtin("lenet5") is dc.builtin("lenet5")
        assert calls == [dc.builtin_document("lenet5")]

    def test_builtin_documents_parse(self):
        for name in dc.BUILTIN_NAMES:
            assert dc.parse_network(dc.builtin_document(name)).name == name


@settings(deadline=None, max_examples=200)
@given(height=st.integers(1, 64), kernel=st.integers(1, 7),
       stride=st.integers(1, 4), pad=st.integers(0, 3))
def test_resolved_extent_is_consistent(height, kernel, stride, pad):
    text = doc([conv(kernel=[kernel, kernel], stride=stride, pad=pad,
                     out_channels=1)],
               height=height, width=height)
    net = dc.parse_network(text)
    try:
        layer = dc.resolve_shapes(net).layers[0]
    except ShapeError:
        assert height - kernel + 2 * pad < 0
        return
    span = height - kernel + 2 * pad
    assert layer.out_height >= 1
    assert (layer.out_height - 1) * stride <= span
    assert layer.out_height * stride <= span + stride
