"""Per-layer and per-network weight and MAC counting."""

import itertools

from click.testing import CliRunner

import dnncost as dc
from dnncost.cli import main
from oracles import brute_macs, make_conv


class TestLayerStats:
    def test_against_brute_force_sweep(self):
        # every dimension small enough to enumerate literally
        for in_ch, out_ch, hw, r, groups in itertools.product(
                (1, 2, 4), (1, 2, 4), (3, 4), (1, 2, 3), (1, 2)):
            if in_ch % groups or out_ch % groups or r > hw:
                continue
            for batch in (1, 3):
                layer = make_conv(in_ch, hw, hw, out_ch, r, r, groups=groups, batch=batch)
                got = dc.layer_stats(layer)
                want = brute_macs(batch, in_ch, hw, hw, out_ch, r, r,
                                  groups=groups)
                assert got.macs == want, (in_ch, out_ch, hw, r, groups, batch)

    def test_brute_force_with_partial_wiring(self):
        layer = make_conv(4, 5, 5, 3, 2, 2, connections=7)
        assert dc.layer_stats(layer).macs == brute_macs(
            1, 4, 5, 5, 3, 2, 2, connections=7)

    def test_alexnet_first_conv(self, resolved_builtins):
        layer = resolved_builtins["alexnet"].layers[0]
        st = dc.layer_stats(layer)
        assert st.macs == 105_415_200
        assert st.weights == 34_944

    def test_fc_4096_to_1000(self, resolved_builtins):
        layer = resolved_builtins["alexnet"].layers[-1]
        assert (layer.kind, layer.out_channels) == ("fc", 1000)
        st = dc.layer_stats(layer)
        assert st.macs == 4_096_000
        assert st.weights == 4_097_000

    def test_single_unit_conv(self):
        layer = make_conv(1, 1, 1, 1, 1, 1, bias=True)
        st = dc.layer_stats(layer)
        assert st.macs == 1
        assert st.weights == 2  # one multiplicative weight plus the bias

    def test_bias_excluded_from_movement_volume(self):
        with_bias = dc.layer_stats(make_conv(2, 4, 4, 3, 3, 3, bias=True))
        without = dc.layer_stats(make_conv(2, 4, 4, 3, 3, 3, bias=False))
        assert with_bias.dw == without.dw
        assert with_bias.weights == without.weights + 3

    def test_macs_linear_in_batch(self):
        one = dc.layer_stats(make_conv(2, 6, 6, 3, 3, 3, batch=1))
        four = dc.layer_stats(make_conv(2, 6, 6, 3, 3, 3, batch=4))
        assert four.macs == 4 * one.macs
        assert four.di == 4 * one.di
        assert four.do == 4 * one.do
        assert four.weights == one.weights

    def test_weights_at_most_macs(self, resolved_builtins):
        for net in resolved_builtins.values():
            for layer in net.layers:
                if layer.kind in ("conv", "fc"):
                    st = dc.layer_stats(layer)
                    assert st.weights <= st.macs + layer.out_channels

    def test_zero_cost_kinds(self, resolved_builtins):
        pool = next(l for l in resolved_builtins["lenet5"].layers
                    if l.kind == "pool")
        st = dc.layer_stats(pool)
        assert (st.weights, st.macs, st.dw) == (0, 0, 0)
        assert st.di > 0 and st.do > 0

    def test_batch_must_be_positive(self, monkeypatch):
        # a batch of 0 is rejected by resolve_shapes, before any layer is counted
        counted = []
        monkeypatch.setattr(dc.stats, "layer_stats", counted.append)
        result = CliRunner().invoke(main, ["stats", "--builtin", "lenet5",
                                           "--batch", "0"])
        assert result.exit_code == 1
        assert "batch must be an integer >= 1, got 0\n" in result.stderr
        assert counted == []


class TestNetworkStats:
    def test_rows_cover_weighted_layers_only(self, resolved_builtins):
        st = dc.network_stats(resolved_builtins["lenet5"])
        assert [r.kind for r in st.layers] == ["conv", "conv", "fc", "fc"]

    def test_subtotals_partition_totals(self, resolved_builtins):
        for net in resolved_builtins.values():
            st = dc.network_stats(net)
            assert st.conv_weights + st.fc_weights == st.total_weights
            assert st.conv_macs + st.fc_macs == st.total_macs
            assert st.total_weights == sum(r.weights for r in st.layers)
            assert st.total_macs == sum(r.macs for r in st.layers)

    def test_lenet5_exact_counts(self, resolved_builtins):
        st = dc.network_stats(resolved_builtins["lenet5"])
        assert st.total_weights == 59_956
        assert st.total_macs == 325_680
        assert (st.conv_weights, st.conv_macs) == (1_672, 267_600)

    def test_alexnet_exact_counts(self, resolved_builtins):
        st = dc.network_stats(resolved_builtins["alexnet"])
        assert st.total_weights == 60_965_224
        assert st.total_macs == 724_406_816
        assert (st.conv_weights, st.conv_macs) == (2_334_080, 665_784_864)

    def test_remaining_builtin_totals(self, resolved_builtins):
        frozen = {
            "vgg16": (138_357_544, 15_470_264_320),
            "googlenet": (6_998_552, 1_431_556_352),
            "resnet50": (25_503_912, 3_857_973_248),
        }
        for name, (weights, macs) in frozen.items():
            st = dc.network_stats(resolved_builtins[name])
            assert (st.total_weights, st.total_macs) == (weights, macs), name
