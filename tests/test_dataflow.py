"""Reuse factor tables and access counting for the four mapping policies."""

import itertools

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import dnncost as dc
from dnncost.archmodel import LEVELS
from dnncost.cli import main
from dnncost.dataflow import (DATA_TYPES, DataflowKind, ReuseFactors, TypeReuse, access_counts,
                              reuse_factors)
from dnncost.netmodel import NetworkSemanticError, ResolvedLayer
from oracles import RESIDENT, make_conv, reference_table_counts, simulate_accesses

KINDS = list(DataflowKind)

# N=C=M=1, H=W=3, R=S=2 -> E=F=2, T=16, Di=9, Dw=4, Do=4. Every number
# below was worked out by hand from the counting rules.
TINY = make_conv(1, 3, 3, 1, 2, 2)
TINY_EXPECTED = {
    DataflowKind.WS: {
        "input": {"rf": 0, "noc": 16, "buf": 16, "dram": 9},
        "weight": {"rf": 16, "noc": 4, "buf": 4, "dram": 4},
        "psum": {"rf": 0, "noc": 16, "buf": 8, "dram": 4},
    },
    DataflowKind.OS: {
        "input": {"rf": 0, "noc": 16, "buf": 9, "dram": 9},
        "weight": {"rf": 0, "noc": 16, "buf": 4, "dram": 4},
        "psum": {"rf": 32, "noc": 4, "buf": 8, "dram": 4},
    },
    DataflowKind.NLR: {
        "input": {"rf": 0, "noc": 16, "buf": 16, "dram": 9},
        "weight": {"rf": 0, "noc": 16, "buf": 16, "dram": 4},
        "psum": {"rf": 0, "noc": 16, "buf": 8, "dram": 4},
    },
    DataflowKind.RS: {
        "input": {"rf": 16, "noc": 9, "buf": 9, "dram": 9},
        "weight": {"rf": 16, "noc": 8, "buf": 4, "dram": 4},
        "psum": {"rf": 32, "noc": 8, "buf": 8, "dram": 4},
    },
}


class TestReuseFactors:
    def test_stationarity_sets(self, arch):
        residency = {
            kind: {d for d in DATA_TYPES
                   if getattr(reuse_factors(kind, TINY, arch), d).resident}
            for kind in KINDS
        }
        assert residency[DataflowKind.WS] == {"weight"}
        assert residency[DataflowKind.OS] == {"psum"}
        assert residency[DataflowKind.NLR] == set()
        assert residency[DataflowKind.RS] == {"input", "weight", "psum"}

    def test_non_resident_types_have_unit_rf_reuse(self, arch, resolved_builtins):
        for layer in resolved_builtins["alexnet"].layers:
            if layer.kind not in ("conv", "fc"):
                continue
            for kind in KINDS:
                factors = reuse_factors(kind, layer, arch)
                for dtype in DATA_TYPES:
                    fac = getattr(factors, dtype)
                    if not fac.resident:
                        assert fac.rf_reuse == 1
                    assert fac.rf_reuse >= 1
                    assert fac.share >= 1

    def test_ws_weight_reuse_on_large_conv(self, arch, resolved_builtins):
        conv1 = resolved_builtins["alexnet"].layers[0]
        factors = reuse_factors(DataflowKind.WS, conv1, arch)
        assert factors.weight.resident
        assert factors.weight.rf_reuse == 3025  # N * E * F at batch 1

    def test_rs_degenerate_kernel_clamps(self, arch):
        one = make_conv(1, 1, 1, 1, 1, 1)
        factors = reuse_factors(DataflowKind.RS, one, arch)
        assert factors.input.rf_reuse == 1
        assert factors.weight.rf_reuse == 1

    def test_rs_channel_folding(self, arch):
        wide = make_conv(8, 5, 5, 2, 3, 3)
        narrow = make_conv(2, 5, 5, 2, 3, 3)
        assert reuse_factors(DataflowKind.RS, wide, arch).psum.rf_reuse \
            == 3 * arch.rs_channels_per_pe
        assert reuse_factors(DataflowKind.RS, narrow, arch).psum.rf_reuse == 3 * 2

    def test_nlr_lane_width_is_configuration(self):
        serial = dc.ArchConfig(nlr_lane_width=1)
        layer = make_conv(4, 6, 6, 8, 3, 3)
        factors = reuse_factors(DataflowKind.NLR, layer, serial)
        assert factors.input.share == 1
        assert factors.psum.share == 1

    def test_kind_given_as_a_string(self, arch):
        for kind in KINDS:
            factors = reuse_factors(kind.value, TINY, arch)
            assert factors.kind is kind
            assert factors == reuse_factors(kind, TINY, arch)
        with pytest.raises(ValueError, match="not a valid DataflowKind"):
            reuse_factors("xs", TINY, arch)

    def test_rejects_unweighted_layers(self, arch, resolved_builtins):
        pool = next(l for l in resolved_builtins["lenet5"].layers
                    if l.kind == "pool")
        with pytest.raises(ValueError, match="conv and fc"):
            reuse_factors(DataflowKind.WS, pool, arch)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("batch", [0, -5])
    def test_rejects_batch_below_one(self, monkeypatch, kind, batch):
        # the batch is checked where it enters, in resolve_shapes, so no
        # factor table of any kind is built for a batch below one
        built = []
        monkeypatch.setattr(dc.dataflow, "reuse_factors",
                            lambda *args: built.append(args))
        result = CliRunner().invoke(main, ["analyze", "--builtin", "lenet5",
                                           "--dataflow", kind.value,
                                           "--batch", str(batch)])
        assert result.exit_code == 1
        assert f"batch must be an integer >= 1, got {batch}\n" in result.stderr
        assert built == []


@st.composite
def hand_built_layers(draw):
    """A weighted layer built in code: fc over any input extent, or conv with
    any stride, pad, grouping and wiring whose kernel fits the padded input."""
    groups = draw(st.integers(1, 4))
    c, m = groups * draw(st.integers(1, 6)), groups * draw(st.integers(1, 6))
    h, w, batch = draw(st.integers(1, 32)), draw(st.integers(1, 32)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return ResolvedLayer(kind="fc", name="probe", batch=batch, in_channels=c,
                             in_height=h, in_width=w, out_channels=m, out_height=1,
                             out_width=1, kernel=(h, w), stride=1, pad=0, groups=1,
                             bias=False, connections=None, inputs=("input",))
    pad = draw(st.integers(0, 2))
    r, s = draw(st.integers(1, h + 2 * pad)), draw(st.integers(1, w + 2 * pad))
    connections = draw(st.none() | st.integers(1, m * c // groups))
    return make_conv(c, h, w, m, r, s, stride=draw(st.integers(1, 3)), pad=pad,
                     groups=groups, connections=connections, batch=batch)


ARCHS = st.builds(dc.ArchConfig, pe_count=st.integers(1, 4096),
                  rs_channels_per_pe=st.integers(1, 64), nlr_lane_width=st.integers(1, 64))


class TestCountsNeedNoCeiling:
    """Every reuse factor is an int >= 1, so ceil(d / share) <= d and the
    partial-sum updates are at most T: the counting rules need floors only."""

    @given(layer=hand_built_layers(), arch=ARCHS, kind=st.sampled_from(KINDS))
    @settings(deadline=None, max_examples=300)
    def test_factors_are_whole_numbers_of_at_least_one(self, layer, arch, kind):
        factors = reuse_factors(kind, layer, arch)
        for dtype in DATA_TYPES:
            fac = getattr(factors, dtype)
            for value in (fac.rf_reuse, fac.share):
                assert type(value) is int and value >= 1
        acc = access_counts(factors).acc
        t = layer.stats.macs
        assert acc["input"]["buf"] <= acc["input"]["noc"]
        assert acc["weight"]["buf"] <= acc["weight"]["noc"]
        assert acc["psum"]["buf"] <= max(2 * t, layer.stats.do)


FACTORS = st.integers(1, 8) | st.integers(1, 10**6)
REUSE = st.builds(TypeReuse, resident=st.booleans(), rf_reuse=FACTORS, share=FACTORS)


class TestOneRule:
    """One rule counts every data type. On any table whose factors are ints
    >= 1, hand-built ones included, it equals the reference's chained
    clamps, which count partial sums apart and floor the NoC count before
    dividing it by the share."""

    @given(factors=st.builds(ReuseFactors, kind=st.sampled_from(KINDS),
                             layer=hand_built_layers(), input=REUSE, weight=REUSE, psum=REUSE))
    @settings(deadline=None, max_examples=500)
    def test_equals_the_chained_clamps_on_any_table(self, factors):
        assert access_counts(factors) == reference_table_counts(factors)


class TestAccessCounts:
    @pytest.mark.parametrize("kind", KINDS)
    def test_tiny_layer_frozen_tables(self, arch, kind):
        counts = dc.layer_access_counts(kind, TINY, arch)
        assert counts.total_macs == 16
        assert counts.acc == TINY_EXPECTED[kind]

    def test_nlr_keeps_nothing_in_the_rf(self, arch, resolved_builtins):
        for layer in resolved_builtins["alexnet"].layers:
            if layer.kind not in ("conv", "fc"):
                continue
            counts = dc.layer_access_counts(DataflowKind.NLR, layer, arch)
            assert all(counts.acc[d]["rf"] == 0 for d in DATA_TYPES)

    def test_dram_equals_unique_volumes(self, arch, resolved_builtins):
        for net in resolved_builtins.values():
            for layer in net.layers:
                if layer.kind not in ("conv", "fc"):
                    continue
                st = dc.layer_stats(layer)
                for kind in KINDS:
                    counts = dc.layer_access_counts(kind, layer, arch)
                    assert counts.acc["input"]["dram"] == st.di
                    assert counts.acc["weight"]["dram"] == st.dw
                    assert counts.acc["psum"]["dram"] == st.do

    def test_hierarchy_bounds(self, arch, resolved_builtins):
        for layer in resolved_builtins["googlenet"].layers:
            if layer.kind not in ("conv", "fc"):
                continue
            st = dc.layer_stats(layer)
            t = st.macs
            for kind in KINDS:
                acc = dc.layer_access_counts(kind, layer, arch).acc
                for dtype, unique in (("input", st.di), ("weight", st.dw)):
                    row = acc[dtype]
                    assert unique <= row["buf"] <= row["noc"]
                    assert row["rf"] in (0, t)
                row = acc["psum"]
                assert st.do <= row["buf"] <= 2 * t
                assert st.do <= row["noc"] <= 2 * t
                assert row["rf"] in (0, 2 * t)

    def test_batch_scaling(self, arch):
        for kind in KINDS:
            one = dc.layer_access_counts(kind, make_conv(3, 8, 8, 4, 3, 3, batch=1), arch)
            two = dc.layer_access_counts(kind, make_conv(3, 8, 8, 4, 3, 3, batch=2), arch)
            assert two.total_macs == 2 * one.total_macs
            assert two.acc["input"]["dram"] == 2 * one.acc["input"]["dram"]
            assert two.acc["psum"]["dram"] == 2 * one.acc["psum"]["dram"]
            assert two.acc["weight"]["dram"] == one.acc["weight"]["dram"]
            for dtype in DATA_TYPES:
                assert two.acc[dtype]["rf"] == 2 * one.acc[dtype]["rf"]

    def test_fc_layers_supported(self, arch, resolved_builtins):
        fc = resolved_builtins["alexnet"].layers[-1]
        for kind in KINDS:
            counts = dc.layer_access_counts(kind, fc, arch)
            assert counts.total_macs == 4_096_000
            assert counts.acc["weight"]["dram"] == 4_096_000

    def test_overflow_guard(self):
        # a shape whose access counts pass 2**63 - 1 never reaches counting:
        # resolving it at this batch already exceeds the count budget
        huge = dc.NetworkSpec("huge", 65536, 1024, 1024, (
            dc.LayerSpec("conv", "probe", out_channels=65536, kernel=(32, 32)),))
        with pytest.raises(NetworkSemanticError,
                           match="^layer 'probe': macs exceeds the count budget"):
            dc.resolve_shapes(huge, batch=4)

    def test_rows_follow_the_axes(self, arch):
        assert DATA_TYPES == ("input", "weight", "psum")
        assert LEVELS == ("rf", "noc", "buf", "dram")
        for kind in KINDS:
            acc = dc.layer_access_counts(kind, TINY, arch).acc
            assert list(acc) == list(DATA_TYPES)
            for row in acc.values():
                assert list(row) == list(LEVELS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_price_the_table_layer(self, arch, kind):
        # a factor table carries its layer and batch, so counting it takes
        # no second layer that could disagree with the table
        layer = make_conv(3, 8, 8, 4, 3, 3, batch=2)
        factors = reuse_factors(kind, layer, arch)
        assert factors.layer is layer
        counts = access_counts(factors)
        assert counts.layer == layer.name
        assert counts.total_macs == dc.layer_stats(layer).macs


class TestFloors:
    """The NoC count is max(ceil(T / rf_reuse), U) and the buffer count
    max(k * ceil(T / (rf_reuse * share)), U). At the default hardware the
    floor U binds on 5 of the built-ins' 3,360 NoC and buffer cells."""

    FLOORED = {  # (network, layer, dataflow, type, level): (raw, U)
        ("lenet5", "c3", "os", "psum", "noc"): (1_596, 1_600),
        ("resnet50", "res3a_a", "ws", "input", "buf"): (200_704, 802_816),
        ("resnet50", "res3a_proj", "ws", "input", "buf"): (401_408, 802_816),
        ("resnet50", "res4a_a", "ws", "input", "buf"): (100_352, 401_408),
        ("resnet50", "res5a_a", "ws", "input", "buf"): (100_352, 200_704),
    }

    def test_floored_cells_at_the_default_hardware(self, arch, resolved_builtins):
        floored, cells = {}, 0
        for net, resolved in resolved_builtins.items():
            for layer in resolved.layers:
                if layer.kind not in ("conv", "fc"):
                    continue
                t = layer.stats.macs
                uniques = (layer.stats.di, layer.stats.dw, layer.stats.do)
                for kind in KINDS:
                    factors = reuse_factors(kind, layer, arch)
                    acc = access_counts(factors).acc
                    for dtype, unique, k in zip(DATA_TYPES, uniques, (1, 1, 2)):
                        fac = getattr(factors, dtype)
                        raw = {"noc": -(-t // fac.rf_reuse),
                               "buf": k * -(-t // (fac.rf_reuse * fac.share))}
                        for level, count in raw.items():
                            cells += 1
                            assert acc[dtype][level] == max(count, unique)
                            if count < unique:
                                cell = (net, layer.name, kind.value, dtype, level)
                                floored[cell] = (count, unique)
        assert cells == 3_360
        assert floored == self.FLOORED


class TestLoopNestOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_spot_shapes_match_simulation(self, arch, kind):
        shapes = [
            (1, 1, 1, 3, 3, 2, 2),
            (2, 3, 2, 3, 2, 2, 1),
            (1, 2, 3, 2, 3, 1, 2),
            (3, 1, 2, 1, 1, 1, 1),
        ]
        for batch, c, m, h, w, r, s in shapes:
            layer = make_conv(c, h, w, m, r, s, batch=batch)
            counts = dc.layer_access_counts(kind, layer, arch)
            rf, dram = simulate_accesses(kind.value, batch, c, m, h, w, r, s)
            for dtype in DATA_TYPES:
                assert counts.acc[dtype]["rf"] == rf[dtype]
                assert counts.acc[dtype]["dram"] == dram[dtype]

    def test_residency_table_matches_model(self, arch):
        for kind in KINDS:
            factors = reuse_factors(kind, TINY, arch)
            model = {d for d in DATA_TYPES if getattr(factors, d).resident}
            assert model == RESIDENT[kind.value]
