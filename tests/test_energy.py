"""Energy pricing, workload modifiers, and the dataflow comparison."""

import functools
import json
import math
import random
import re

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dnncost as dc
from dnncost.archmodel import LEVELS, ArchConfig, EnergyTable
from dnncost.dataflow import DATA_TYPES, AccessCounts, DataflowKind
from dnncost.energy import EnergyReport, Modifiers, _aggregate, layer_energy
from dnncost.netmodel import WEIGHTED_KINDS, shape_key
from oracles import make_conv, reference_compare, reference_network_energy
from test_dataflow import ARCHS, hand_built_layers

TINY = make_conv(1, 3, 3, 1, 2, 2)  # T=16, Di=9, Dw=4, Do=4
ONE = make_conv(1, 1, 1, 1, 1, 1)   # every volume is a single word

KINDS = list(DataflowKind)


def energy(layer, kind, arch, mods=Modifiers()):
    counts = dc.layer_access_counts(kind, layer, arch)
    return layer_energy(counts, arch, mods)


class TestLayerEnergy:
    def test_tiny_ws_frozen_values(self, arch):
        rep = energy(TINY, DataflowKind.WS, arch)
        # weight: rf 16*1 + noc 4*2 + buf 4*6 + dram 4*200
        assert rep.by_type["weight"] == 848.0
        assert rep.compute == 16.0
        assert rep.total == 3672.0

    def test_single_word_layer_across_dataflows(self, arch):
        expected = {
            DataflowKind.WS: 632.0,
            DataflowKind.OS: 633.0,
            DataflowKind.NLR: 631.0,
            DataflowKind.RS: 635.0,
        }
        for kind, value in expected.items():
            assert energy(ONE, kind, arch).total == value

    def test_breakdowns_are_consistent(self, arch, resolved_builtins):
        for layer in resolved_builtins["alexnet"].layers:
            if layer.kind not in ("conv", "fc"):
                continue
            for kind in KINDS:
                rep = energy(layer, kind, arch)
                assert sum(rep.by_type.values()) == rep.movement_total
                assert math.isclose(sum(rep.by_level.values()), rep.movement_total,
                                    rel_tol=1e-12)
                assert rep.total == rep.movement_total + rep.compute
                assert set(rep.by_type) == set(DATA_TYPES)
                assert set(rep.by_level) == set(LEVELS)

    def test_kind_given_as_a_string(self, arch):
        counts = dc.layer_access_counts(DataflowKind.RS, TINY, arch)
        by_hand = AccessCounts(layer=counts.layer, kind="rs",
                               total_macs=counts.total_macs, acc=counts.acc)
        rep = layer_energy(by_hand, arch)
        assert rep.dataflow == "rs"
        assert rep == layer_energy(counts, arch)
        with pytest.raises(ValueError, match="not a valid DataflowKind"):
            layer_energy(by_hand._replace(kind="xs"), arch)

    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_are_read_by_key(self, arch, resolved_builtins, kind):
        """Counts whose rows and cells come in another order, with the kind
        as a string, price the same, cell for cell, as the engine's own."""
        mods = Modifiers(density_in=0.5, bits_in=8, bits_w=12)
        for layer, _ in resolved_builtins["alexnet"].weighted:
            counts = dc.layer_access_counts(kind, layer, arch)
            # the rows reversed, and each row's cells rotated by a different step
            acc = {d: {lv: counts.acc[d][lv] for lv in LEVELS[k + 1:] + LEVELS[:k + 1]}
                   for k, d in reversed(list(enumerate(DATA_TYPES)))}
            shuffled = AccessCounts(counts.layer, kind.value, counts.total_macs, acc)
            assert [list(row) for row in acc.values()] != [list(LEVELS)] * len(DATA_TYPES)
            expected, rep = layer_energy(counts, arch, mods), layer_energy(shuffled, arch, mods)
            assert (rep.layer, rep.dataflow) == (expected.layer, kind.value)
            assert float.hex(rep.compute) == float.hex(expected.compute)
            assert tuple(rep.movement) == DATA_TYPES
            for d in DATA_TYPES:
                assert tuple(rep.movement[d]) == LEVELS
                assert ([float.hex(v) for v in rep.movement[d].values()]
                        == [float.hex(v) for v in expected.movement[d].values()])

    def test_dram_cost_dominates_and_scales(self, arch):
        pricey = dc.ArchConfig(energy=dc.EnergyTable(rf=1.0, noc=2.0,
                                                     buf=6.0, dram=400.0))
        base = energy(TINY, DataflowKind.WS, arch)
        doubled = energy(TINY, DataflowKind.WS, pricey)
        assert doubled.total > base.total
        assert doubled.by_level["dram"] == 2 * base.by_level["dram"]
        assert doubled.by_level["rf"] == base.by_level["rf"]


class TestModifiers:
    def test_quantized_compute_scaling(self, arch):
        base = energy(TINY, DataflowKind.OS, arch)
        eight = energy(TINY, DataflowKind.OS, arch, Modifiers(bits_in=8, bits_w=8))
        ten = energy(TINY, DataflowKind.OS, arch, Modifiers(bits_in=10, bits_w=10))
        assert eight.compute == 0.25 * base.compute
        assert ten.compute == 0.390625 * base.compute

    def test_narrow_weights_shrink_weight_traffic_only(self, arch):
        base = energy(TINY, DataflowKind.WS, arch)
        mod = energy(TINY, DataflowKind.WS, arch, Modifiers(bits_w=8))
        assert mod.by_type["weight"] == 0.5 * base.by_type["weight"]
        assert mod.by_type["input"] == base.by_type["input"]
        assert mod.by_type["psum"] == base.by_type["psum"]  # full word always
        assert mod.compute == 0.5 * base.compute

    def test_density_gates_compute_not_movement(self, arch):
        base = energy(TINY, DataflowKind.RS, arch)
        mod = energy(TINY, DataflowKind.RS, arch,
                     Modifiers(density_in=0.5, density_w=0.4))
        assert math.isclose(mod.compute, 0.2 * base.compute, rel_tol=1e-12)
        assert mod.movement_total == base.movement_total

    def test_bits_must_fit_the_word(self, arch):
        with pytest.raises(ValueError, match="bits_in"):
            energy(TINY, DataflowKind.WS, arch, Modifiers(bits_in=17))
        with pytest.raises(ValueError, match="bits_w"):
            energy(TINY, DataflowKind.WS, arch, Modifiers(bits_w=32))
        # each beside a width that fits, and with no None among them
        for mods, shown in ((Modifiers(bits_in=17, bits_w=8), "bits_in must be an integer "
                             "in [1, 16], got 17"),
                            (Modifiers(bits_in=8, bits_w=32), "bits_w must be an integer "
                             "in [1, 16], got 32")):
            with pytest.raises(ValueError, match=re.escape(shown) + "$"):
                energy(TINY, DataflowKind.WS, arch, mods)

    def test_an_int_subclass_width_prices_as_its_int(self, arch):
        # it fails layer_energy's quick test and passes _resolve_bits
        wide = type("Wide", (int,), {})
        assert (energy(TINY, DataflowKind.WS, arch, Modifiers(bits_in=wide(8), bits_w=wide(12)))
                == energy(TINY, DataflowKind.WS, arch, Modifiers(bits_in=8, bits_w=12)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="density_in"):
            Modifiers(density_in=0.0)
        with pytest.raises(ValueError, match="density_w"):
            Modifiers(density_w=1.5)
        with pytest.raises(ValueError, match="bits_w"):
            Modifiers(bits_w=0)

    @pytest.mark.parametrize("field", ["density_in", "density_w"])
    @pytest.mark.parametrize("density", [True, "0.5", None])
    def test_densities_must_be_numbers(self, field, density):
        """A bool is not read as density 1.0, and a string or None is a
        ValueError, not a TypeError from the comparison."""
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be in (0, 1], got {density!r}") + "$"):
            Modifiers(**{field: density})

    @pytest.mark.parametrize("field, bits", [("bits_in", 8.5), ("bits_w", 8.0),
                                             ("bits_in", True), ("bits_w", "8")])
    def test_bitwidths_must_be_integers(self, field, bits):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Modifiers(**{field: bits})


# finite cells of both signs within a few decades of one another, so that
# summing them in another order, or with math.fsum, rounds differently; the
# decade they share ranges from about 1e-300 to 1e300 over the examples
CELLS = st.builds(lambda mantissa, decade, offset: mantissa * 10.0 ** (decade + offset),
                  st.floats(-10.0, 10.0), st.shared(st.integers(-290, 290), key="decade"),
                  st.integers(-8, 8))


@st.composite
def reports(draw):
    """A report whose matrix and rows may have their keys in shuffled order."""
    movement = {d: {lv: draw(CELLS) for lv in draw(st.permutations(LEVELS))}
                for d in draw(st.permutations(DATA_TYPES))}
    return EnergyReport(layer="l", dataflow="ws", movement=movement, compute=draw(CELLS))


# shrinking a failing example of these took about 5 minutes; the unshrunk
# example already names the cell that differs
NO_SHRINK = settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])


class TestSumsAreBitIdentical:
    """Totals and aggregates call sum() on the same values in the same order
    as the generator forms, so they agree bit for bit also under Python
    3.12's compensated float sum()."""

    @NO_SHRINK
    @given(rep=reports())
    def test_total_is_the_by_type_sum(self, rep):
        movement = sum(rep.by_type.values())
        assert float.hex(rep.movement_total) == float.hex(movement)
        expected = movement + rep.compute
        assert rep.total == expected
        assert float.hex(rep.total) == float.hex(expected)

    @NO_SHRINK
    @given(parts=st.lists(reports(), min_size=1, max_size=6))
    def test_aggregate_is_the_generator_sum(self, parts):
        agg = _aggregate(parts, "total", "ws")
        for d in DATA_TYPES:
            for lv in LEVELS:
                expected = sum(r.movement[d][lv] for r in parts)
                assert agg.movement[d][lv] == expected
                assert float.hex(agg.movement[d][lv]) == float.hex(expected)
        expected = sum(r.compute for r in parts)
        assert agg.compute == expected
        assert float.hex(agg.compute) == float.hex(expected)


class TestNetworkEnergy:
    def test_aggregate_is_additive(self, arch, resolved_builtins):
        reports, agg = dc.network_energy(resolved_builtins["lenet5"],
                                         DataflowKind.RS, arch)
        assert agg.layer == "total"
        assert len(reports) == 4  # pools move no weights
        assert math.isclose(agg.total, sum(r.total for r in reports),
                            rel_tol=1e-12)
        for dtype in DATA_TYPES:
            for level in LEVELS:
                assert agg.movement[dtype][level] == pytest.approx(
                    sum(r.movement[dtype][level] for r in reports))

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_given_as_a_string(self, arch, resolved_builtins, kind):
        net = resolved_builtins["lenet5"]
        assert dc.network_energy(net, kind.value, arch) == dc.network_energy(net, kind, arch)
        with pytest.raises(ValueError, match="^'xs' is not a valid DataflowKind$"):
            dc.network_energy(net, "xs", arch)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_weighted_layers_aggregate_to_float_zeros(self, arch, kind):
        net = dc.resolve_shapes(dc.NetworkSpec("pools", 2, 6, 6, (
            dc.LayerSpec("pool", "p", kernel=(2, 2), stride=2), dc.LayerSpec("act", "a"))))
        reports, agg = dc.network_energy(net, kind, arch)
        assert reports == []
        for value in (*(v for row in agg.movement.values() for v in row.values()),
                      agg.compute, agg.total):
            assert type(value) is float and value == 0.0

    def test_reports_follow_network_order(self, arch, resolved_builtins):
        net = resolved_builtins["vgg16"]
        reports, _ = dc.network_energy(net, DataflowKind.WS, arch)
        weighted = [l.name for l in net.layers if l.kind in ("conv", "fc")]
        assert [r.layer for r in reports] == weighted

    def test_each_distinct_shape_is_priced_once(self, arch, resolved_builtins, monkeypatch):
        priced = []

        def counting(kind, layer, arch):
            priced.append(layer.name)
            return dc.dataflow.layer_access_counts(kind, layer, arch)

        monkeypatch.setattr(dc.energy, "layer_access_counts", counting)
        for kind in KINDS:
            total = 0
            for name, net in resolved_builtins.items():
                weighted = [l for l in net.layers if l.kind in WEIGHTED_KINDS]
                priced.clear()
                dc.network_energy(net, kind, arch)
                assert len(priced) == len({shape_key(l) for l in weighted})
                if name == "resnet50":
                    assert len(priced) == 21
                total += len(priced)
            assert total == 95

    def test_reports_of_one_shape_share_no_dicts(self, arch, resolved_builtins):
        net = resolved_builtins["resnet50"]
        expected, _ = dc.network_energy(net, DataflowKind.RS, arch)
        weighted = [l for l in net.layers if l.kind in WEIGHTED_KINDS]
        for i, layer in enumerate(weighted):
            same = [j for j, l in enumerate(weighted)
                    if j != i and shape_key(l) == shape_key(layer)]
            if not same:
                continue
            reports, _ = dc.network_energy(net, DataflowKind.RS, arch)
            for row in reports[i].movement.values():
                for level in row:
                    row[level] += 1.0
            assert reports[i] != expected[i]
            assert [reports[j] for j in same] == [expected[j] for j in same]

    def test_layers_of_one_shape_keep_their_names(self, arch):
        # a and b are both 2 -> 2 channel 3x3 convs on 8x8; the pool between
        # them keeps the extent
        spec = dc.NetworkSpec("twins", 2, 8, 8, (
            dc.LayerSpec("conv", "a", out_channels=2, kernel=(3, 3), pad=1),
            dc.LayerSpec("pool", "p", kernel=(1, 1)),
            dc.LayerSpec("conv", "b", out_channels=2, kernel=(3, 3), pad=1),
        ))
        net = dc.resolve_shapes(spec, batch=2)
        weighted = [l for l in net.layers if l.kind in WEIGHTED_KINDS]
        assert shape_key(weighted[0]) == shape_key(weighted[1])
        mods = Modifiers(density_in=0.5, bits_w=8)
        for kind in KINDS:
            reports, _ = dc.network_energy(net, kind, arch, mods)
            assert [r.layer for r in reports] == ["a", "b"]
            assert reports == [layer_energy(dc.layer_access_counts(kind, l, arch), arch, mods)
                               for l in weighted]


class TestKeyOrder:
    """Rows and matrices are built as literals, and dict == ignores key order,
    so the reference checks cannot see a row with its keys out of order. The
    renderers and the JSON output read them in order."""

    @staticmethod
    def assert_ordered(matrix):
        assert tuple(matrix) == DATA_TYPES
        for row in matrix.values():
            assert tuple(row) == LEVELS

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_builtin_layer(self, arch, resolved_builtins, kind):
        mods = Modifiers(density_in=0.5, bits_w=8)
        for net in resolved_builtins.values():
            for layer, _ in net.weighted:
                counts = dc.layer_access_counts(kind, layer, arch)
                self.assert_ordered(counts.acc)
                self.assert_ordered(layer_energy(counts, arch, mods).movement)
            reports, agg = dc.network_energy(net, kind, arch, mods)
            for rep in (*reports, agg):
                self.assert_ordered(rep.movement)
                assert tuple(rep.by_type) == DATA_TYPES
                assert tuple(rep.by_level) == LEVELS


class TestCompareDataflows:
    def test_alexnet_frozen_totals(self, arch, resolved_builtins):
        rep = dc.compare_dataflows(resolved_builtins["alexnet"], arch)
        totals = {en.kind: en.total for en in rep.entries}
        assert totals == {
            "ws": 18_624_993_574.0,
            "os": 18_492_252_442.0,
            "nlr": 22_638_038_876.0,
            "rs": 17_691_820_216.0,
        }
        conv = {en.kind: en.conv_total for en in rep.entries}
        assert conv == {
            "ws": 5_778_669_064.0,
            "os": 5_648_596_266.0,
            "nlr": 10_080_293_404.0,
            "rs": 4_934_816_632.0,
        }

    def test_winner_normalization(self, arch, resolved_builtins):
        rep = dc.compare_dataflows(resolved_builtins["alexnet"], arch)
        assert rep.winner == "rs"
        assert rep.conv_winner == "rs"
        assert [en.kind for en in rep.entries] == ["ws", "os", "nlr", "rs"]
        by_kind = {en.kind: en for en in rep.entries}
        assert by_kind["rs"].ratio == 1.0
        assert by_kind["rs"].conv_ratio == 1.0
        assert all(en.ratio >= 1.0 and en.conv_ratio >= 1.0 for en in rep.entries)

    def test_report_carries_network_identity(self, arch, resolved_builtins):
        rep = dc.compare_dataflows(resolved_builtins["lenet5"], arch)
        assert rep.network == "lenet5"
        assert rep.batch == 1
        assert len(rep.entries) == 4
        assert {en.kind for en in rep.entries} == {k.value for k in KINDS}

    def test_a_network_priced_at_zero_compares_at_ratio_one(self, arch):
        # a layer built in code with no channels moves nothing and does no
        # MACs, so every total is 0.0; both ratios over a zero best read 1.0
        empty = make_conv(0, 6, 6, 0, 3, 3, name="empty")
        rep = dc.compare_dataflows(dc.ResolvedNetwork("empty", 1, (empty,)), arch)
        assert [en.total for en in rep.entries] == [0.0] * 4
        assert all(en.ratio == en.conv_ratio == 1.0 for en in rep.entries)
        assert (rep.winner, rep.conv_winner) == ("ws", "ws")  # the first of equal totals

    def test_network_without_weighted_layers_is_rejected(self, arch):
        net = dc.resolve_shapes(dc.parse_network(json.dumps(UNWEIGHTED)))
        with pytest.raises(ValueError, match="network 'nw' has no weighted layers"):
            dc.compare_dataflows(net, arch)

    def test_a_hand_built_or_replaced_network_without_weighted_layers_is_rejected(
            self, arch, resolved_builtins):
        lenet = resolved_builtins["lenet5"]
        pools = tuple(layer for layer in lenet.layers if layer.kind not in WEIGHTED_KINDS)
        for net in (dc.ResolvedNetwork("nw", 1, ()), dc.ResolvedNetwork("nw", 2, pools),
                    lenet._replace(name="nw", layers=pools)):
            with pytest.raises(ValueError, match="^network 'nw' has no weighted layers$"):
                dc.compare_dataflows(net, arch)


UNWEIGHTED = {
    "name": "nw",
    "input": {"channels": 2, "height": 6, "width": 6},
    "layers": [{"type": "pool", "name": "p", "kernel": [2, 2], "stride": 2},
               {"type": "act", "name": "a"}],
}


def design_points(count, seed):
    """Seeded architectures, modifiers and batches for the reference check,
    each with one dataflow whose per-layer reports are compared too."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        word = rng.choice((8, 16, 32))
        noc = 1.0 + 3.0 * rng.random()
        buf = noc + 10.0 * rng.random()
        arch = ArchConfig(
            pe_count=rng.choice((1, 7, 64, 168, 256, 1024)), word_bits=word,
            energy=EnergyTable(rf=1.0, noc=noc, buf=buf, dram=100.0 + 300.0 * rng.random()),
            mac_energy=0.5 + 1.5 * rng.random(), rs_channels_per_pe=rng.randint(1, 8),
            nlr_lane_width=rng.choice((1, 4, 16, 32)))
        mods = Modifiers(density_in=0.3 + 0.7 * rng.random(),
                         density_w=0.3 + 0.7 * rng.random(),
                         bits_in=rng.choice((None, 1, word // 2, word)),
                         bits_w=rng.choice((None, 3, word)))
        kind = list(DataflowKind)[i % 4]
        points.append(pytest.param(arch, mods, rng.randint(1, 4), kind, id=f"point{i}"))
    return points


DESIGN_POINTS = design_points(50, seed=2016)


class TestPricingReference:
    """The engine's pricing equals the plain reference path bit for bit."""

    def test_grid_covers_the_corners(self):
        archs, mods, batches, _ = zip(*(p.values for p in DESIGN_POINTS))
        assert 1 in {a.pe_count for a in archs}
        assert 1 in {a.nlr_lane_width for a in archs}
        assert {8, 32} <= {a.word_bits for a in archs}
        assert None in {m.bits_in for m in mods}
        assert set(batches) == {1, 2, 3, 4}

    @pytest.mark.parametrize("arch, mods, batch, kind", DESIGN_POINTS)
    def test_engine_equals_reference(self, arch, mods, batch, kind):
        for name in dc.BUILTIN_NAMES:
            net = dc.resolve_shapes(dc.builtin(name), batch=batch)
            assert dc.compare_dataflows(net, arch, mods) == reference_compare(net, arch, mods)
            assert (dc.network_energy(net, kind, arch, mods)
                    == reference_network_energy(net, kind, arch, mods))

    def test_layers_of_one_name_are_marked_by_position(self):
        # only a network built by hand can give a conv and an fc one name
        conv = make_conv(2, 8, 8, 2, 3, 3, pad=1, name="x")
        fc = conv._replace(kind="fc", kernel=(8, 8), pad=0, out_height=1, out_width=1,
                           inputs=("x",))
        net = dc.ResolvedNetwork("twins", 1, (conv, fc))
        arch, mods = ArchConfig(), Modifiers()
        report = dc.compare_dataflows(net, arch, mods)
        assert report == reference_compare(net, arch, mods)
        assert {e.kind: e.conv_total for e in report.entries}["ws"] == 82_496


# each level's cost times a power of two, kept within EnergyTable's
# rf <= noc <= buf <= dram order from the default costs 1, 2, 6 and 200
LEVEL_SCALES = {"rf": 2.0, "noc": 2.0, "buf": 8.0, "dram": 8.0}
SCALING_POINTS = [
    pytest.param(ArchConfig(), Modifiers(), id="default"),
    pytest.param(ArchConfig(pe_count=64, word_bits=8, mac_energy=1.5, rs_channels_per_pe=2,
                            nlr_lane_width=4),
                 Modifiers(density_in=0.5, density_w=0.75, bits_in=4), id="small"),
]


def scaled(arch, factor, levels=LEVELS):
    """``arch`` with the costs of ``levels`` multiplied by ``factor``."""
    costs = {level: factor * getattr(arch.energy, level) for level in levels}
    return arch._replace(energy=arch.energy._replace(**costs))


def builtin_networks(batch):
    return [dc.resolve_shapes(dc.builtin(name), batch=batch) for name in dc.BUILTIN_NAMES]


@pytest.mark.parametrize("batch", (1, 3))
@pytest.mark.parametrize("arch, mods", SCALING_POINTS)
class TestScalingLaws:
    """Multiplying by a power of two is exact in binary floating point, short of
    overflow and underflow. So scaling costs by one obeys exact laws, checked
    with == on every built-in under every dataflow: a cost that prices the
    wrong level or is left out of a sum breaks them."""

    def test_one_level_scales_exactly_its_cells(self, arch, mods, batch):
        for net in builtin_networks(batch):
            for kind in KINDS:
                reports, agg = dc.network_energy(net, kind, arch, mods)
                base = [*reports, agg]
                for level, factor in LEVEL_SCALES.items():
                    reports, agg = dc.network_energy(net, kind, scaled(arch, factor, (level,)),
                                                     mods)
                    for rep, old in zip([*reports, agg], base, strict=True):
                        assert rep.movement == {
                            dtype: {lv: factor * cell if lv == level else cell
                                    for lv, cell in row.items()}
                            for dtype, row in old.movement.items()}
                        assert rep.by_level == {lv: factor * value if lv == level else value
                                                for lv, value in old.by_level.items()}
                        assert rep.compute == old.compute

    def test_every_cost_scales_every_total(self, arch, mods, batch):
        for k in (-2, 3):
            factor = 2.0 ** k
            dear = scaled(arch, factor)._replace(mac_energy=factor * arch.mac_energy)
            for net in builtin_networks(batch):
                old, new = dc.compare_dataflows(net, arch, mods), dc.compare_dataflows(net, dear,
                                                                                       mods)
                assert (new.winner, new.conv_winner) == (old.winner, old.conv_winner)
                for entry, before in zip(new.entries, old.entries, strict=True):
                    assert entry.kind == before.kind
                    assert (entry.total, entry.conv_total, entry.compute) == (
                        factor * before.total, factor * before.conv_total,
                        factor * before.compute)
                    assert (entry.ratio, entry.conv_ratio) == (before.ratio, before.conv_ratio)
                for kind in KINDS:
                    reports, agg = dc.network_energy(net, kind, dear, mods)
                    old_reports, old_agg = dc.network_energy(net, kind, arch, mods)
                    for rep, before in zip([*reports, agg], [*old_reports, old_agg], strict=True):
                        assert (rep.total, rep.compute) == (factor * before.total,
                                                            factor * before.compute)

    def test_access_counts_read_no_cost(self, arch, mods, batch):
        archs = [scaled(arch, factor, (level,)) for level, factor in LEVEL_SCALES.items()]
        archs.append(scaled(arch, 8.0)._replace(mac_energy=8.0 * arch.mac_energy))
        for net in builtin_networks(batch):
            for layer, _ in net.weighted:
                for kind in KINDS:
                    counts = dc.layer_access_counts(kind, layer, arch)
                    for other in archs:
                        assert dc.layer_access_counts(kind, layer, other) == counts


# operand densities whose products with any compute stay normal floats, so
# that halving and quartering them is exact
DENSITIES = st.floats(2.0 ** -10, 1.0)


@functools.cache
def builtins_at_batch_one():
    return builtin_networks(1)


def priced_pairs(layer, arch, mods, base):
    """(report under ``mods``, report under ``base``) for every weighted layer
    and aggregate of each built-in and of a network of ``layer`` alone, under
    every dataflow."""
    for net in (*builtins_at_batch_one(), dc.ResolvedNetwork("probe", layer.batch, (layer,))):
        for kind in KINDS:
            reports, agg = dc.network_energy(net, kind, arch, mods)
            base_reports, base_agg = dc.network_energy(net, kind, arch, base)
            yield from zip([*reports, agg], [*base_reports, base_agg], strict=True)


class TestModifierLaws:
    """The exact laws of the operand modifiers, checked with == under ARCHS,
    whose word is 16 bits: the densities scale compute alone, and halving an
    operand width halves exactly the terms that width prices."""

    @given(layer=hand_built_layers(), arch=ARCHS,
           density_in=st.floats(0.0, 1.0, exclude_min=True),
           density_w=st.floats(0.0, 1.0, exclude_min=True))
    @settings(deadline=None, max_examples=40)
    def test_movement_reads_no_density(self, layer, arch, density_in, density_w):
        sparse = Modifiers(density_in=density_in, density_w=density_w)
        for rep, dense in priced_pairs(layer, arch, sparse, Modifiers()):
            assert rep.movement == dense.movement
            assert rep.by_type == dense.by_type
            assert rep.by_level == dense.by_level

    @given(layer=hand_built_layers(), arch=ARCHS, density_in=DENSITIES, density_w=DENSITIES)
    @settings(deadline=None, max_examples=40)
    def test_half_widths_quarter_compute(self, layer, arch, density_in, density_w):
        full = Modifiers(density_in=density_in, density_w=density_w)
        half = full._replace(bits_in=8, bits_w=8)
        for rep, wide in priced_pairs(layer, arch, half, full):
            assert rep.compute == wide.compute / 4

    @given(layer=hand_built_layers(), arch=ARCHS, density_in=DENSITIES, density_w=DENSITIES)
    @settings(deadline=None, max_examples=40)
    def test_half_input_width_halves_the_input_rows(self, layer, arch, density_in, density_w):
        full = Modifiers(density_in=density_in, density_w=density_w)
        for rep, wide in priced_pairs(layer, arch, full._replace(bits_in=8), full):
            assert rep.movement == {
                **wide.movement, "input": {lv: c / 2 for lv, c in wide.movement["input"].items()}}
            assert rep.compute == wide.compute / 2
