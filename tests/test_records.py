"""The records are named tuples: fixed fields in a fixed order, compared by
value, and read-only. The checked ones build every copy through their
constructor. The only dataclasses are the four that ``bench/selftest.py``
copies with ``dataclasses.replace``."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import dnncost as dc
from dnncost.archmodel import ArchError
from dnncost.cli import _Report
from dnncost.energy import ComparisonReport, DataflowComparison
from dnncost.netmodel import LayerStats, NetworkSemanticError
from dnncost.stats import NetworkStats
from oracles import make_conv

TINY = make_conv(1, 3, 3, 1, 2, 2)


def build():
    """One fresh instance of each record, from the library where it makes one."""
    arch = dc.default_arch()
    factors = dc.reuse_factors(dc.DataflowKind.WS, TINY, arch)
    counts = dc.access_counts(factors)
    spec = dc.LayerSpec("conv", "c", out_channels=2, kernel=(3, 3))
    layer = make_conv(1, 3, 3, 1, 2, 2)
    return {
        dc.TypeReuse: factors.weight,
        dc.ReuseFactors: factors,
        dc.AccessCounts: counts,
        dc.EnergyReport: dc.layer_energy(counts, arch),
        dc.MultCount: dc.mult_count("fft", out_size=8, filter_size=3),
        _Report: _Report(head={"network": "n"}, headers=("a",), rows=[(1,)], body={"a": 1}),
        dc.LayerSpec: spec,
        dc.NetworkSpec: dc.NetworkSpec("n", 1, 4, 4, (spec,)),
        dc.ResolvedLayer: layer,
        dc.ResolvedNetwork: dc.ResolvedNetwork("n", 1, (layer,)),
        dc.EnergyTable: dc.EnergyTable(),
        dc.ArchConfig: arch,
        dc.Modifiers: dc.Modifiers(),
    }


FIELDS = {
    dc.TypeReuse: ("resident", "rf_reuse", "share"),
    dc.ReuseFactors: ("kind", "layer", "input", "weight", "psum"),
    dc.AccessCounts: ("layer", "kind", "total_macs", "acc"),
    dc.EnergyReport: ("layer", "dataflow", "movement", "compute"),
    dc.MultCount: ("method", "count", "params"),
    _Report: ("head", "headers", "rows", "body", "footer", "formats", "csv_rows"),
    dc.LayerSpec: ("kind", "name", "out_channels", "kernel", "stride", "pad", "groups", "bias",
                   "connections", "inputs"),
    dc.NetworkSpec: ("name", "in_channels", "in_height", "in_width", "layers"),
    dc.ResolvedLayer: ("kind", "name", "batch", "in_channels", "in_height", "in_width",
                       "out_channels", "out_height", "out_width", "kernel", "stride", "pad",
                       "groups", "bias", "connections", "inputs"),
    dc.ResolvedNetwork: ("name", "batch", "layers"),
    dc.EnergyTable: ("rf", "noc", "buf", "dram"),
    dc.ArchConfig: ("pe_count", "word_bits", "energy", "mac_energy", "rs_channels_per_pe",
                    "nlr_lane_width"),
    dc.Modifiers: ("density_in", "density_w", "bits_in", "bits_w"),
}

# a changed value that the record's constructor accepts, where "changed" in
# its first field would be rejected
CHANGE = {dc.LayerSpec: ("name", "changed"), dc.EnergyTable: ("rf", 0.5),
          dc.ArchConfig: ("pe_count", 8), dc.Modifiers: ("density_in", 0.5)}

# the records whose constructor checks, normalises or derives values
CHECKED = (dc.LayerSpec, dc.NetworkSpec, dc.ResolvedLayer, dc.ResolvedNetwork, dc.EnergyTable,
           dc.ArchConfig, dc.Modifiers)


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda record: record.__name__)
class TestRecord:
    def test_field_names_in_order(self, record):
        assert record._fields == FIELDS[record]

    def test_compares_by_value(self, record):
        one, other = build()[record], build()[record]
        assert type(one) is record
        assert one == other and one is not other
        field, value = CHANGE.get(record, (FIELDS[record][0], "changed"))
        assert one._replace(**{field: value}) != other

    def test_assignment_raises(self, record):
        instance = build()[record]
        for name in FIELDS[record]:
            with pytest.raises(AttributeError):
                setattr(instance, name, getattr(instance, name))


def test_the_dataclasses_are_the_four_bench_selftest_copies():
    found = set()
    for module in pkgutil.iter_modules(dc.__path__):
        found.update(obj for obj in vars(importlib.import_module(f"dnncost.{module.name}")).values()
                     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                     and obj.__module__.startswith("dnncost"))
    assert found == {LayerStats, NetworkStats, DataflowComparison, ComparisonReport}


class TestCheckedRecords:
    """``_replace`` and ``_make`` build through the constructor, so a copy is
    checked, normalised and derived as a record built by a call is."""

    def test_replace_and_make_check(self):
        spec = build()[dc.LayerSpec]
        stride_0 = "^layer 'c': stride must be an integer >= 1, got 0$"
        with pytest.raises(NetworkSemanticError, match=stride_0):
            spec._replace(stride=0)
        with pytest.raises(NetworkSemanticError, match=stride_0):
            dc.LayerSpec._make((*spec[:4], 0, *spec[5:]))
        with pytest.raises(NetworkSemanticError, match="layers must be a non-empty tuple"):
            build()[dc.NetworkSpec]._replace(layers=())
        with pytest.raises(ArchError, match="^energy costs must be ordered"):
            dc.EnergyTable()._replace(rf=7)
        with pytest.raises(ArchError, match="^pe_count must be an integer >= 1, got 0$"):
            dc.ArchConfig._make((0, 16, dc.EnergyTable(), 1.0, 4, 16))
        with pytest.raises(ValueError, match=r"^density_in must be in \(0, 1\], got 0$"):
            dc.Modifiers()._replace(density_in=0)

    def test_replace_and_make_store_costs_as_floats(self):
        for table in (dc.EnergyTable()._replace(dram=300), dc.EnergyTable._make((1, 2, 6, 300))):
            assert table.dram == 300.0 and type(table.dram) is float
        cfg = dc.default_arch()._replace(mac_energy=2)
        assert type(cfg.mac_energy) is float and cfg == dc.ArchConfig(mac_energy=2.0)

    def test_replace_and_make_derive_again(self):
        layer = make_conv(2, 8, 8, 4, 3, 3)
        for four in (layer._replace(batch=4), dc.ResolvedLayer._make((*layer[:2], 4, *layer[3:]))):
            st = layer.stats
            assert four.stats == dataclasses.replace(st, macs=4 * st.macs, di=4 * st.di,
                                                     do=4 * st.do)
        net = dc.ResolvedNetwork("n", 1, (layer,))
        other = layer._replace(name="b", out_channels=2)
        for grown in (net._replace(layers=(layer, other, layer)),
                      dc.ResolvedNetwork._make(("n", 1, (layer, other, layer)))):
            assert [(lay.name, first) for lay, first in grown.weighted] == [
                ("probe", 0), ("b", 1), ("probe", 0)]

    def test_derived_values_stay_out_of_equality_hash_and_repr(self):
        layer, net = build()[dc.ResolvedLayer], build()[dc.ResolvedNetwork]
        assert "stats" not in repr(layer) and "weighted" not in repr(net)
        assert layer == tuple(layer) and hash(layer) == hash(tuple(layer))
        assert net == tuple(net) and hash(net) == hash(tuple(net))

    def test_derived_values_are_read_only(self):
        layer, net = build()[dc.ResolvedLayer], build()[dc.ResolvedNetwork]
        for record, name in ((layer, "stats"), (net, "weighted"), (layer, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            del layer.stats

    def test_a_pickled_copy_is_derived_again(self):
        layer = build()[dc.ResolvedLayer]
        copy = pickle.loads(pickle.dumps(layer))
        assert copy == layer and copy.stats == layer.stats

    @pytest.mark.parametrize("record", CHECKED, ids=lambda record: record.__name__)
    def test_the_signature_names_the_fields(self, record):
        assert tuple(inspect.signature(record).parameters) == FIELDS[record]

    def test_a_record_equals_the_plain_tuple_of_its_fields(self):
        # as every named tuple does; where a plain tuple must not pass for a
        # record, the code that takes one checks its type
        plain = (1.0, 2.0, 6.0, 200.0)
        assert dc.EnergyTable() == plain and hash(dc.EnergyTable()) == hash(plain)
        with pytest.raises(ArchError, match="^energy must be an EnergyTable"):
            dc.ArchConfig(energy=plain)
        spec = build()[dc.LayerSpec]
        with pytest.raises(NetworkSemanticError, match="layers must be LayerSpec objects"):
            dc.NetworkSpec("n", 1, 4, 4, (tuple(spec),))
        with pytest.raises(TypeError, match="^resolve_shapes takes a NetworkSpec, got tuple$"):
            dc.resolve_shapes(tuple(build()[dc.NetworkSpec]))
