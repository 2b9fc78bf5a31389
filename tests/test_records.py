"""The plain records are named tuples: fixed fields in a fixed order, compared
by value, and read-only."""

import pytest

import dnncost as dc
from dnncost.cli import _Report
from oracles import make_conv

TINY = make_conv(1, 3, 3, 1, 2, 2)


def build():
    """One fresh instance of each record, from the library where it makes one."""
    arch = dc.default_arch()
    factors = dc.reuse_factors(dc.DataflowKind.WS, TINY, arch)
    counts = dc.access_counts(factors)
    return {
        dc.TypeReuse: factors.weight,
        dc.ReuseFactors: factors,
        dc.AccessCounts: counts,
        dc.EnergyReport: dc.layer_energy(counts, arch),
        dc.MultCount: dc.mult_count("fft", out_size=8, filter_size=3),
        _Report: _Report(title="t", headers=("a",), rows=[(1,)], json_obj={"a": 1}),
    }


FIELDS = {
    dc.TypeReuse: ("resident", "rf_reuse", "share"),
    dc.ReuseFactors: ("kind", "layer", "input", "weight", "psum"),
    dc.AccessCounts: ("layer", "kind", "total_macs", "acc"),
    dc.EnergyReport: ("layer", "dataflow", "movement", "compute"),
    dc.MultCount: ("method", "count", "params"),
    _Report: ("title", "headers", "rows", "json_obj", "footer", "formats", "csv_rows"),
}


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda record: record.__name__)
class TestRecord:
    def test_field_names_in_order(self, record):
        assert record._fields == FIELDS[record]

    def test_compares_by_value(self, record):
        one, other = build()[record], build()[record]
        assert type(one) is record
        assert one == other and one is not other
        first = FIELDS[record][0]
        assert one._replace(**{first: "changed"}) != other

    def test_assignment_raises(self, record):
        instance = build()[record]
        for name in FIELDS[record]:
            with pytest.raises(AttributeError):
                setattr(instance, name, getattr(instance, name))
