"""Hardware configuration parsing and validation."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dnncost as dc
from dnncost.archmodel import LEVELS, ArchError
from dnncost.cli import main
from oracles import mostly


class TestDefaults:
    def test_default_values(self, arch):
        assert arch.pe_count == 256
        assert arch.word_bits == 16
        assert arch.mac_energy == 1.0
        assert arch.rs_channels_per_pe == 4
        assert (arch.energy.rf, arch.energy.noc,
                arch.energy.buf, arch.energy.dram) == (1, 2, 6, 200)


class TestValidation:
    def test_energy_ordering_enforced(self):
        with pytest.raises(ArchError) as info:
            dc.ArchConfig(energy=dc.EnergyTable(rf=1, noc=2, buf=6, dram=0.5))
        assert str(info.value) == ("energy costs must be ordered rf <= noc <= buf <= dram, "
                                   "got (1.0, 2.0, 6.0, 0.5)")

    def test_word_bits_bounds(self):
        with pytest.raises(ArchError):
            dc.ArchConfig(word_bits=0)
        with pytest.raises(ArchError):
            dc.ArchConfig(word_bits=65)
        assert dc.ArchConfig(word_bits=64).word_bits == 64

    def test_positive_counts(self):
        with pytest.raises(ArchError):
            dc.ArchConfig(pe_count=0)
        with pytest.raises(ArchError):
            dc.ArchConfig(rs_channels_per_pe=0)


class TestParse:
    def test_empty_document_gives_defaults(self, arch):
        assert dc.parse_arch("{}") == arch

    def test_field_override(self):
        cfg = dc.parse_arch(json.dumps({"energy": {"dram": 100}}))
        assert (cfg.energy.rf, cfg.energy.noc, cfg.energy.buf,
                cfg.energy.dram) == (1, 2, 6, 100)
        assert cfg.pe_count == 256

    def test_ordering_violation_rejected(self):
        with pytest.raises(ArchError):
            dc.parse_arch(json.dumps({"energy": {"dram": 0.5}}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ArchError, match="sram"):
            dc.parse_arch(json.dumps({"sram": 1}))
        with pytest.raises(ArchError, match="energy"):
            dc.parse_arch(json.dumps({"energy": {"l2": 3}}))

    def test_not_json(self):
        with pytest.raises(ArchError):
            dc.parse_arch("pe_count: 4")

    def test_parse_serialize_identity(self, arch):
        assert dc.parse_arch(dc.serialize_arch(arch)) == arch
        custom = dc.ArchConfig(pe_count=64, word_bits=8,
                               energy=dc.EnergyTable(1, 3, 7, 150),
                               nlr_lane_width=8)
        assert dc.parse_arch(dc.serialize_arch(custom)) == custom

    @pytest.mark.parametrize("text", [
        '{"energy": {"dram": Infinity}}',
        '{"energy": {"rf": NaN}}',
        '{"energy": {"noc": -Infinity}}',
        '{"mac_energy": NaN}',
        '{"mac_energy": Infinity}',
    ])
    def test_non_finite_costs_rejected(self, text, tmp_path):
        with pytest.raises(ArchError, match="finite"):
            dc.parse_arch(text)
        path = tmp_path / "arch.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["compare", "--builtin", "alexnet",
                                           "--arch", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "finite" in result.stderr

    def test_deep_nesting_rejected(self):
        with pytest.raises(ArchError, match="not valid JSON"):
            dc.parse_arch("[" * 100_000)

    def test_integer_cost_beyond_float_range_rejected(self, tmp_path):
        text = json.dumps({"energy": {"dram": 10 ** 400}})
        with pytest.raises(ArchError, match="finite"):
            dc.parse_arch(text)
        path = tmp_path / "arch.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["compare", "--builtin", "lenet5",
                                           "--arch", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: energy cost for dram")


COSTS = st.integers(1, 400) | st.floats(0.5, 400.0)
# each field optional, mostly in range; energy is a table of optional
# costs, or now and then a scalar
ARCHS = st.fixed_dictionaries({}, optional={
    "pe_count": mostly(st.integers(1, 1024)),
    "word_bits": mostly(st.integers(1, 70)),
    "mac_energy": mostly(COSTS),
    "rs_channels_per_pe": mostly(st.integers(1, 8)),
    "nlr_lane_width": mostly(st.integers(1, 32)),
    "energy": mostly(st.fixed_dictionaries(
        {}, optional={level: mostly(COSTS) for level in LEVELS})),
})


def accepted(fn, *args, **kwargs):
    """``fn(...)``, or None when it raises an ArchError; any other exception
    propagates."""
    try:
        return fn(*args, **kwargs)
    except ArchError:
        return None


def build_arch(fields):
    energy = fields.get("energy")
    if isinstance(energy, dict):
        fields = {**fields, "energy": dc.EnergyTable(**energy)}
    return dc.ArchConfig(**fields)


class TestCodeAndJsonAgree:
    """A configuration built in code is accepted exactly when its JSON form
    is, and then both give the same config, which round-trips. Only an
    ArchError escapes."""

    @settings(deadline=None, max_examples=400)
    @given(fields=ARCHS)
    @example(fields={"pe_count": 2.5})
    @example(fields={"nlr_lane_width": math.nan})
    @example(fields={"word_bits": "16"})
    @example(fields={"energy": {"dram": 2 ** 53 + 1}})
    @example(fields={"energy": {"buf": 10 ** 400}})
    def test_code_and_json_accept_alike(self, fields):
        built = accepted(build_arch, fields)
        parsed = accepted(dc.parse_arch, json.dumps(fields))
        assert (built is None) == (parsed is None)
        if built is not None:
            e = built.energy
            counts = (built.pe_count, built.word_bits, built.rs_channels_per_pe,
                      built.nlr_lane_width)
            assert all(type(n) is int and n >= 1 for n in counts) and built.word_bits <= 64
            costs = (built.mac_energy, e.rf, e.noc, e.buf, e.dram)
            assert all(type(c) is float and 0 < c < math.inf for c in costs)
            assert e.rf <= e.noc <= e.buf <= e.dram
            assert parsed == built
            assert dc.parse_arch(dc.serialize_arch(built)) == built
