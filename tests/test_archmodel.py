"""Hardware configuration parsing and validation."""

import json

import pytest
from click.testing import CliRunner

import dnncost as dc
from dnncost.archmodel import ArchError
from dnncost.cli import main


class TestDefaults:
    def test_default_values(self, arch):
        assert arch.pe_count == 256
        assert arch.word_bits == 16
        assert arch.mac_energy == 1.0
        assert arch.rs_channels_per_pe == 4
        assert (arch.energy.rf, arch.energy.noc,
                arch.energy.buf, arch.energy.dram) == (1, 2, 6, 200)

    def test_cost_lookup(self, arch):
        assert [arch.energy.cost(lv) for lv in ("rf", "noc", "buf", "dram")] \
            == [1, 2, 6, 200]
        with pytest.raises(ArchError):
            arch.energy.cost("l2")


class TestValidation:
    def test_energy_ordering_enforced(self):
        with pytest.raises(ArchError, match="ordered"):
            dc.ArchConfig(energy=dc.EnergyTable(rf=1, noc=2, buf=6, dram=0.5))

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
