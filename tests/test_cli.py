"""End-to-end command-line behavior: formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dnncost as dc
from dnncost.cli import (MAX_PRUNE_WEIGHTS, MAX_STREAM_WORDS, MAX_VERIFY_SIZE,
                         MAX_VERIFY_TRIALS, main)
from dnncost.netmodel import COUNT_BUDGET
from dnncost.stats import MAX_COUNT_SIZE


@pytest.fixture()
def runner():
    return CliRunner()


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


class TestStats:
    def test_csv_matches_library(self, runner):
        result = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                      "--format", "csv"])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert rows[0] == ["layer", "kind", "weights", "macs",
                           "d_in", "d_w", "d_out"]
        assert len(rows) == 6  # 4 weighted layers + total
        report = dc.network_stats(dc.resolve_shapes(dc.builtin("lenet5")))
        for row, layer in zip(rows[1:], report.layers):
            assert row[0] == layer.name
            assert int(row[2]) == layer.weights
            assert int(row[3]) == layer.macs
        assert rows[-1][0] == "total"
        assert int(rows[-1][2]) == 59_956
        assert int(rows[-1][3]) == 325_680

    def test_json_totals(self, runner):
        result = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                      "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["network"] == "lenet5"
        assert obj["totals"]["weights"] == 59_956
        assert obj["totals"]["macs"] == 325_680
        assert obj["totals"]["conv_layers"] == 2
        assert len(obj["layers"]) == 4

    def test_table_has_header_rule_and_total(self, runner):
        result = runner.invoke(main, ["stats", "--builtin", "lenet5"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("lenet5  batch 1")
        assert set(lines[2]) <= {"-", " "}
        assert lines[-1].startswith("total")
        assert "59,956" in lines[-1]

    def test_custom_network_file(self, runner, tmp_path):
        doc = {
            "name": "probe",
            "input": {"channels": 1, "height": 8, "width": 8},
            "layers": [{"type": "conv", "name": "c1", "out_channels": 2,
                        "kernel": [3, 3], "stride": 1, "pad": 0}],
        }
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["stats", "--net", str(path),
                                      "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["network"] == "probe"
        assert obj["layers"][0]["macs"] == 2 * 6 * 6 * 9

    def test_batch_option(self, runner):
        result = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                      "--batch", "4", "--format", "json"])
        obj = json.loads(result.stdout)
        assert obj["batch"] == 4
        assert obj["totals"]["macs"] == 4 * 325_680


class TestAnalyze:
    def test_csv_shape(self, runner):
        result = runner.invoke(main, ["analyze", "--builtin", "lenet5",
                                      "--dataflow", "ws", "--format", "csv"])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        # 4 layers + aggregate, each 3 types x 4 levels + 1 compute row
        assert len(rows) == 1 + 5 * 13
        assert rows[0] == ["layer", "dataflow", "type", "level", "energy"]
        assert all(row[1] == "ws" for row in rows[1:])
        assert rows[-1][:4] == ["total", "ws", "compute", "mac"]

    def test_quantized_compute_scaling(self, runner):
        def total_compute(args):
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            for row in rows_of(result.stdout):
                if row[0] == "total" and row[2] == "compute":
                    return float(row[4])
            raise AssertionError("no aggregate compute row")

        base = total_compute(["analyze", "--builtin", "lenet5",
                              "--dataflow", "nlr", "--format", "csv"])
        eight = total_compute(["analyze", "--builtin", "lenet5",
                               "--dataflow", "nlr", "--bits", "8",
                               "--format", "csv"])
        assert eight == 0.25 * base

    def test_json_breakdowns(self, runner):
        result = runner.invoke(main, ["analyze", "--builtin", "lenet5",
                                      "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["dataflow"] == "rs"
        total = obj["total"]
        assert total["total"] == pytest.approx(
            sum(total["by_type"].values()) + total["compute"])
        assert sum(total["by_type"].values()) == pytest.approx(
            sum(total["by_level"].values()))

    def test_table_footer_reports_levels(self, runner):
        result = runner.invoke(main, ["analyze", "--builtin", "lenet5"])
        assert result.exit_code == 0
        assert "movement by level:" in result.stdout.splitlines()[-1]

    def test_custom_arch_file(self, runner, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text(json.dumps({"energy": {"dram": 100.0}}))
        cheap = runner.invoke(main, ["analyze", "--builtin", "lenet5",
                                     "--arch", str(path), "--format", "json"])
        base = runner.invoke(main, ["analyze", "--builtin", "lenet5",
                                    "--format", "json"])
        assert cheap.exit_code == 0
        cheap_total = json.loads(cheap.stdout)["total"]["total"]
        base_total = json.loads(base.stdout)["total"]["total"]
        assert cheap_total < base_total


class TestCompare:
    def test_json_entries_and_winner(self, runner):
        result = runner.invoke(main, ["compare", "--builtin", "alexnet",
                                      "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["winner"] == "rs"
        assert obj["conv_winner"] == "rs"
        assert [e["dataflow"] for e in obj["entries"]] == ["ws", "os", "nlr", "rs"]
        ratios = {e["dataflow"]: e["ratio"] for e in obj["entries"]}
        assert ratios["rs"] == 1.0
        assert all(r >= 1.0 for r in ratios.values())

    def test_table_footer_names_winner(self, runner):
        result = runner.invoke(main, ["compare", "--builtin", "lenet5"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1].startswith("winner ")

    def test_deterministic_bytes(self, runner):
        args = ["compare", "--builtin", "lenet5", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code == 0


class TestKernelsCommands:
    def test_verify_passes(self, runner):
        result = runner.invoke(main, ["kernels", "verify", "--trials", "3"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 4
        assert all(line.endswith("ok") for line in lines[:3])
        assert lines[3] == "3 random problems checked"

    def test_verify_fixed_size(self, runner):
        result = runner.invoke(main, ["kernels", "verify", "--trials", "2",
                                      "--size", "8"])
        assert result.exit_code == 0

    def test_verify_rejects_tiny_size(self, runner):
        result = runner.invoke(main, ["kernels", "verify", "--size", "2"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("flag, cap", [("--size", MAX_VERIFY_SIZE),
                                           ("--trials", MAX_VERIFY_TRIALS)])
    def test_verify_caps(self, runner, flag, cap):
        result = runner.invoke(main, ["kernels", "verify", flag, str(cap + 1)])
        assert result.exit_code == 1
        assert f", {cap}], got {cap + 1}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["--method", "direct", "--out-size", str(MAX_COUNT_SIZE + 1), "--filter-size", "3"],
        ["--method", "fft", "--out-size", "8", "--filter-size", str(MAX_COUNT_SIZE + 1)],
        # 2,200 digits: the direct count would pass the 4,300-digit int-to-str limit
        ["--method", "im2col", "--out-size", "9" * 2200, "--filter-size", "3"],
        ["--method", "strassen", "--matrix-size", str(2 * MAX_COUNT_SIZE)],
        ["--method", "strassen", "--matrix-size", str(2**5200)],
    ])
    def test_count_size_cap(self, runner, args):
        result = runner.invoke(main, ["kernels", "count", *args])
        assert result.exit_code == 1
        assert f"must be <= {MAX_COUNT_SIZE}" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_count_fft_frozen_output(self, runner):
        result = runner.invoke(main, ["kernels", "count", "--method", "fft",
                                      "--out-size", "32", "--filter-size", "5"])
        assert result.exit_code == 0
        assert result.stdout == (
            "fft: 77824 multiplications  "
            "(out_size 32  filter_size 5  fft_size 64)\n"
            "direct: 25600 multiplications  ratio 3.040\n")

    def test_count_winograd_reports_saving(self, runner):
        result = runner.invoke(main, ["kernels", "count", "--method",
                                      "winograd", "--out-size", "8",
                                      "--filter-size", "3"])
        assert result.exit_code == 0
        assert "winograd: 256 multiplications" in result.stdout
        assert "ratio 0.444" in result.stdout

    def test_count_strassen(self, runner):
        result = runner.invoke(main, ["kernels", "count", "--method",
                                      "strassen", "--matrix-size", "8"])
        assert result.exit_code == 0
        assert result.stdout == "strassen: 343 multiplications  (matrix_size 8)\n"

    def test_count_missing_params(self, runner):
        result = runner.invoke(main, ["kernels", "count", "--method", "direct"])
        assert result.exit_code == 1


class TestCompress:
    def test_synthetic_stream(self, runner):
        result = runner.invoke(main, ["compress", "--n", "10000",
                                      "--sparsity", "0.7", "--seed", "1"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("elements 10000")
        ratio = float(lines[2].split()[-1])
        assert ratio >= 1.5
        assert lines[3] == "round trip ok"

    def test_file_round_trip(self, runner, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text("0 0 0 5 9 0 0\n")
        packed = tmp_path / "packed.bin"
        decoded = tmp_path / "decoded.txt"
        enc = runner.invoke(main, ["compress", "--encode", str(source),
                                   "--out", str(packed)])
        assert enc.exit_code == 0
        assert packed.stat().st_size > 0
        dec = runner.invoke(main, ["compress", "--decode", str(packed),
                                   "--out", str(decoded)])
        assert dec.exit_code == 0
        assert decoded.read_text().split() == ["0", "0", "0", "5", "9", "0", "0"]

    def test_empty_encode_writes_nothing(self, runner, tmp_path):
        # the ratio of an empty stream is undefined, and that is known before
        # anything is printed or written
        source = tmp_path / "empty.txt"
        source.write_text("")
        packed = tmp_path / "e.bin"
        result = runner.invoke(main, ["compress", "--encode", str(source),
                                      "--out", str(packed)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: ratio undefined for an empty stream\n"
        assert not packed.exists()

    def test_usage_guards(self, runner, tmp_path):
        both =runner.invoke(main, ["compress", "--encode", "a", "--decode", "b"])
        assert both.exit_code == 2
        no_out = runner.invoke(main, ["compress", "--encode", "a"])
        assert no_out.exit_code == 2
        missing = runner.invoke(main, ["compress", "--encode",
                                       str(tmp_path / "absent.txt"),
                                       "--out", str(tmp_path / "o.bin")])
        assert missing.exit_code == 1

    def test_stream_length_cap(self, runner):
        over = runner.invoke(main, ["compress", "--n", str(MAX_STREAM_WORDS + 1)])
        assert over.exit_code == 1
        assert f"--n must be in [1, {MAX_STREAM_WORDS}], got {MAX_STREAM_WORDS + 1}" \
            in over.stderr


class TestPrune:
    def test_half_fraction_density(self, runner):
        result = runner.invoke(main, ["prune", "--builtin", "lenet5",
                                      "--fraction", "0.5", "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.stdout)
        assert obj["total"]["weights"] == 59_730
        assert obj["total"]["kept"] == 29_865
        assert obj["total"]["density"] == 0.5

    def test_energy_order_runs(self, runner):
        result = runner.invoke(main, ["prune", "--builtin", "lenet5",
                                      "--order", "energy"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1].startswith("total")

    def test_seeded_determinism(self, runner):
        args = ["prune", "--builtin", "lenet5", "--format", "csv"]
        assert runner.invoke(main, args).stdout \
            == runner.invoke(main, args).stdout

    def test_every_builtin_fits_the_weight_cap(self):
        for name in dc.BUILTIN_NAMES:
            net = dc.resolve_shapes(dc.builtin(name))
            drawn = sum(dc.layer_stats(layer).dw for layer in net.layers)
            assert drawn <= MAX_PRUNE_WEIGHTS, name

    @pytest.mark.parametrize("out_channels", [MAX_PRUNE_WEIGHTS + 1])
    def test_weight_cap(self, runner, tmp_path, out_channels):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "name": "wide", "input": {"channels": 1, "height": 1, "width": 1},
            "layers": [{"type": "fc", "name": "f", "out_channels": out_channels}]}))
        result = runner.invoke(main, ["prune", "--net", str(path)])
        assert result.exit_code == 1
        assert result.stderr == (f"error: network 'wide' has more than {MAX_PRUNE_WEIGHTS} "
                                 f"weights, the most prune draws\n")


class TestCountBudget:
    """Every report command rejects a network past netmodel.COUNT_BUDGET with
    one message, whether the file or --batch makes its counts too large."""

    @pytest.mark.parametrize("command", ["stats", "analyze", "compare", "prune"])
    @pytest.mark.parametrize("source", ["file", "batch"])
    def test_over_budget_is_a_data_error(self, runner, tmp_path, command, source):
        if source == "file":
            # its counts also pass Python's 4,300-digit int-to-str limit
            path = tmp_path / "wide.json"
            path.write_text(json.dumps({
                "name": "wide", "input": {"channels": 10**4000, "height": 1, "width": 1},
                "layers": [{"type": "fc", "name": "f", "out_channels": 10**4000}]}))
            args, layer = ["--net", str(path)], "f"
        else:
            args, layer = ["--builtin", "lenet5", "--batch", str(10**24)], "c1"
        result = runner.invoke(main, [command, *args])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: layer '{layer}': macs exceeds the count budget "
                                 f"{COUNT_BUDGET}\n")


class TestExitCodes:
    def test_success(self, runner):
        assert runner.invoke(main, ["stats", "--builtin", "lenet5"]).exit_code == 0

    def test_usage_errors_are_two(self, runner):
        neither = runner.invoke(main, ["stats"])
        assert neither.exit_code == 2
        both = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                    "--net", "x.json"])
        assert both.exit_code == 2
        bad_flow = runner.invoke(main, ["analyze", "--builtin", "lenet5",
                                        "--dataflow", "diagonal"])
        assert bad_flow.exit_code == 2
        bad_fmt = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                       "--format", "yaml"])
        assert bad_fmt.exit_code == 2

    def test_compare_without_weighted_layers_is_a_data_error(self, runner, tmp_path):
        path = tmp_path / "nw.json"
        path.write_text(json.dumps({
            "name": "nw", "input": {"channels": 2, "height": 6, "width": 6},
            "layers": [{"type": "pool", "name": "p", "kernel": [2, 2], "stride": 2},
                       {"type": "act", "name": "a"}]}))
        compare = runner.invoke(main, ["compare", "--net", str(path)])
        assert compare.exit_code == 1
        assert "network 'nw' has no weighted layers" in compare.stderr
        assert "Traceback" not in compare.output
        for command in ("stats", "analyze"):
            result = runner.invoke(main, [command, "--net", str(path), "--format", "csv"])
            assert result.exit_code == 0
            total = rows_of(result.stdout)[-1]
            assert (total[0], total[-1]) == ("total", "0")

    @pytest.mark.parametrize("command", ["compare", "analyze"])
    def test_overflowing_costs_are_a_data_error(self, runner, tmp_path, command):
        arch = tmp_path / "huge.json"
        arch.write_text('{"mac_energy": 1e308}')
        result = runner.invoke(main, [command, "--builtin", "lenet5", "--arch", str(arch)])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert "network 'lenet5', dataflow " in result.stderr
        assert "not a finite number" in result.stderr
        assert "nan" not in result.stdout and "inf" not in result.stdout

    def test_data_errors_are_one(self, runner, tmp_path):
        missing = runner.invoke(main, ["stats", "--net",
                                       str(tmp_path / "absent.json")])
        assert missing.exit_code == 1
        unknown = runner.invoke(main, ["stats", "--builtin", "mobilenet"])
        assert unknown.exit_code == 1
        assert "unknown built-in" in unknown.stderr
        bad_bits = runner.invoke(main, ["analyze", "--builtin", "lenet5",
                                        "--bits", "0"])
        assert bad_bits.exit_code == 1
        garbled = tmp_path / "broken.json"
        garbled.write_text("{not json")
        syntax = runner.invoke(main, ["stats", "--net", str(garbled)])
        assert syntax.exit_code == 1

    @pytest.mark.parametrize("args", [["kernels", "verify"],
                                      ["prune", "--builtin", "lenet5"],
                                      ["compress"]])
    def test_negative_seed_is_a_data_error(self, runner, args):
        result = runner.invoke(main, [*args, "--seed", "-1"])
        assert result.exit_code == 1
        assert result.stderr == "error: --seed must be >= 0, got -1\n"

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("stats", "analyze", "compare", "kernels",
                     "compress", "prune"):
            assert name in result.stdout


class TestOutFile:
    def test_report_written_to_disk(self, runner, tmp_path):
        target = tmp_path / "report.csv"
        direct = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                      "--format", "csv"])
        to_file = runner.invoke(main, ["stats", "--builtin", "lenet5",
                                       "--format", "csv", "--out", str(target)])
        assert to_file.exit_code == 0
        assert to_file.stdout == ""
        assert target.read_text() == direct.stdout


# run in a fresh interpreter: this process has loaded numpy long ago
_RUN_CLI = """
import sys
from dnncost.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
assert "numpy" not in sys.modules, "numpy was imported"
"""
_PACKAGE_API = """
import sys
import dnncost as dc
assert "numpy" not in sys.modules, "numpy was imported"
assert set(dc.__all__) <= set(dir(dc))
from dnncost import conv_fft
assert conv_fft is dc.kernels.conv_fft
assert dc.optkit.rle_encode is dc.rle_encode
names = {}
exec("from dnncost import *", names)
assert set(dc.__all__) <= set(names), set(dc.__all__) - set(names)
try:
    dc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""


def _fresh_python(code, *args):
    src = Path(dc.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)


class TestNumpyFreeStart:
    @pytest.mark.parametrize("args", [["stats", "--builtin", "alexnet"],
                                      ["analyze", "--builtin", "alexnet"],
                                      ["compare", "--builtin", "alexnet"],
                                      ["kernels", "count", "--method", "fft",
                                       "--out-size", "32", "--filter-size", "5"]])
    def test_report_commands_do_not_import_numpy(self, args):
        result = _fresh_python(_RUN_CLI, *args)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    def test_package_names_resolve_on_first_use(self):
        result = _fresh_python(_PACKAGE_API)
        assert result.returncode == 0, result.stderr
