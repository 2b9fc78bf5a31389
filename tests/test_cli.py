"""End-to-end command-line behavior: formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import dnncost as dc
from dnncost.cli import (MAX_DECODE_BYTES, MAX_DESCRIPTION_CHARS, MAX_ENCODE_CHARS,
                         MAX_PRUNE_WEIGHTS, MAX_STREAM_WORDS, MAX_VERIFY_SIZE,
                         MAX_VERIFY_TRIALS, main)
from dnncost.netmodel import COUNT_BUDGET, WEIGHTED_KINDS, _budget, _drain
from dnncost.stats import MAX_COUNT_SIZE


@pytest.fixture()
def runner():
    return CliRunner()


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def _usage_error(path, error, group=False):
    """What a usage error prints: the usage line, the help hint and the error."""
    usage = f"{path} [OPTIONS]" + (" COMMAND [ARGS]..." if group else "")
    return f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {error}\n"


_GOLDEN = Path(__file__).parent / "golden"
# a group given no command prints its help, as a usage error
_GROUP_HELP = (_GOLDEN / "help.txt").read_text()
_KERNELS_HELP = (_GOLDEN / "help-kernels.txt").read_text()


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

    def test_verify_fails_on_a_deviating_route(self, runner, monkeypatch):
        conv_fft = dc.kernels.conv_fft
        monkeypatch.setattr(dc.kernels, "conv_fft", lambda x, w: conv_fft(x, w) * 1.01)
        result = runner.invoke(main, ["kernels", "verify", "--trials", "2"])
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[0].endswith("ok") and lines[1].endswith("ok")
        assert lines[2].startswith("fft      vs direct: max rel 1.0")
        assert lines[2].endswith("tol 1e-06  FAIL")
        assert lines[3] == "2 random problems checked"

    def test_verify_fixed_size(self, runner):
        result = runner.invoke(main, ["kernels", "verify", "--trials", "2",
                                      "--size", "8"])
        assert result.exit_code == 0

    def test_verify_rejects_tiny_size(self, runner):
        result = runner.invoke(main, ["kernels", "verify", "--size", "2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: --size must be an integer in [3, {MAX_VERIFY_SIZE}], "
                                 "got 2\n")

    @pytest.mark.parametrize("flag, cap", [("--size", MAX_VERIFY_SIZE),
                                           ("--trials", MAX_VERIFY_TRIALS)])
    def test_verify_caps(self, runner, flag, cap):
        low = {"--size": 3, "--trials": 1}[flag]
        result = runner.invoke(main, ["kernels", "verify", flag, str(cap + 1)])
        assert result.exit_code == 1
        assert result.stderr == (f"error: {flag} must be an integer in [{low}, {cap}], "
                                 f"got {cap + 1}\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("args, name, value", [
        (["--method", "direct", "--out-size", str(MAX_COUNT_SIZE + 1), "--filter-size", "3"],
         "--out-size", MAX_COUNT_SIZE + 1),
        (["--method", "fft", "--out-size", "8", "--filter-size", str(MAX_COUNT_SIZE + 1)],
         "--filter-size", MAX_COUNT_SIZE + 1),
        # 2,200 digits: the direct count would pass the 4,300-digit int-to-str limit
        (["--method", "im2col", "--out-size", "9" * 2200, "--filter-size", "3"],
         "--out-size", int("9" * 2200)),
        (["--method", "strassen", "--matrix-size", str(2 * MAX_COUNT_SIZE)],
         "--matrix-size", 2 * MAX_COUNT_SIZE),
        (["--method", "strassen", "--matrix-size", str(2**5200)], "--matrix-size", 2**5200),
        # the range is checked before the power of two
        (["--method", "strassen", "--matrix-size", str(MAX_COUNT_SIZE + 1)],
         "--matrix-size", MAX_COUNT_SIZE + 1),
        # in the order the method reads its sizes
        (["--method", "winograd", "--out-size", "0", "--filter-size", "0"], "--out-size", 0),
    ])
    def test_count_size_cap(self, runner, args, name, value):
        result = runner.invoke(main, ["kernels", "count", *args])
        assert result.exit_code == 1
        assert result.stderr == (f"error: {name} must be an integer in [1, {MAX_COUNT_SIZE}], "
                                 f"got {value}\n")
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
        assert result.exit_code == 2
        assert result.stderr.endswith(
            "Error: --method direct needs --out-size and --filter-size\n")


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

    @pytest.mark.parametrize("sparsity", ["-0.1", "1.5"])
    def test_sparsity_range(self, runner, sparsity):
        result = runner.invoke(main, ["compress", "--sparsity", sparsity])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: --sparsity must be in [0, 1], got {float(sparsity)}\n"

    def test_round_trip_failure(self, runner, monkeypatch):
        # the synthetic stream's round trip decodes to an array, not a list
        monkeypatch.setattr(dc.optkit, "_word_array", lambda data: np.zeros(0, np.int64))
        result = runner.invoke(main, ["compress", "--n", "64"])
        assert result.exit_code == 1
        assert result.stdout.splitlines()[-1] == "round trip FAILED"

    def test_decode_length_cap(self, runner, tmp_path):
        # 256 zeros encode as 8 (31, 0) filler pairs in 21 bytes, so this
        # 262,500-byte stream would decode to 3,200,000 words
        packed = tmp_path / "filler.bin"
        packed.write_bytes(dc.rle_encode([0] * 256) * 12_500)
        out = tmp_path / "words.txt"
        result = runner.invoke(main, ["compress", "--decode", str(packed), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: --decode stream must hold at most "
                                 f"{MAX_STREAM_WORDS} words, got 3200000\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra, code", [([], 0), ([7], 1)], ids=["at-cap", "one-over"])
    def test_decode_at_the_cap(self, runner, tmp_path, extra, code):
        packed = tmp_path / "zeros.bin"
        packed.write_bytes(dc.rle_encode([0] * MAX_STREAM_WORDS + extra))
        out = tmp_path / "words.txt"
        result = runner.invoke(main, ["compress", "--decode", str(packed), "--out", str(out)])
        assert result.exit_code == code
        if code:
            assert result.stdout == ""
            assert result.stderr == (f"error: --decode stream must hold at most "
                                     f"{MAX_STREAM_WORDS} words, got {MAX_STREAM_WORDS + 1}\n")
            assert not out.exists()
        else:
            assert result.stdout.endswith(f" bytes -> {MAX_STREAM_WORDS} words\n")
            assert out.read_text() == "0\n" * MAX_STREAM_WORDS

    def test_decode_byte_cap_is_the_packed_word_cap(self):
        assert MAX_DECODE_BYTES == -(-MAX_STREAM_WORDS * dc.optkit.PAIR_BITS // 8)

    @pytest.mark.parametrize("size, code", [(MAX_DECODE_BYTES, 0), (MAX_DECODE_BYTES + 1, 1),
                                            (21_000_000, 1)],
                             ids=["at-cap", "one-over", "21MB"])
    def test_decode_byte_cap(self, runner, tmp_path, size, code):
        # zero bytes are (0, 0) pairs, one word each: at the cap, exactly
        # MAX_STREAM_WORDS of them
        packed = tmp_path / "zeros.bin"
        packed.write_bytes(bytes(size))
        out = tmp_path / "words.txt"
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["compress", "--decode", str(packed), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == code
        if code:
            assert result.stdout == ""
            assert result.stderr == (f"error: --decode file must be at most {MAX_DECODE_BYTES} "
                                     f"bytes, the packed size of {MAX_STREAM_WORDS} pairs\n")
            assert not out.exists()
            assert peak < 2 * MAX_DECODE_BYTES  # read no further than the cap
        else:
            assert result.stdout == f"{size} bytes -> {MAX_STREAM_WORDS} words\n"
            assert out.read_text() == "0\n" * MAX_STREAM_WORDS

    def test_encode_at_the_caps(self, runner, tmp_path):
        # the longest text --decode writes encodes to a file --decode accepts
        source = tmp_path / "words.txt"
        source.write_text("65535\n" * MAX_STREAM_WORDS)
        packed = tmp_path / "packed.bin"
        result = runner.invoke(main, ["compress", "--encode", str(source), "--out", str(packed)])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"{MAX_STREAM_WORDS} words -> {MAX_DECODE_BYTES} bytes ")
        assert packed.read_bytes() == dc.rle_encode([65535] * MAX_STREAM_WORDS)

    @pytest.mark.parametrize("word, count, tail, error", [
        ("1 ", MAX_STREAM_WORDS + 1, "",
         f"must hold at most {MAX_STREAM_WORDS} words, got {MAX_STREAM_WORDS + 1}"),
        ("65535\n", MAX_STREAM_WORDS, "7", f"must be at most {MAX_ENCODE_CHARS} characters"),
        ("12345 ", 3_500_000, "", f"must be at most {MAX_ENCODE_CHARS} characters"),
    ], ids=["one-word-over", "one-char-over", "21MB"])
    def test_encode_over_a_cap(self, runner, tmp_path, word, count, tail, error):
        source = tmp_path / "words.txt"
        source.write_text(word * count + tail)
        packed = tmp_path / "packed.bin"
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["compress", "--encode", str(source),
                                          "--out", str(packed)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: --encode file {error}\n"
        assert not packed.exists()
        # the text read up to the cap and one pointer per token; no word built
        assert peak < 3 * MAX_ENCODE_CHARS

    def test_encode_char_cap_is_the_longest_decoded_text(self):
        assert MAX_ENCODE_CHARS == len(f"{dc.optkit.MAX_VALUE}\n") * MAX_STREAM_WORDS

    def test_caps_follow_the_codec_format(self):
        # cli derives both from the codec widths in netmodel, which optkit encodes with
        assert MAX_DECODE_BYTES == MAX_STREAM_WORDS * dc.optkit.PAIR_BITS // 8
        assert MAX_ENCODE_CHARS == MAX_STREAM_WORDS * (len(str(dc.optkit.MAX_VALUE)) + 1)
        assert (MAX_DECODE_BYTES, MAX_ENCODE_CHARS) == (2_752_512, 6_291_456)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+7", "-7", "\uff17"],
                             ids=["underscore", "arabic-indic", "plus", "minus", "fullwidth"])
    def test_encode_reads_only_ascii_decimal_words(self, runner, tmp_path, token):
        source = tmp_path / "words.txt"
        source.write_text(f"1 {token} 3\n", encoding="utf-8")
        packed = tmp_path / "packed.bin"
        result = runner.invoke(main, ["compress", "--encode", str(source), "--out", str(packed)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: --encode words must be ASCII decimal digits, "
                                 f"got {token!r}\n")
        assert not packed.exists()

    def test_encode_reads_leading_zeros(self, runner, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text("007\n")
        packed = tmp_path / "packed.bin"
        result = runner.invoke(main, ["compress", "--encode", str(source), "--out", str(packed)])
        assert result.exit_code == 0
        assert packed.read_bytes() == dc.rle_encode([7])

    def test_stream_length_cap(self, runner):
        over = runner.invoke(main, ["compress", "--n", str(MAX_STREAM_WORDS + 1)])
        assert over.exit_code == 1
        assert over.stdout == ""
        assert over.stderr == (f"error: --n must be an integer in [1, {MAX_STREAM_WORDS}], "
                               f"got {MAX_STREAM_WORDS + 1}\n")


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

    @pytest.mark.parametrize("name", dc.BUILTIN_NAMES)
    def test_energy_order_drain_does_not_move_with_the_batch(self, name):
        """Why prune takes no --batch: under RS a layer's energy per weight is
        the batch times a term of its own plus the DRAM cost of one weight,
        which is the same for every layer, so the drain order and what each
        layer loses do not change with the batch. The weight counts do not
        either, so neither order has a use for one."""
        def drained(batch):
            net = dc.resolve_shapes(dc.builtin(name), batch=batch)
            sizes = weight_sizes(net)
            reports, _ = dc.network_energy(net, dc.DataflowKind.RS, dc.default_arch())
            ranking = {rep.layer: rep.total / sizes[rep.layer] for rep in reports}
            return list(_drain(sizes, _budget(0.5, sum(sizes.values())), ranking).items())

        assert drained(1) == drained(4)

    def test_every_builtin_fits_the_weight_cap(self):
        for name in dc.BUILTIN_NAMES:
            net = dc.resolve_shapes(dc.builtin(name))
            drawn = sum(dc.layer_stats(layer).dw for layer in net.layers)
            assert drawn <= MAX_PRUNE_WEIGHTS, name

    # prune takes from 1 to MAX_PRUNE_WEIGHTS weights
    @pytest.mark.parametrize("layer, message", [
        ({"type": "fc", "name": "f", "out_channels": MAX_PRUNE_WEIGHTS + 1},
         f"network 'wide' has more than {MAX_PRUNE_WEIGHTS} weights, the most prune draws"),
        ({"type": "act", "name": "a"}, "network 'wide' has no weighted layers"),
    ], ids=[str(MAX_PRUNE_WEIGHTS + 1), "no-weights"])
    def test_weight_cap(self, runner, tmp_path, layer, message):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "name": "wide", "input": {"channels": 1, "height": 1, "width": 1},
            "layers": [layer]}))
        result = runner.invoke(main, ["prune", "--net", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"


def weight_sizes(net):
    return {layer.name: layer.stats.dw for layer in net.layers
            if layer.kind in WEIGHTED_KINDS}


def library_kept(net, fraction, seed, order):
    """Kept weights per layer from prune_network's masks, on the per-layer
    seeded weights and energy ranking that `prune` describes."""
    rng = np.random.default_rng(seed)
    weights = {nm: rng.standard_normal(size) for nm, size in weight_sizes(net).items()}
    ranking = None
    if order == "energy":
        reports, _ = dc.network_energy(net, dc.DataflowKind.RS, dc.default_arch())
        ranking = {rep.layer: rep.total / weights[rep.layer].size for rep in reports}
    pruned = dc.prune_network(weights, fraction, order=ranking)
    return {nm: int(mask.sum()) for nm, (_, mask) in pruned.items()}


def assert_one_draw_is_per_layer_draws(sizes, seed):
    whole = np.random.default_rng(seed).standard_normal(sum(sizes))
    rng = np.random.default_rng(seed)
    offset = 0
    for size in sizes:
        assert rng.standard_normal(size).tobytes() == whole[offset:offset + size].tobytes()
        offset += size


class TestPruneCounts:
    """`prune` counts kept weights from one draw, or drains by energy without
    drawing; both must agree with prune_network's masks."""

    @pytest.mark.parametrize("order", ["magnitude", "energy"])
    @pytest.mark.parametrize("name, fraction, seed", [
        *[("lenet5", f, s) for f in (0.0, 0.1, 0.5, 0.9, 1.0) for s in (0, 3)],
        ("googlenet", 0.5, 0)])
    def test_kept_counts_equal_mask_sums(self, runner, resolved_builtins, name, fraction,
                                         seed, order):
        result = runner.invoke(main, ["prune", "--builtin", name, "--fraction", str(fraction),
                                      "--seed", str(seed), "--order", order,
                                      "--format", "json"])
        assert result.exit_code == 0
        kept = {row["layer"]: row["kept"] for row in json.loads(result.stdout)["layers"]}
        assert kept == library_kept(resolved_builtins[name], fraction, seed, order)

    @pytest.mark.parametrize("name", ["lenet5", "googlenet", "resnet50"])
    def test_one_draw_is_per_layer_draws_on_builtin(self, resolved_builtins, name):
        sizes = weight_sizes(resolved_builtins[name]).values()
        assert_one_draw_is_per_layer_draws(list(sizes), seed=0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=12),
           st.integers(min_value=0, max_value=2**32))
    def test_one_draw_is_per_layer_draws(self, sizes, seed):
        assert_one_draw_is_per_layer_draws(sizes, seed)

    @pytest.mark.parametrize("order, bound", [("magnitude", 2.5), ("energy", 0.1)])
    def test_allocation_peak(self, runner, order, bound):
        """Peak bytes allocated, as a multiple of lenet5's float64 weights:
        the magnitude order holds its magnitudes and one partition copy, the
        energy order draws nothing."""
        args = ["prune", "--builtin", "lenet5", "--order", order, "--format", "json"]
        assert runner.invoke(main, args).exit_code == 0  # imports and caches first
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert peak < bound * 8 * 59_730

    def test_energy_order_prices_on_the_arch_given(self, runner, tmp_path):
        """The drain ranks layers by their energy per weight on --arch. The
        default hardware ranks the conv layer, four MACs per weight, above the
        fc layer; hardware whose DRAM costs all but everything ranks the fc
        layer, whose inputs and outputs weigh more beside its weights, above
        the conv layer. So the kept counts differ between the two."""
        net_path, arch_path = tmp_path / "flip.json", tmp_path / "dram.json"
        net_path.write_text(json.dumps({
            "name": "flip", "input": {"channels": 64, "height": 4, "width": 4},
            "layers": [{"type": "conv", "name": "c", "out_channels": 256, "kernel": [3, 3]},
                       {"type": "fc", "name": "f", "out_channels": 10}]}))
        arch_path.write_text(json.dumps({"mac_energy": 1e-6, "energy": {
            "rf": 1e-6, "noc": 1e-6, "buf": 1e-6, "dram": 1.0}}))
        net = dc.resolve_shapes(dc.parse_network(net_path.read_text()))
        sizes = weight_sizes(net)

        def drained(arch):
            reports, _ = dc.network_energy(net, dc.DataflowKind.RS, arch)
            ranking = {rep.layer: rep.total / sizes[rep.layer] for rep in reports}
            lost = _drain(sizes, _budget(0.05, sum(sizes.values())), ranking)
            return {name: size - lost[name] for name, size in sizes.items()}

        def kept(*arch):
            result = runner.invoke(main, ["prune", "--net", str(net_path), "--order", "energy",
                                          "--fraction", "0.05", *arch, "--format", "json"])
            assert result.exit_code == 0
            return {row["layer"]: row["kept"] for row in json.loads(result.stdout)["layers"]}

        on_dram = kept("--arch", str(arch_path))
        assert on_dram == drained(dc.parse_arch(arch_path.read_text()))
        assert kept() == drained(dc.default_arch()) != on_dram

    @pytest.mark.parametrize("order", ["magnitude", "energy"])
    @pytest.mark.parametrize("fraction", ["1.5", "nan"])
    def test_fraction_outside_unit_interval(self, runner, order, fraction):
        result = runner.invoke(main, ["prune", "--builtin", "lenet5", "--order", order,
                                      "--fraction", fraction])
        assert result.exit_code == 1
        assert result.stderr == f"error: fraction must be in [0, 1], got {float(fraction)}\n"

    @pytest.mark.parametrize("arch", [[], ["--arch", "/no/such/file.json"]],
                             ids=["default-arch", "unreadable-arch"])
    def test_fraction_is_checked_before_the_energy_order_prices(self, runner, monkeypatch,
                                                                arch):
        """The energy order rejects the fraction before it reads --arch or
        prices a layer."""
        priced = []
        monkeypatch.setattr("dnncost.energy.network_energy", lambda *args: priced.append(args))
        result = runner.invoke(main, ["prune", "--builtin", "lenet5", "--order", "energy",
                                      "--fraction", "2", *arch])
        assert result.exit_code == 1
        assert result.stderr == "error: fraction must be in [0, 1], got 2.0\n"
        assert priced == []


class TestCountBudget:
    """Every report command rejects a network past netmodel.COUNT_BUDGET with
    one message, whether the file or, where the command takes one, --batch
    makes its counts too large."""

    @pytest.mark.parametrize("source, command", [
        *(("file", command) for command in ("stats", "analyze", "compare", "prune")),
        *(("batch", command) for command in ("stats", "analyze", "compare"))])
    def test_over_budget_is_a_data_error(self, runner, tmp_path, source, command):
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

    @pytest.mark.parametrize("args, error", [
        (["prune", "--builtin", "lenet5", "--arch", "/no/such/file.json"],
         "--arch needs --order energy"),
        (["compress", "--n", "16", "--out", "/no/such/dir/x"], "--out needs --encode or --decode"),
        (["kernels", "count", "--method", "direct", "--out-size", "4", "--filter-size", "3",
          "--matrix-size", "8"], "--matrix-size is not read by --method direct"),
        (["kernels", "count", "--method", "im2col", "--out-size", "4", "--filter-size", "3",
          "--matrix-size", "8"], "--matrix-size is not read by --method im2col"),
        (["kernels", "count", "--method", "fft", "--out-size", "4", "--filter-size", "3",
          "--matrix-size", "8"], "--matrix-size is not read by --method fft"),
        (["kernels", "count", "--method", "winograd", "--out-size", "4", "--filter-size", "3",
          "--matrix-size", "8"], "--matrix-size is not read by --method winograd"),
        (["kernels", "count", "--method", "strassen", "--matrix-size", "8", "--out-size", "4"],
         "--out-size is not read by --method strassen"),
        (["kernels", "count", "--method", "strassen", "--matrix-size", "8", "--filter-size", "3"],
         "--filter-size is not read by --method strassen"),
        # an unread size before a missing one, then one missing size per family
        (["kernels", "count", "--method", "fft", "--matrix-size", "8"],
         "--matrix-size is not read by --method fft"),
        (["kernels", "count", "--method", "winograd", "--filter-size", "3"],
         "--method winograd needs --out-size"),
        (["kernels", "count", "--method", "strassen"], "--method strassen needs --matrix-size"),
        (["compress", "--encode", "/no/such/w.txt", "--out", "/no/such/w.bin", "--n", "7"],
         "--n is read only without --encode or --decode"),
        (["compress", "--decode", "/no/such/w.bin", "--sparsity", "0.2"],
         "--sparsity is read only without --encode or --decode"),
        (["compress", "--seed=3", "--decode", "/no/such/w.bin", "--out", "/no/such/w.txt"],
         "--seed is read only without --encode or --decode"),
        (["compress", "--encode", "/no/such/w.txt", "--out", "/no/such/w.bin", "--seed", "0"],
         "--seed is read only without --encode or --decode"),
        (["compress", "--encode", "/no/such/w.txt", "--decode", "/no/such/w.bin",
          "--out", "/no/such/w"], "give at most one of --encode or --decode"),
        (["compress", "--encode", "/no/such/w.txt"], "--encode needs --out for the packed stream"),
        # of several, the first in --help order
        (["compress", "--encode", "/no/such/w.txt", "--decode", "/no/such/w.bin", "--n", "3"],
         "--n is read only without --encode or --decode"),
        (["compress", "--decode", "/no/such/w.bin", "--encode", "/no/such/w.txt"],
         "--encode needs --out for the packed stream"),
        (["kernels", "count", "--method", "strassen", "--filter-size", "3", "--out-size", "4"],
         "--out-size is not read by --method strassen"),
        # before any input is read: loading either network would exit 1
        (["prune", "--builtin", "nosuch", "--arch", "a.json"], "--arch needs --order energy"),
        (["prune", "--net", "/dev/zero", "--arch", "a.json"], "--arch needs --order energy"),
    ], ids=["prune-arch", "compress-out", "count-matrix-size", "im2col-matrix-size",
            "fft-matrix-size", "winograd-matrix-size", "strassen-out-size",
            "strassen-filter-size", "unread-before-missing", "winograd-without-out-size",
            "strassen-without-matrix-size", "encode-n", "decode-sparsity", "decode-seed",
            "encode-default-seed", "encode-and-decode", "encode-without-out",
            "n-before-encode-and-decode", "encode-before-decode", "out-size-before-filter-size",
            "before-unknown-builtin", "before-unreadable-net"])
    def test_a_flag_the_mode_never_reads_is_a_usage_error(self, runner, args, error):
        result = runner.invoke(main, args, prog_name="dnncost")
        path = " ".join(["dnncost", *args[:2 if args[0] == "kernels" else 1]])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == _usage_error(path, error)

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
        # stats counts are integers; analyze energies are floats, also at zero
        for command, zero in (("stats", "0"), ("analyze", "0.0")):
            result = runner.invoke(main, [command, "--net", str(path), "--format", "csv"])
            assert result.exit_code == 0
            total = rows_of(result.stdout)[-1]
            assert (total[0], total[-1]) == ("total", zero)
        table = runner.invoke(main, ["analyze", "--net", str(path)])
        assert table.stdout.splitlines()[3:] == [
            "total    0.0     0.0   0.0      0.0    0.0",
            "movement by level: rf 0.0  noc 0.0  buf 0.0  dram 0.0"]
        obj = json.loads(runner.invoke(main, ["analyze", "--net", str(path),
                                              "--format", "json"]).stdout)
        assert obj["layers"] == []
        assert obj["total"]["total"] == 0.0 and isinstance(obj["total"]["total"], float)

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
        assert result.stdout == ""
        assert result.stderr == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("args, error", [
        (["stats", "--builtin", "lenet5", "--batch", "0"],
         "--batch must be an integer >= 1, got 0"),
        (["compare", "--builtin", "lenet5", "--bits", "0"],
         "--bits must be an integer in [1, 16], got 0"),
        (["compare", "--builtin", "lenet5", "--bits", "32"],
         "--bits must be an integer in [1, 16], got 32"),
        # in the order the inputs are read: --batch, then the densities and --bits
        (["analyze", "--builtin", "lenet5", "--batch", "0", "--bits", "0"],
         "--batch must be an integer >= 1, got 0"),
        (["analyze", "--builtin", "lenet5", "--density-in", "2", "--bits", "0"],
         "density_in must be in (0, 1], got 2.0"),
    ])
    def test_integer_flags_name_themselves(self, runner, args, error):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {error}\n"

    @pytest.mark.parametrize("flag", ["--net", "--arch"])
    @pytest.mark.parametrize("source", ["at-cap", "one-over", "dev-zero"])
    def test_description_file_cap(self, runner, tmp_path, flag, source):
        if flag == "--net":
            doc, args = dc.serialize_network(dc.builtin("lenet5")), ["stats"]
        else:
            doc, args = dc.serialize_arch(dc.default_arch()), ["compare", "--builtin", "lenet5"]
        path = tmp_path / "doc.json"
        if source == "dev-zero":  # endless: read only up to the cap
            path = "/dev/zero"
        else:  # a valid document padded with spaces
            path.write_text(doc.ljust(MAX_DESCRIPTION_CHARS + (source == "one-over")))
        tracemalloc.start()
        try:
            result = runner.invoke(main, [*args, flag, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if source == "at-cap":
            assert result.exit_code == 0
            assert result.stdout.startswith("lenet5  batch 1\n")
            return
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: {flag} file must be at most "
                                 f"{MAX_DESCRIPTION_CHARS} characters\n")
        assert peak < 8 * MAX_DESCRIPTION_CHARS

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("stats", "analyze", "compare", "kernels",
                     "compress", "prune"):
            assert name in result.stdout

    @pytest.mark.parametrize("args, expected", [
        ([], _GROUP_HELP),
        (["kernels"], _KERNELS_HELP),
        (["foo"], _usage_error("dnncost", "No such command 'foo'.", group=True)),
        (["kernels", "foo"], _usage_error("dnncost kernels", "No such command 'foo'.",
                                          group=True)),
        (["strassen"], _usage_error(
            "dnncost", "No such command 'strassen'. Did you mean 'stats'?", group=True)),
        (["compare=0"], _usage_error(
            "dnncost", "No such command 'compare=0'. (Did you mean one of: 'compare', "
            "'compress'?)", group=True)),
        (["kernels", "verfy"], _usage_error(
            "dnncost kernels", "No such command 'verfy'. Did you mean 'verify'?", group=True)),
        (["stats", "--builtin", "lenet5", "--bogus"],
         _usage_error("dnncost stats", "No such option '--bogus'. Did you mean '--out'?")),
        (["stats", "--foo"], _usage_error(
            "dnncost stats", "No such option '--foo'. (Did you mean one of: '--format', '--out'?)")),
        # prune's numbers do not move with the batch, so it takes none
        (["prune", "--builtin", "lenet5", "--batch", "2"], _usage_error(
            "dnncost prune", "No such option '--batch'. Did you mean '--arch'?")),
        (["stats", "--batch", "x"], _usage_error(
            "dnncost stats", "Invalid value for '--batch': 'x' is not a valid integer.")),
        (["stats", "--batch"], _usage_error(
            "dnncost stats", "Option '--batch' requires an argument.")),
        (["compress", "--sparsity", "x"], _usage_error(
            "dnncost compress", "Invalid value for '--sparsity': 'x' is not a valid float.")),
        (["stats", "--builtin", "lenet5", "--format", "yaml"], _usage_error(
            "dnncost stats",
            "Invalid value for '--format': 'yaml' is not one of 'table', 'csv', 'json'.")),
        (["analyze", "--builtin", "lenet5", "--dataflow", "diagonal"], _usage_error(
            "dnncost analyze",
            "Invalid value for '--dataflow': 'diagonal' is not one of 'ws', 'os', 'nlr', 'rs'.")),
        (["kernels", "count"], _usage_error(
            "dnncost kernels count", "Missing option '--method'. Choose from:\n"
            "\tdirect,\n\tim2col,\n\tfft,\n\twinograd,\n\tstrassen")),
        (["stats", "--builtin", "lenet5", "--", "x"], _usage_error(
            "dnncost stats", "Got unexpected extra argument (x)")),
        (["kernels", "count", "--method", "strassen"], _usage_error(
            "dnncost kernels count", "--method strassen needs --matrix-size")),
        (["kernels", "count", "--method", "direct", "--out-size", "4"], _usage_error(
            "dnncost kernels count", "--method direct needs --filter-size")),
    ], ids=["no-command", "kernels-no-command", "unknown-command", "kernels-unknown-command",
            "close-command", "close-commands", "kernels-close-command",
            "unknown-option", "unknown-option-two-matches", "prune-batch", "int", "missing-value", "float",
            "format-choice", "dataflow-choice", "missing-method", "extra-argument",
            "strassen-without-matrix-size", "direct-without-filter-size"])
    def test_usage_error_text(self, runner, args, expected):
        result = runner.invoke(main, args, prog_name="dnncost", terminal_width=80)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == expected


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


# run in a fresh interpreter: this process has loaded numpy and click long
# ago. The last stdout line lists what the command loaded.
_RUN_CLI = """
import json, sys
from dnncost.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps({"numpy": "numpy" in sys.modules, "click": "click" in sys.modules,
                  "dnncost": sorted(m for m in sys.modules if m.startswith("dnncost"))}))
"""
_PACKAGE_API = """
import sys
import dnncost as dc
assert [m for m in sys.modules if m.startswith("dnncost.")] == [], "a submodule was imported"
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

# the modules every command loads: the CLI and what it needs to declare its
# options (the built-in networks, the dataflow and counting-method names)
_CLI_MODULES = {"dnncost", "dnncost.cli", "dnncost.netmodel", "dnncost.zoo"}
_PRICING = {"dnncost.archmodel", "dnncost.dataflow", "dnncost.energy"}
# the further modules of each numpy-free command, by its first argument
_REPORT_MODULES = {"stats": {"dnncost.stats"}, "analyze": _PRICING, "compare": _PRICING,
                   "kernels": {"dnncost.stats"}, "prune": _PRICING}


def _fresh_python(code, *args, stdout=subprocess.PIPE, flag="-c", unbuffered=False):
    """``python -c CODE ARGS``, or with ``flag="-m"``, ``python -m CODE ARGS``.
    Its stdout is block-buffered, as a console starts it, unless ``unbuffered``."""
    src = Path(dc.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *["-u"] * unbuffered, flag, code, *args],
                          env={**env, "PYTHONPATH": str(src)},
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def _started(args):
    """Whether a fresh ``dnncost ARGS`` loaded numpy, and its dnncost modules.
    No command may load click."""
    result = _fresh_python(_RUN_CLI, *args)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert not loaded["click"], "click was imported"
    return loaded["numpy"], set(loaded["dnncost"])


class TestNumpyFreeStart:
    @pytest.mark.parametrize("args", [["stats", "--builtin", "alexnet"],
                                      ["analyze", "--builtin", "alexnet"],
                                      ["compare", "--builtin", "alexnet"],
                                      ["kernels", "count", "--method", "fft",
                                       "--out-size", "32", "--filter-size", "5"],
                                      ["prune", "--builtin", "lenet5", "--order", "energy"]])
    def test_report_commands_do_not_import_numpy(self, args):
        numpy, modules = _started(args)
        assert not numpy, "numpy was imported"
        assert modules == _CLI_MODULES | _REPORT_MODULES[args[0]]

    @pytest.mark.parametrize("args, further", [
        (["kernels", "verify", "--trials", "1"], {"dnncost.kernels", "dnncost.stats"}),
        (["compress", "--n", "64"], {"dnncost.optkit"}),
        (["prune", "--builtin", "lenet5"], {"dnncost.optkit"}),
    ], ids=["kernels-verify", "compress", "prune-magnitude"])
    def test_array_commands_load_only_their_modules(self, args, further):
        numpy, modules = _started(args)
        assert numpy
        assert modules == _CLI_MODULES | further

    def test_package_names_resolve_on_first_use(self):
        result = _fresh_python(_PACKAGE_API)
        assert result.returncode == 0, result.stderr

    def test_dir_lists_every_lazy_name(self):
        # _PACKAGE_API checks the public names only, and in a fresh process
        assert set(dc._LAZY) <= set(dir(dc))


# (python flag, its argument, the program name usage lines show): main() on
# sys.argv, as the benchmark calls it, and `python -m dnncost.cli`, as CI does
_ENTRY_POINTS = {"main": ("-c", "import sys; from dnncost.cli import main; sys.exit(main())", "-c"),
                 "module": ("-m", "dnncost.cli", "python -m dnncost.cli")}


class TestRealArgv:
    """The command line read from ``sys.argv`` in a fresh process, which the
    in-process runner never does."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("case", ["stats-lenet5-csv", "compare-lenet5-json"])
    def test_report_matches_golden(self, entry, case):
        flag, code, _ = _ENTRY_POINTS[entry]
        command, name, fmt = case.split("-")
        result = _fresh_python(code, command, "--builtin", name, "--format", fmt, flag=flag)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout == (_GOLDEN / f"{case}.txt").read_text()

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_usage_error_exits_two(self, entry):
        flag, code, prog = _ENTRY_POINTS[entry]
        result = _fresh_python(code, "stats", "--batch", "x", flag=flag)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == _usage_error(
            f"{prog} stats", "Invalid value for '--batch': 'x' is not a valid integer.")


class TestErrorBoundary:
    """A ValueError or OSError from the library ends every command the same
    way: one ``error:`` line and exit 1, decided once by the command group."""

    @pytest.mark.parametrize("error", [ValueError, OSError])
    @pytest.mark.parametrize("args, target", [
        (["stats", "--builtin", "lenet5"], "dnncost.stats.network_stats"),
        (["analyze", "--builtin", "lenet5"], "dnncost.energy.network_energy"),
        (["compare", "--builtin", "lenet5"], "dnncost.energy.compare_dataflows"),
        (["prune", "--builtin", "lenet5"], "dnncost.optkit._keep_mask"),
        (["prune", "--builtin", "lenet5", "--order", "energy"], "dnncost.cli._drain"),
        (["kernels", "verify", "--trials", "1"], "dnncost.kernels.conv_direct"),
        (["kernels", "count", "--method", "direct", "--out-size", "4", "--filter-size", "3"],
         "dnncost.stats.mult_count"),
        (["compress", "--n", "64"], "dnncost.optkit._pair_codes"),
    ], ids=["stats", "analyze", "compare", "prune-magnitude", "prune-energy",
            "kernels-verify", "kernels-count", "compress"])
    def test_library_error_is_a_data_error(self, runner, monkeypatch, args, target, error):
        def boom(*_args, **_kwargs):
            raise error("boom")

        monkeypatch.setattr(target, boom)
        result = runner.invoke(main, args)
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: boom\n"

    def test_interrupt_aborts(self, runner, monkeypatch):
        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("dnncost.stats.network_stats", interrupted)
        result = runner.invoke(main, ["stats", "--builtin", "lenet5"])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "\nAborted!\n"

    @pytest.mark.parametrize("args", [["stats", "--builtin", "lenet5", "--net", "x.json"],
                                      ["compress", "--encode", "a", "--decode", "b"]],
                             ids=["stats", "compress"])
    def test_usage_error_in_a_command_is_two(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("Usage: ")
        assert "error: " not in result.stderr

    @pytest.mark.parametrize("args", [["analyze", "--builtin", "googlenet", "--format", "csv"],
                                      ["compress"]], ids=["analyze-csv", "compress"])
    def test_closed_stdout_exits_one_quietly(self, args):
        # block-buffered, a short report is still in stdout's buffer when the
        # command returns, and the interpreter flushes that buffer again at exit
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with os.fdopen(write_end, "wb") as closed:
                result = _fresh_python("from dnncost.cli import main; main()", *args,
                                       stdout=closed, unbuffered=unbuffered)
            assert (result.returncode, result.stderr) == (1, ""), f"unbuffered={unbuffered}"
