"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Feeds every check a correct program output, which must pass, and a
deliberately altered copy, which must fail. Exits 1 if any check passes an
altered output or rejects a correct one.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

import numpy as np

from benchlib import SetupError, use_checkout
from benchlib import checks as ck
from benchlib.netdoc import recount


def _cli(args: list[str]) -> str:
    from click.testing import CliRunner

    from dnncost.cli import main
    result = CliRunner().invoke(main, args)
    if result.exit_code != 0:
        raise RuntimeError(f"dnncost {' '.join(args)} exited {result.exit_code}")
    return result.output


def _replace_line(text: str, old: str, new: str) -> str:
    if old not in text:
        raise ValueError(f"{old!r} not in the output")
    return text.replace(old, new, 1)


def cases(dc):
    """(name, run the check on the correct output, run it on an altered one)."""
    rng = np.random.default_rng(5)
    lenet_doc = json.loads(dc.zoo.builtin_document("lenet5"))
    rows = recount(lenet_doc)
    net = dc.resolve_shapes(dc.builtin("lenet5"))
    report = dc.network_stats(net)
    wrong_macs = dataclasses.replace(
        report, layers=(dataclasses.replace(report.layers[0], macs=report.layers[0].macs + 1),
                        *report.layers[1:]))
    yield ("stats: one wrong MAC count",
           lambda: ck.check_network_stats(report, rows, 1),
           lambda: ck.check_network_stats(wrong_macs, rows, 1))

    arch, mods = dc.default_arch(), dc.Modifiers(density_in=0.5, bits_in=8, bits_w=12)
    comparison = dc.compare_dataflows(net, arch, mods)
    entries = list(comparison.entries)
    bad_dram = dataclasses.replace(entries[0], by_level={**entries[0].by_level,
                                                         "dram": entries[0].by_level["dram"] + 1})
    bad_compute = dataclasses.replace(entries[1], compute=entries[1].compute * (1 + 1e-6))
    winner = next(i for i, e in enumerate(entries) if e.kind == comparison.winner)
    bad_ratio = dataclasses.replace(entries[winner], ratio=1.001)
    bad_total = dataclasses.replace(entries[2], total=float("inf"))
    for label, index, entry in (("DRAM count off by one word", 0, bad_dram),
                                ("compute energy off by 1e-6", 1, bad_compute),
                                ("winner ratio 1.001", winner, bad_ratio),
                                ("an infinite total", 2, bad_total)):
        altered = dataclasses.replace(
            comparison, entries=tuple(entry if i == index else e for i, e in enumerate(entries)))
        yield (f"compare: {label}",
               lambda: ck.check_comparison(comparison, rows, arch, mods),
               lambda altered=altered: ck.check_comparison(altered, rows, arch, mods))

    words = [0 if rng.random() < 0.7 else int(v) for v in rng.integers(1, 65536, size=5000)]
    encoded = dc.rle_encode(words)
    decoded = dc.rle_decode(encoded)
    pairs = ck.rle_pairs(words)
    flipped = list(decoded)
    flipped[1234] ^= 1
    yield ("codec: one flipped word",
           lambda: ck.check_codec(words, encoded, decoded, dc.rle_pair_count(words), pairs),
           lambda: ck.check_codec(words, encoded, flipped, dc.rle_pair_count(words), pairs))
    yield ("codec: one byte too many",
           lambda: ck.check_codec(words, encoded, decoded, pairs, pairs),
           lambda: ck.check_codec(words, encoded + b"\0", decoded, pairs, pairs))

    weights = {f"l{i}": rng.standard_normal(1000 * (i + 1)) for i in range(4)}
    order = {f"l{i}": float(i % 3) for i in range(4)}
    pruned = dc.prune_network(weights, 0.4)
    swapped = copy.deepcopy(pruned)
    values, mask = swapped["l2"]
    kept, dropped = np.flatnonzero(mask)[0], np.flatnonzero(~mask)[0]
    mask[kept], mask[dropped] = False, True
    values[:] = np.where(mask, weights["l2"], 0.0)
    yield ("prune: a kept weight swapped with a smaller pruned one",
           lambda: ck.check_prune(weights, pruned, 0.4),
           lambda: ck.check_prune(weights, swapped, 0.4))
    by_energy = dc.prune_network(weights, 0.4, order=order)
    lost = ck.drain_counts({k: w.size for k, w in weights.items()}, order, 0.4)
    shifted = dict(lost, l0=lost["l0"] + 1, l1=lost["l1"] - 1)
    yield ("prune: energy-order loss moved between layers",
           lambda: ck.check_prune(weights, by_energy, 0.4, lost),
           lambda: ck.check_prune(weights, by_energy, 0.4, shifted))

    flat = np.concatenate(list(weights.values()))
    quantized = dc.quantize_uniform(flat, 8)
    nudged = quantized.copy()
    nudged[7] += 1e-3
    yield ("quantize: one value off by 1e-3",
           lambda: ck.check_quantized(quantized, dc.quantize_uniform(quantized, 8)),
           lambda: ck.check_quantized(nudged, dc.quantize_uniform(nudged, 8)))

    x = rng.standard_normal((3, 10, 10))
    w = rng.standard_normal((4, 3, 3, 3))
    reference = ck.conv_reference(x, w)
    for route, tol in (("conv_direct", 1e-9), ("conv_im2col", 1e-9),
                       ("conv_winograd_f22_33", 1e-6), ("conv_fft", 1e-6)):
        got = getattr(dc.kernels, route)(x, w)
        off = got.copy()
        off[1, 2, 3] += 1e-3
        yield (f"{route}: one output off by 1e-3",
               lambda got=got, route=route, tol=tol: ck.check_conv(route, got, reference, tol),
               lambda off=off, route=route, tol=tol: ck.check_conv(route, off, reference, tol))

    stats_json = _cli(["stats", "--builtin", "lenet5", "--format", "json"])
    yield ("cli stats json: one wrong MAC count",
           lambda: ck.check_cli_stats("json", stats_json, rows, "lenet5", 1),
           lambda: ck.check_cli_stats("json", _replace_line(
               stats_json, '"macs": 117600', '"macs": 117601'), rows, "lenet5", 1))
    stats_table = _cli(["stats", "--builtin", "lenet5"])
    yield ("cli stats table: one wrong weight count",
           lambda: ck.check_cli_stats("table", stats_table, rows, "lenet5", 1),
           lambda: ck.check_cli_stats("table", _replace_line(
               stats_table, "1,516", "1,517"), rows, "lenet5", 1))
    analyze_csv = _cli(["analyze", "--builtin", "lenet5", "--format", "csv", "--bits", "8"])
    yield ("cli analyze csv: compute energy off",
           lambda: ck.check_cli_analyze("csv", analyze_csv, rows, 8),
           lambda: ck.check_cli_analyze("csv", _replace_line(
               analyze_csv, "compute,mac,29400.0", "compute,mac,29400.5"), rows, 8))
    analyze_table = _cli(["analyze", "--builtin", "lenet5"])
    yield ("cli analyze table: DRAM total off",
           lambda: ck.check_cli_analyze("table", analyze_table, rows, 16),
           lambda: ck.check_cli_analyze("table", _replace_line(
               analyze_table, "dram 13,791,600.0", "dram 13,791,800.0"), rows, 16))
    compare_table = _cli(["compare", "--builtin", "lenet5"])
    winner_line = next(line for line in compare_table.splitlines() if " 1.000 " in line)
    yield ("cli compare table: winner ratio 1.001",
           lambda: ck.check_cli_compare("table", compare_table, rows, 16),
           lambda: ck.check_cli_compare("table", compare_table.replace(
               winner_line, winner_line.replace(" 1.000 ", " 1.001 ")), rows, 16))
    count = _cli(["kernels", "count", "--method", "fft", "--out-size", "56",
                  "--filter-size", "3"])
    wrong_count = str(ck.mult_count("fft", 56, 3) + 1)
    yield ("cli kernels count: count off by one",
           lambda: ck.check_cli_count(count, "fft", 56, 3),
           lambda: ck.check_cli_count(count.replace(count.split()[1], wrong_count, 1),
                                      "fft", 56, 3))
    from benchlib.workloads import _cli_stream
    stream = _cli_stream(3)
    compress = _cli(["compress", "--n", "4096", "--sparsity", "0.7", "--seed", "3"])
    packed = compress.splitlines()[1].split()[4]
    yield ("cli compress: packed byte count off by one",
           lambda: ck.check_cli_compress(compress, **stream),
           lambda: ck.check_cli_compress(compress.replace(
               f"packed bytes {packed}", f"packed bytes {int(packed) + 1}"), **stream))
    prune = _cli(["prune", "--builtin", "lenet5", "--fraction", "0.5", "--format", "json"])
    obj = json.loads(prune)
    obj["total"]["kept"] += 1
    obj["layers"][0]["kept"] += 1
    yield ("cli prune: one weight too many kept",
           lambda: ck.check_cli_prune(prune, rows, 0.5),
           lambda: ck.check_cli_prune(json.dumps(obj), rows, 0.5))


def main() -> int:
    try:
        dc = use_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad = 0
    for name, correct, altered in cases(dc):
        try:
            correct()
            passed = True
        except ck.CheckError as exc:
            passed = False
            print(f"FAIL  {name}: correct output rejected: {exc}")
        try:
            altered()
            caught = False
        except ck.CheckError as exc:
            caught = True
            reason = str(exc)
        if passed and caught:
            print(f"ok    {name}: altered output rejected ({reason})")
        elif not caught:
            print(f"FAIL  {name}: altered output accepted")
        bad += not (passed and caught)
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
