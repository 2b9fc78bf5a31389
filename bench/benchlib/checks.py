"""Output checks of the benchmark.

Every check compares a program output against a computation made here, apart
from the program, or against a property the method must have, and raises
``CheckError`` on the first disagreement. The checks take plain outputs, so
``bench/selftest.py`` can feed them deliberately altered ones.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .netdoc import PUBLISHED, totals

PAIR_BITS = 21
MAX_RUN = 31
DATA_TYPES = ("input", "weight", "psum")


class CheckError(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(got, want, rel=1e-9) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- storage and compute -------------------------------------------------------

def _row_tuple(row: dict) -> tuple:
    return (row["name"], row["kind"], row["weights"], row["macs"], row["d_in"],
            row["d_w"], row["d_out"])


def check_stats_rows(got: list[tuple], got_total: tuple, rows: list[dict],
                     network: str, batch: int) -> None:
    """Per-layer (name, kind, weights, macs, d_in, d_w, d_out) rows and the
    (weights, macs) totals against the recount and the published table."""
    want = [_row_tuple(row) for row in rows]
    require(len(got) == len(want), f"{network}: {len(got)} rows, recount has {len(want)}")
    for g, w in zip(got, want):
        require(tuple(g) == w, f"{network}: row {g} != recount {w}")
    t = totals(rows)
    require(tuple(got_total) == (t["weights"], t["macs"]),
            f"{network}: totals {tuple(got_total)} != recount {(t['weights'], t['macs'])}")
    if network in PUBLISHED:
        ref_w, ref_m, tol = PUBLISHED[network]
        require(abs(t["weights"] - ref_w) <= tol * ref_w,
                f"{network}: {t['weights']} weights, published {ref_w:g}")
        require(abs(t["macs"] / batch - ref_m) <= tol * ref_m,
                f"{network}: {t['macs'] / batch:g} MACs per image, published {ref_m:g}")


def check_network_stats(report, rows: list[dict], batch: int) -> None:
    """A ``NetworkStats`` against the recount of its network document."""
    got = [(r.name, r.kind, r.weights, r.macs, r.di, r.dw, r.do) for r in report.layers]
    check_stats_rows(got, (report.total_weights, report.total_macs), rows,
                     report.network, batch)


# -- energy ----------------------------------------------------------------------

def expected_energy(rows: list[dict], dram_cost: float, mac_energy: float,
                    word_bits: int, bits_in: int, bits_w: int,
                    density_in: float = 1.0, density_w: float = 1.0):
    """Compute energy and DRAM movement energy of a whole network.

    Compute is MACs * mac_energy * b_in * b_w / word**2 (times the operand
    densities); DRAM moves each unique word exactly once, inputs and weights
    at their own width and partial sums at the full word.
    """
    t = totals(rows)
    compute = (t["macs"] * mac_energy * bits_in * bits_w / word_bits ** 2
               * density_in * density_w)
    dram = dram_cost * (t["d_in"] * bits_in / word_bits
                        + t["d_w"] * bits_w / word_bits + t["d_out"])
    return compute, dram


def check_ranking(entries: list[dict], winner: str | None,
                  compute: float | None = None, dram: float | None = None,
                  rel: float = 1e-9) -> None:
    """Dataflow entries {kind, total, ratio[, compute][, dram]}: finite totals,
    every ratio >= 1, the winner's ratio exactly 1, and the energy identities."""
    require(entries, "no dataflow entries")
    for en in entries:
        require(_finite(en["total"], en["ratio"]),
                f"{en['kind']}: non-finite total {en['total']} or ratio {en['ratio']}")
        require(en["ratio"] >= 1.0, f"{en['kind']}: ratio {en['ratio']} < 1")
        if compute is not None and "compute" in en:
            require(_close(en["compute"], compute, rel),
                    f"{en['kind']}: compute {en['compute']!r} != {compute!r}")
        if dram is not None and "dram" in en:
            require(_close(en["dram"], dram, rel),
                    f"{en['kind']}: DRAM energy {en['dram']!r} != unique volume {dram!r}")
    best = [en for en in entries if en["kind"] == winner] if winner else \
        [min(entries, key=lambda en: en["ratio"])]
    require(len(best) == 1, f"winner {winner!r} is not one of the entries")
    require(best[0]["ratio"] == 1.0, f"winner {best[0]['kind']} has ratio {best[0]['ratio']}")


def check_comparison(report, rows: list[dict], arch, mods) -> None:
    """A ``ComparisonReport`` against the recount and the design point."""
    bits_in = arch.word_bits if mods.bits_in is None else mods.bits_in
    bits_w = arch.word_bits if mods.bits_w is None else mods.bits_w
    compute, dram = expected_energy(rows, arch.energy.dram, arch.mac_energy,
                                    arch.word_bits, bits_in, bits_w,
                                    mods.density_in, mods.density_w)
    entries = [{"kind": e.kind, "total": e.total, "ratio": e.ratio,
                "compute": e.compute, "dram": e.by_level["dram"]}
               for e in report.entries]
    check_ranking(entries, report.winner, compute, dram)
    conv = [{"kind": e.kind, "total": e.conv_total, "ratio": e.conv_ratio}
            for e in report.entries]
    check_ranking(conv, report.conv_winner)


# -- codec, pruning, quantization ----------------------------------------------

def rle_pairs(words) -> int:
    """Pairs of the run-length code: one per nonzero word or per 32-zero run,
    plus one literal zero closing a trailing run."""
    pairs = run = 0
    for value in words:
        if value:
            pairs += 1
            run = 0
        else:
            run += 1
            if run == MAX_RUN + 1:
                pairs += 1
                run = 0
    return pairs + (1 if run else 0)


def check_codec(words: list[int], encoded: bytes, decoded: list[int],
                program_pairs: int, pairs: int) -> None:
    require(decoded == words, "decode(encode(w)) != w")
    require(program_pairs == pairs, f"pair count {program_pairs} != recount {pairs}")
    want = -(-PAIR_BITS * pairs // 8)
    require(len(encoded) == want, f"{len(encoded)} bytes for {pairs} pairs, want {want}")


def drain_counts(sizes: dict[str, int], order: dict[str, float], fraction: float):
    """Weights each layer loses when layers drain in descending ``order``."""
    budget = int(fraction * sum(sizes.values()))
    lost = {}
    for name in sorted(sizes, key=lambda nm: (-order[nm], nm)):
        lost[name] = min(budget, sizes[name])
        budget -= lost[name]
    return lost


def _magnitude_split(weights: np.ndarray, mask: np.ndarray, where: str) -> None:
    mags = np.abs(weights)
    if mask.all() or not mask.any():
        return
    require(mags[~mask].max() <= mags[mask].min(),
            f"{where}: a pruned magnitude {mags[~mask].max()} exceeds a kept one "
            f"{mags[mask].min()}")


def check_prune(weights: dict[str, np.ndarray], pruned: dict, fraction: float,
                lost: dict[str, int] | None = None) -> None:
    """Kept count n - floor(f * n), pruned copies zero exactly the dropped
    weights, and no dropped magnitude exceeds a kept one in a competing set:
    the whole network (magnitude order) or each layer (energy order, whose
    per-layer losses must equal ``lost``)."""
    require(set(pruned) == set(weights), "pruned layers differ from the input layers")
    n = sum(w.size for w in weights.values())
    kept = 0
    for name, w in weights.items():
        values, mask = pruned[name]
        require(mask.shape == w.shape and values.shape == w.shape, f"{name}: shape changed")
        require(np.array_equal(values, np.where(mask, w, 0.0)),
                f"{name}: pruned copy does not keep exactly the masked weights")
        kept += int(mask.sum())
        if lost is not None:
            require(w.size - int(mask.sum()) == lost[name],
                    f"{name}: lost {w.size - int(mask.sum())} weights, drain order gives "
                    f"{lost[name]}")
            _magnitude_split(w, mask, name)
    require(kept == n - int(fraction * n), f"kept {kept} of {n} at fraction {fraction}")
    if lost is None:
        _magnitude_split(np.concatenate([w.ravel() for w in weights.values()]),
                         np.concatenate([pruned[nm][1].ravel() for nm in weights]),
                         "network")


def check_quantized(quantized: np.ndarray, requantized: np.ndarray) -> None:
    require(np.array_equal(quantized, requantized), "re-quantizing changed the tensor")


# -- convolution ---------------------------------------------------------------

def conv_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1, unpadded cross-correlation over sliding windows."""
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[2:], axis=(1, 2))
    return np.einsum("cefrs,mcrs->mef", windows, w)


def check_conv(route: str, got: np.ndarray, reference: np.ndarray, tol: float) -> None:
    require(got.shape == reference.shape, f"{route}: shape {got.shape} != {reference.shape}")
    scale = float(np.max(np.abs(reference))) or 1.0
    dev = float(np.max(np.abs(got - reference))) / scale
    require(dev <= tol, f"{route}: max relative deviation {dev:.3e} > {tol:.0e}")


# -- command-line outputs ------------------------------------------------------

def _num(text: str) -> float:
    return float(text.replace(",", ""))


def _table_body(lines: list[str]) -> list[list[str]]:
    """The lines after a rendered table's dash line, split into cells."""
    dash = next(i for i, line in enumerate(lines) if line.startswith("-"))
    return [line.split() for line in lines[dash + 1:]]


def parse_stats(fmt: str, text: str):
    """(rows, (total weights, total macs)) of a ``stats`` report."""
    if fmt == "json":
        obj = json.loads(text)
        rows = [(r["layer"], r["kind"], r["weights"], r["macs"], r["d_in"], r["d_w"],
                 r["d_out"]) for r in obj["layers"]]
        return rows, (obj["totals"]["weights"], obj["totals"]["macs"])
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
        require(records[0] == ["layer", "kind", "weights", "macs", "d_in", "d_w", "d_out"],
                f"csv header {records[0]}")
        body = [(r[0], r[1], *map(int, r[2:])) for r in records[1:]]
    else:
        body = []
        for cells in _table_body(text.splitlines()):
            if cells[0] == "total":
                cells = [cells[0], ""] + cells[1:]
            body.append((cells[0], cells[1], *(int(_num(c)) for c in cells[2:])))
    require(body and body[-1][0] == "total", "no total row")
    return body[:-1], body[-1][2:4]


def check_cli_stats(fmt, text, rows, network, batch) -> None:
    got, got_total = parse_stats(fmt, text)
    check_stats_rows(got, got_total, rows, network, batch)


def check_cli_analyze(fmt, text, rows, bits, dram_cost=200.0, word_bits=16) -> None:
    """Per-layer and total compute energy, and DRAM energy at unique volumes."""
    scale = bits / word_bits
    want_compute = {r["name"]: r["macs"] * scale * scale for r in rows}
    want_dram = {r["name"]: {"input": dram_cost * r["d_in"] * scale,
                             "weight": dram_cost * r["d_w"] * scale,
                             "psum": dram_cost * r["d_out"]} for r in rows}
    want_compute["total"] = sum(want_compute.values())
    want_dram["total"] = {t: sum(want_dram[r["name"]][t] for r in rows) for t in DATA_TYPES}
    # tables print one decimal, so they are compared to within rounding
    rel, slack = 1e-9, 0.0
    if fmt == "json":
        obj = json.loads(text)
        compute = {r["layer"]: r["compute"] for r in obj["layers"]}
        compute["total"] = obj["total"]["compute"]
        dram = {r["layer"]: {t: r["movement"][t]["dram"] for t in DATA_TYPES}
                for r in obj["layers"]}
        dram["total"] = {t: obj["total"]["movement"][t]["dram"] for t in DATA_TYPES}
        finite = [r["total"] for r in obj["layers"]] + [obj["total"]["total"]]
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))[1:]
        compute, dram, finite = {}, {}, []
        for layer, _, dtype, level, energy in records:
            finite.append(float(energy))
            if dtype == "compute":
                compute[layer] = float(energy)
            elif level == "dram":
                dram.setdefault(layer, {})[dtype] = float(energy)
    else:
        lines = text.splitlines()
        body = _table_body(lines)
        require(lines[-1].startswith("movement by level:"), "no level footer")
        compute = {cells[0]: _num(cells[4]) for cells in body[:-1]}
        finite = [_num(cells[5]) for cells in body[:-1]]
        footer = lines[-1].split()
        dram = {"total": {"sum": _num(footer[footer.index("dram") + 1])}}
        want_dram = {"total": {"sum": sum(want_dram["total"].values())}}
        rel, slack = 1e-12, 0.051
    require(_finite(*finite), "non-finite energy in report")
    require(set(compute) == set(want_compute), f"layers {sorted(compute)} != recount")
    for layer, want in want_compute.items():
        require(abs(compute[layer] - want) <= slack + rel * want,
                f"{layer}: compute {compute[layer]!r} != {want!r}")
    for layer, types in dram.items():
        for dtype, got in types.items():
            want = want_dram[layer][dtype]
            require(abs(got - want) <= slack + rel * want,
                    f"{layer}: {dtype} DRAM energy {got!r} != unique volume {want!r}")


def check_cli_compare(fmt, text, rows, bits, word_bits=16) -> None:
    compute = totals(rows)["macs"] * (bits / word_bits) ** 2
    if fmt == "json":
        obj = json.loads(text)
        entries = [{"kind": e["dataflow"], "total": e["total"], "ratio": e["ratio"],
                    "compute": e["compute"]} for e in obj["entries"]]
        check_ranking(entries, obj["winner"], compute=compute)
        check_ranking([{"kind": e["dataflow"], "total": e["conv_total"],
                        "ratio": e["conv_ratio"]} for e in obj["entries"]],
                      obj["conv_winner"])
        return
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))[1:]
        winner = None
    else:
        lines = text.splitlines()
        records = _table_body(lines)[:-1]
        footer = lines[-1].split()
        require(footer[0] == "winner", "no winner footer")
        winner = footer[1]
    entries = [{"kind": r[0], "total": _num(r[1]), "ratio": _num(r[2])} for r in records]
    check_ranking(entries, winner)


def mult_count(method: str, out_size: int, filter_size: int) -> int:
    """Multiplication counts of the transform arguments, restated."""
    direct = out_size ** 2 * filter_size ** 2
    if method in ("direct", "im2col"):
        return direct
    if method == "winograd":
        return direct * 16 // 36
    n = 1 << (out_size + filter_size - 2).bit_length()
    return 3 * n * n * (n.bit_length() - 1) + n * n


def check_cli_count(text, method, out_size, filter_size) -> None:
    first = text.splitlines()[0].split()
    want = mult_count(method, out_size, filter_size)
    require(first[0] == f"{method}:" and int(first[1]) == want,
            f"kernels count: {' '.join(first[:2])}, want {method}: {want}")


def check_cli_compress(text, n, zeros, pairs) -> None:
    lines = text.splitlines()
    head = lines[0].split()
    require(int(head[1]) == n and int(head[3]) == zeros,
            f"compress: {lines[0]!r}, want {n} elements and {zeros} zeros")
    second = lines[1].split()
    require(int(second[1]) == pairs, f"compress: {second[1]} pairs, recount {pairs}")
    require(int(second[4]) == -(-PAIR_BITS * pairs // 8),
            f"compress: {second[4]} packed bytes for {pairs} pairs")
    require(lines[-1] == "round trip ok", f"compress: {lines[-1]!r}")


def check_cli_prune(text, rows, fraction) -> None:
    obj = json.loads(text)
    want = [(r["name"], r["d_w"]) for r in rows]
    got = [(r["layer"], r["weights"]) for r in obj["layers"]]
    require(got == want, f"prune: layer sizes {got} != recount {want}")
    n = sum(size for _, size in want)
    require(obj["total"]["kept"] == n - int(fraction * n),
            f"prune: kept {obj['total']['kept']} of {n} at fraction {fraction}")
    require(sum(r["kept"] for r in obj["layers"]) == obj["total"]["kept"],
            "prune: layer kept counts do not sum to the total")
