"""Command-line front end.

Exit codes: 0 on success, 1 on bad input data (unreadable files, malformed
descriptions, values out of range), 2 on command-line usage errors.
Output is deterministic: the same invocation always produces the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import NoReturn

import click

from .archmodel import LEVELS, ArchConfig, default_arch, parse_arch
from .dataflow import DATA_TYPES, DataflowKind
from .energy import Modifiers, compare_dataflows, network_energy
from .netmodel import WEIGHTED_KINDS, ResolvedNetwork, parse_network, resolve_shapes
from .stats import MULT_METHODS, mult_count, network_stats
from .zoo import BUILTIN_NAMES, builtin

DATAFLOW_NAMES = tuple(k.value for k in DataflowKind)
# longest synthetic stream `compress --n` draws; its arrays grow with the length
MAX_STREAM_WORDS = 1 << 20
# largest `kernels verify --size` and `--trials`: every trial runs four
# convolutions of a size x size input
MAX_VERIFY_SIZE = 256
MAX_VERIFY_TRIALS = 1000
# most weights `prune` draws, one float64 each: vgg16's 138,344,128 fit
MAX_PRUNE_WEIGHTS = 150_000_000


def _fail(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(1)


def _network_options(fn):
    fn = click.option("--batch", type=int, default=1, show_default=True,
                      help="Batch size used when resolving shapes.")(fn)
    fn = click.option("--net", "net_path", type=str, default=None,
                      help="Path to a network description file.")(fn)
    fn = click.option("--builtin", "builtin_name", type=str, default=None,
                      help=f"Bundled network: one of {', '.join(BUILTIN_NAMES)}.")(fn)
    return fn


def _report_options(fn):
    fn = click.option("--out", "out_path", type=str, default=None,
                      help="Write the report to this file instead of stdout.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(FORMATS),
                      default="table", show_default=True)(fn)
    return fn


def _modifier_options(fn):
    fn = click.option("--density-w", type=float, default=1.0, show_default=True,
                      help="Nonzero fraction of the weights.")(fn)
    fn = click.option("--density-in", type=float, default=1.0, show_default=True,
                      help="Nonzero fraction of the inputs.")(fn)
    fn = click.option("--bits", type=int, default=None,
                      help="Operand precision for inputs and weights (defaults to the word size).")(fn)
    fn = click.option("--arch", "arch_path", type=str, default=None,
                      help="Path to a hardware description file.")(fn)
    return fn


def _load_network(builtin_name, net_path, batch) -> ResolvedNetwork:
    if (builtin_name is None) == (net_path is None):
        raise click.UsageError("give exactly one of --builtin or --net")
    try:
        if builtin_name is not None:
            spec = builtin(builtin_name)
        else:
            with open(net_path, encoding="utf-8") as fh:
                spec = parse_network(fh.read())
        return resolve_shapes(spec, batch=batch)
    except (OSError, ValueError) as exc:
        _fail(str(exc))


def _load_arch(arch_path) -> ArchConfig:
    if arch_path is None:
        return default_arch()
    try:
        with open(arch_path, encoding="utf-8") as fh:
            return parse_arch(fh.read())
    except (OSError, ValueError) as exc:
        _fail(str(exc))


def _checked(fn, *args, **kwargs):
    """Call into the library; a value out of range is a data error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        _fail(str(exc))


def _rng(seed: int):
    """A seeded numpy generator. numpy is imported here, not at module level,
    so that the commands that never touch an array start without it."""
    if seed < 0:
        _fail(f"--seed must be >= 0, got {seed}")
    import numpy as np
    return np.random.default_rng(seed)


def _modifiers(bits, density_in, density_w) -> Modifiers:
    return _checked(Modifiers, density_in=density_in, density_w=density_w,
                    bits_in=bits, bits_w=bits)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(str(exc))


@dataclass(frozen=True)
class _Report:
    """One command's result in every output form: a titled table, CSV rows
    (header row first) and a JSON object."""

    title: str
    headers: tuple[str, ...]
    rows: list[tuple]
    csv_rows: list[tuple]
    json_obj: dict
    footer: tuple[str, ...] = ()


def _cell(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.1f}"
    return str(value)


def _render_table(report: _Report) -> str:
    cells = [list(report.headers)] + [[_cell(v) for v in row] for row in report.rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(report.headers))]
    lines = [report.title]
    for index, row in enumerate(cells):
        joined = "  ".join(
            row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
            for i in range(len(row)))
        lines.append(joined.rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.extend(report.footer)
    return "\n".join(lines) + "\n"


def _render_csv(report: _Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in report.csv_rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _render_json(report: _Report) -> str:
    return json.dumps(report.json_obj, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}
FORMATS = tuple(_RENDERERS)


def _emit_report(report: _Report, fmt: str, out_path) -> None:
    _emit(_RENDERERS[fmt](report), out_path)


@click.group()
def main():
    """Analytical cost modeling for neural-network inference hardware."""


@main.command("stats")
@_network_options
@_report_options
def stats_cmd(builtin_name, net_path, batch, fmt, out_path):
    """Storage and compute counts for every weighted layer."""
    net = _load_network(builtin_name, net_path, batch)
    report = network_stats(net)
    headers = ("layer", "kind", "weights", "macs", "d_in", "d_w", "d_out")
    layers = [(r.name, r.kind, r.weights, r.macs, r.di, r.dw, r.do)
              for r in report.layers]
    obj = {
        "network": report.network,
        "batch": report.batch,
        "layers": [dict(zip(headers, row)) for row in layers],
        "totals": {
            "weights": report.total_weights,
            "macs": report.total_macs,
            "conv_layers": report.conv_layers,
            "conv_weights": report.conv_weights,
            "conv_macs": report.conv_macs,
            "fc_layers": report.fc_layers,
            "fc_weights": report.fc_weights,
            "fc_macs": report.fc_macs,
        },
    }
    rows = layers + [("total", "", report.total_weights, report.total_macs,
                      sum(r.di for r in report.layers),
                      sum(r.dw for r in report.layers),
                      sum(r.do for r in report.layers))]
    _emit_report(_Report(title=f"{report.network}  batch {report.batch}",
                         headers=headers, rows=rows, csv_rows=[headers, *rows], json_obj=obj),
                 fmt, out_path)


@main.command("analyze")
@_network_options
@_modifier_options
@click.option("--dataflow", type=click.Choice(DATAFLOW_NAMES), default="rs",
              show_default=True, help="Mapping policy to price.")
@_report_options
def analyze_cmd(builtin_name, net_path, batch, arch_path, bits, density_in,
                density_w, dataflow, fmt, out_path):
    """Per-layer data-movement and compute energy under one dataflow."""
    net = _load_network(builtin_name, net_path, batch)
    arch = _load_arch(arch_path)
    mods = _modifiers(bits, density_in, density_w)
    reports, agg = _checked(network_energy, net, DataflowKind(dataflow), arch, mods)
    everything = reports + [agg]

    def priced(rep):
        return {"movement": rep.movement, "by_type": rep.by_type,
                "by_level": rep.by_level, "compute": rep.compute, "total": rep.total}

    obj = {
        "network": net.name,
        "batch": net.batch,
        "dataflow": dataflow,
        "layers": [{"layer": rep.layer, **priced(rep)} for rep in reports],
        "total": priced(agg),
    }
    # long form: one row per (layer, data type, level) and one compute row
    long_rows = [("layer", "dataflow", "type", "level", "energy")]
    for rep in everything:
        long_rows += [(rep.layer, rep.dataflow, dtype, level, rep.movement[dtype][level])
                      for dtype in DATA_TYPES for level in LEVELS]
        long_rows.append((rep.layer, rep.dataflow, "compute", "mac", rep.compute))
    rows = [(rep.layer, rep.by_type["input"], rep.by_type["weight"],
             rep.by_type["psum"], rep.compute, rep.total)
            for rep in everything]
    levels = "  ".join(f"{lv} {_cell(agg.by_level[lv])}" for lv in LEVELS)
    _emit_report(_Report(title=f"{net.name}  batch {net.batch}  dataflow {dataflow}",
                         headers=("layer", "input", "weight", "psum", "compute", "total"),
                         rows=rows, csv_rows=long_rows, json_obj=obj,
                         footer=(f"movement by level: {levels}",)),
                 fmt, out_path)


@main.command("compare")
@_network_options
@_modifier_options
@_report_options
def compare_cmd(builtin_name, net_path, batch, arch_path, bits, density_in,
                density_w, fmt, out_path):
    """Rank all dataflows by total energy on one network."""
    net = _load_network(builtin_name, net_path, batch)
    arch = _load_arch(arch_path)
    mods = _modifiers(bits, density_in, density_w)
    report = _checked(compare_dataflows, net, arch, mods)
    headers = ("dataflow", "total", "ratio", "conv_total", "conv_ratio")
    entries = [(e.kind, e.total, e.ratio, e.conv_total, e.conv_ratio)
               for e in report.entries]
    obj = {
        "network": report.network,
        "batch": report.batch,
        "winner": report.winner,
        "conv_winner": report.conv_winner,
        "entries": [
            {**dict(zip(headers, row)), "compute": e.compute,
             "by_type": e.by_type, "by_level": e.by_level}
            for row, e in zip(entries, report.entries)
        ],
    }
    rows = [(kind, total, f"{ratio:.3f}", conv_total, f"{conv_ratio:.3f}")
            for kind, total, ratio, conv_total, conv_ratio in entries]
    _emit_report(_Report(title=f"{report.network}  batch {report.batch}",
                         headers=headers, rows=rows, csv_rows=[headers, *entries], json_obj=obj,
                         footer=(f"winner {report.winner}  conv winner {report.conv_winner}",)),
                 fmt, out_path)


# (name, kernels function, tolerance) of each transform verify checks
# against conv_direct
_VERIFY_ROUTES = (("im2col", "conv_im2col", 1e-9),
                  ("winograd", "conv_winograd_f22_33", 1e-6),
                  ("fft", "conv_fft", 1e-6))


@main.group("kernels")
def kernels_group():
    """Convolution transform checks and multiplication counts."""


@kernels_group.command("verify")
@click.option("--trials", type=int, default=20, show_default=True,
              help="Number of random problems.")
@click.option("--size", type=int, default=None,
              help="Fix the input extent (default: random in [3, 16]).")
@click.option("--seed", type=int, default=0, show_default=True)
def kernels_verify_cmd(trials, size, seed):
    """Cross-check all transforms against direct convolution."""
    from . import kernels
    if not 1 <= trials <= MAX_VERIFY_TRIALS:
        _fail(f"--trials must be in [1, {MAX_VERIFY_TRIALS}], got {trials}")
    # the smallest input a 3x3 filter fits
    if size is not None and not 3 <= size <= MAX_VERIFY_SIZE:
        _fail(f"--size must be in [3, {MAX_VERIFY_SIZE}], got {size}")
    rng = _rng(seed)
    worst = {name: 0.0 for name, _, _ in _VERIFY_ROUTES}
    for _ in range(trials):
        channels = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 5))
        height = size if size is not None else int(rng.integers(3, 17))
        width = size if size is not None else int(rng.integers(3, 17))
        x = rng.standard_normal((channels, height, width))
        w = rng.standard_normal((filters, channels, 3, 3))
        reference = kernels.conv_direct(x, w)
        scale = float(abs(reference).max()) or 1.0
        for name, route, _ in _VERIFY_ROUTES:
            deviation = float(abs(getattr(kernels, route)(x, w) - reference).max()) / scale
            worst[name] = max(worst[name], deviation)
    failed = False
    for name, _, tol in _VERIFY_ROUTES:
        ok = worst[name] <= tol
        failed = failed or not ok
        click.echo(f"{name:8s} vs direct: max rel {worst[name]:.3e}  "
                   f"tol {tol:.0e}  {'ok' if ok else 'FAIL'}")
    click.echo(f"{trials} random problems checked")
    if failed:
        raise SystemExit(1)


@kernels_group.command("count")
@click.option("--method", type=click.Choice(MULT_METHODS), required=True)
@click.option("--out-size", type=int, default=None,
              help="Square output extent of the convolution.")
@click.option("--filter-size", type=int, default=None,
              help="Square filter extent of the convolution.")
@click.option("--matrix-size", type=int, default=None,
              help="Square matrix extent (strassen only).")
def kernels_count_cmd(method, out_size, filter_size, matrix_size):
    """Scalar multiplication count of one method at one problem size."""
    mc = _checked(mult_count, method, out_size=out_size, filter_size=filter_size,
                  matrix_size=matrix_size)
    params = "  ".join(f"{k} {v}" for k, v in mc.params.items())
    click.echo(f"{mc.method}: {mc.count} multiplications  ({params})")
    if mc.method in ("fft", "winograd"):
        direct = mult_count("direct", out_size=out_size,
                            filter_size=filter_size).count
        click.echo(f"direct: {direct} multiplications  "
                   f"ratio {mc.count / direct:.3f}")


@main.command("compress")
@click.option("--n", "length", type=int, default=4096, show_default=True,
              help="Synthetic stream length.")
@click.option("--sparsity", type=float, default=0.7, show_default=True,
              help="Zero fraction of the synthetic stream.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--encode", "encode_path", type=str, default=None,
              help="Encode a text file of words (whitespace separated).")
@click.option("--decode", "decode_path", type=str, default=None,
              help="Decode a packed binary file.")
@click.option("--out", "out_path", type=str, default=None,
              help="Output path (required for --encode).")
def compress_cmd(length, sparsity, seed, encode_path, decode_path, out_path):
    """Run-length compression of sparse 16-bit streams."""
    from .optkit import MAX_VALUE, _pack, _pair_codes, _ratio, rle_decode, sparse_stats
    if encode_path is not None and decode_path is not None:
        raise click.UsageError("give at most one of --encode or --decode")
    if encode_path is not None and out_path is None:
        raise click.UsageError("--encode needs --out for the packed stream")
    try:
        if encode_path is not None:
            with open(encode_path, encoding="utf-8") as fh:
                words = [int(token) for token in fh.read().split()]
            codes = _pair_codes(words)
            ratio = _ratio(codes.size, len(words))  # raises on no words, so before writing
            data = _pack(codes)
            with open(out_path, "wb") as fh:
                fh.write(data)
            click.echo(f"{len(words)} words -> {len(data)} bytes ({codes.size} pairs)")
            click.echo(f"compression ratio {ratio:.3f}")
            return
        if decode_path is not None:
            with open(decode_path, "rb") as fh:
                data = fh.read()
            words = rle_decode(data)
            text = "".join(f"{word}\n" for word in words)
            _emit(text, out_path)
            if out_path is not None:
                click.echo(f"{len(data)} bytes -> {len(words)} words")
            return
        if not 1 <= length <= MAX_STREAM_WORDS:
            _fail(f"--n must be in [1, {MAX_STREAM_WORDS}], got {length}")
        if not 0.0 <= sparsity <= 1.0:
            _fail(f"--sparsity must be in [0, 1], got {sparsity}")
        rng = _rng(seed)
        values = rng.integers(1, MAX_VALUE + 1, size=length)
        zero = rng.random(length) < sparsity
        words = [0 if z else int(v) for z, v in zip(zero, values)]
        codes = _pair_codes(words)
        data = _pack(codes)
        st = sparse_stats(words)
        click.echo(f"elements {st.elements}  zeros {st.zeros}  "
                   f"density {st.density:.3f}")
        click.echo(f"pairs {codes.size}  packed bytes {len(data)}")
        click.echo(f"compression ratio {_ratio(codes.size, len(words)):.3f}")
        if rle_decode(data) != words:
            click.echo("round trip FAILED")
            raise SystemExit(1)
        click.echo("round trip ok")
    except (OSError, ValueError) as exc:
        _fail(str(exc))


@main.command("prune")
@_network_options
@click.option("--fraction", type=float, default=0.5, show_default=True,
              help="Fraction of multiplicative weights to zero.")
@click.option("--order", type=click.Choice(("magnitude", "energy")),
              default="magnitude", show_default=True,
              help="Global magnitude competition, or drain the most "
                   "energy-hungry layers first.")
@click.option("--arch", "arch_path", type=str, default=None,
              help="Hardware description used for energy ordering.")
@click.option("--seed", type=int, default=0, show_default=True)
@_report_options
def prune_cmd(builtin_name, net_path, batch, fraction, order, arch_path, seed,
              fmt, out_path):
    """Prune synthetic weights for a network and report layer densities."""
    from .optkit import prune_network
    net = _load_network(builtin_name, net_path, batch)
    weighted = [layer for layer in net.layers if layer.kind in WEIGHTED_KINDS]
    if not weighted:
        _fail(f"network {net.name!r} has no weighted layers")
    sizes = {layer.name: layer.stats.dw for layer in weighted}
    if sum(sizes.values()) > MAX_PRUNE_WEIGHTS:
        _fail(f"network {net.name!r} has more than {MAX_PRUNE_WEIGHTS} weights, "
              f"the most prune draws")
    rng = _rng(seed)
    weights = {name: rng.standard_normal(size) for name, size in sizes.items()}
    ranking = None
    if order == "energy":
        arch = _load_arch(arch_path)
        reports, _ = _checked(network_energy, net, DataflowKind.RS, arch, Modifiers())
        ranking = {rep.layer: rep.total / weights[rep.layer].size
                   for rep in reports}
    pruned = _checked(prune_network, weights, fraction, order=ranking)

    entries = []
    for layer in weighted:
        _, mask = pruned[layer.name]
        kept = int(mask.sum())
        entries.append((layer.name, mask.size, kept, kept / mask.size))
    total_size = sum(size for _, size, _, _ in entries)
    total_kept = sum(kept for _, _, kept, _ in entries)
    totals = ("total", total_size, total_kept, total_kept / total_size)

    headers = ("layer", "weights", "kept", "density")
    obj = {
        "network": net.name,
        "fraction": fraction,
        "order": order,
        "seed": seed,
        "layers": [dict(zip(headers, entry)) for entry in entries],
        "total": dict(zip(headers[1:], totals[1:])),
    }
    rows = entries + [totals]
    _emit_report(_Report(title=f"{net.name}  fraction {fraction}  order {order}  seed {seed}",
                         headers=headers,
                         rows=[(name, size, kept, f"{dens:.3f}")
                               for name, size, kept, dens in rows],
                         csv_rows=[headers, *rows], json_obj=obj),
                 fmt, out_path)


if __name__ == "__main__":
    main()
