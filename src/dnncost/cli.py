"""Command-line front end.

Exit codes: 0 on success, 1 on bad input data (unreadable files, malformed
descriptions, values out of range), 2 on command-line usage errors.
``_Main.invoke`` is the one place where any data error becomes exit 1: a
ValueError or OSError raised anywhere under a command, the CLI's own range
and cap checks included, prints ``error: <message>``. A closed stdout pipe
exits 1 quietly, as click handles it.
Output is deterministic: the same invocation always produces the same bytes.
A report command receives its loaded inputs and returns one ``_Report``: the
decorators that declare the shared options load them, and ``_report_options``
renders the report in the ``--format`` asked for, to ``--out`` or stdout.
"""

from __future__ import annotations

import functools
import io
import json
from typing import TYPE_CHECKING, NamedTuple

import click

from .names import MULT_METHODS, DataflowKind
from .netmodel import WEIGHTED_KINDS, parse_network, resolve_shapes
from .zoo import BUILTIN_NAMES, builtin

# archmodel, dataflow, energy, stats and csv are imported by the commands and
# renderers that use them, so that a command loads only the modules it runs
if TYPE_CHECKING:
    from .archmodel import ArchConfig

DATAFLOW_NAMES = tuple(k.value for k in DataflowKind)
# longest stream `compress` draws (--n), encodes (--encode) or decodes
# (--decode); its arrays grow with the length
MAX_STREAM_WORDS = 1 << 20
# largest --decode file: every 21-bit pair decodes to at least one word, so a
# stream within MAX_STREAM_WORDS packs into at most this many bytes
MAX_DECODE_BYTES = MAX_STREAM_WORDS * 21 // 8
# longest --encode file: the text --decode writes for MAX_STREAM_WORDS words,
# each at most five digits and a newline
MAX_ENCODE_CHARS = MAX_STREAM_WORDS * 6
# largest `kernels verify --size` and `--trials`: every trial runs four
# convolutions of a size x size input
MAX_VERIFY_SIZE = 256
MAX_VERIFY_TRIALS = 1000
# most weights `prune` takes, in either order; only the magnitude order draws
# them, one float64 each: vgg16's 138,344,128 fit
MAX_PRUNE_WEIGHTS = 150_000_000
# longest --net or --arch file: 63 times googlenet's 16,703 characters
MAX_DESCRIPTION_CHARS = 1 << 20


def _read_text(path: str, flag: str, cap: int) -> str:
    """The text of a file named by ``flag``, read no further than one
    character past ``cap``, so that a long file or a pipe is cheap."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read(cap + 1)
    if len(text) > cap:
        raise ValueError(f"{flag} file must be at most {cap} characters")
    return text


def _network_options(fn):
    # loaded inputs reach the command by position, so every wrapper passes *args on
    @functools.wraps(fn)
    def with_network(*args, builtin_name, net_path, batch, **kwargs):
        if (builtin_name is None) == (net_path is None):
            raise click.UsageError("give exactly one of --builtin or --net")
        if builtin_name is not None:
            spec = builtin(builtin_name)
        else:
            spec = parse_network(_read_text(net_path, "--net", MAX_DESCRIPTION_CHARS))
        return fn(resolve_shapes(spec, batch=batch), *args, **kwargs)

    with_network = click.option("--batch", type=int, default=1, show_default=True,
                                help="Batch size used when resolving shapes.")(with_network)
    with_network = click.option("--net", "net_path", type=str, default=None,
                                help="Path to a network description file.")(with_network)
    return click.option("--builtin", "builtin_name", type=str, default=None,
                        help=f"Bundled network: one of {', '.join(BUILTIN_NAMES)}.")(with_network)


def _report_options(fn):
    @functools.wraps(fn)
    def render(*args, fmt, out_path, **kwargs):
        _emit(_RENDERERS[fmt](fn(*args, **kwargs)), out_path)

    render = click.option("--out", "out_path", type=str, default=None,
                          help="Write the report to this file instead of stdout.")(render)
    return click.option("--format", "fmt", type=click.Choice(FORMATS),
                        default="table", show_default=True)(render)


def _modifier_options(fn):
    @functools.wraps(fn)
    def with_mods(*args, arch_path, bits, density_in, density_w, **kwargs):
        from .energy import Modifiers
        arch = _load_arch(arch_path)
        mods = Modifiers(density_in=density_in, density_w=density_w, bits_in=bits, bits_w=bits)
        return fn(*args, arch, mods, **kwargs)

    with_mods = click.option("--density-w", type=float, default=1.0, show_default=True,
                             help="Nonzero fraction of the weights.")(with_mods)
    with_mods = click.option("--density-in", type=float, default=1.0, show_default=True,
                             help="Nonzero fraction of the inputs.")(with_mods)
    with_mods = click.option(
        "--bits", type=int, default=None,
        help="Operand precision for inputs and weights (defaults to the word size).")(with_mods)
    return click.option("--arch", "arch_path", type=str, default=None,
                        help="Path to a hardware description file.")(with_mods)


def _load_arch(arch_path) -> ArchConfig:
    from .archmodel import default_arch, parse_arch
    if arch_path is None:
        return default_arch()
    return parse_arch(_read_text(arch_path, "--arch", MAX_DESCRIPTION_CHARS))


def _rng(seed: int):
    """A seeded numpy generator. numpy is imported here, not at module level,
    so that the commands that never touch an array start without it."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    import numpy as np
    return np.random.default_rng(seed)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        click.echo(text, nl=False)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class _Report(NamedTuple):
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
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in report.csv_rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _render_json(report: _Report) -> str:
    return json.dumps(report.json_obj, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}
FORMATS = tuple(_RENDERERS)


class _Main(click.Group):
    """The command group: the one place where a ValueError or OSError from
    any command becomes a data error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed stdout: click exits 1 quietly
        except (OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)


@click.group(cls=_Main)
def main():
    """Analytical cost modeling for neural-network inference hardware."""


@main.command("stats")
@_network_options
@_report_options
def stats_cmd(net):
    """Storage and compute counts for every weighted layer."""
    from .stats import network_stats
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
    return _Report(title=f"{report.network}  batch {report.batch}",
                   headers=headers, rows=rows, csv_rows=[headers, *rows], json_obj=obj)


@main.command("analyze")
@_network_options
@_modifier_options
@click.option("--dataflow", type=click.Choice(DATAFLOW_NAMES), default="rs",
              show_default=True, help="Mapping policy to price.")
@_report_options
def analyze_cmd(net, arch, mods, dataflow):
    """Per-layer data-movement and compute energy under one dataflow."""
    from .archmodel import LEVELS
    from .dataflow import DATA_TYPES
    from .energy import network_energy
    reports, agg = network_energy(net, DataflowKind(dataflow), arch, mods)
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
    return _Report(title=f"{net.name}  batch {net.batch}  dataflow {dataflow}",
                   headers=("layer", "input", "weight", "psum", "compute", "total"),
                   rows=rows, csv_rows=long_rows, json_obj=obj,
                   footer=(f"movement by level: {levels}",))


@main.command("compare")
@_network_options
@_modifier_options
@_report_options
def compare_cmd(net, arch, mods):
    """Rank all dataflows by total energy on one network."""
    from .energy import compare_dataflows
    report = compare_dataflows(net, arch, mods)
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
    return _Report(title=f"{report.network}  batch {report.batch}",
                   headers=headers, rows=rows, csv_rows=[headers, *entries], json_obj=obj,
                   footer=(f"winner {report.winner}  conv winner {report.conv_winner}",))


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
        raise ValueError(f"--trials must be in [1, {MAX_VERIFY_TRIALS}], got {trials}")
    # the smallest input a 3x3 filter fits
    if size is not None and not 3 <= size <= MAX_VERIFY_SIZE:
        raise ValueError(f"--size must be in [3, {MAX_VERIFY_SIZE}], got {size}")
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
    from .stats import mult_count
    mc = mult_count(method, out_size=out_size, filter_size=filter_size,
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
    import numpy as np

    from .optkit import (MAX_VALUE, _pack, _pair_codes, _ratio, _word_array, rle_decode,
                         rle_word_count)
    if encode_path is not None and decode_path is not None:
        raise click.UsageError("give at most one of --encode or --decode")
    if encode_path is not None and out_path is None:
        raise click.UsageError("--encode needs --out for the packed stream")
    if encode_path is not None:
        text = _read_text(encode_path, "--encode", MAX_ENCODE_CHARS)
        if len(tokens := text.split()) > MAX_STREAM_WORDS:  # before any word is built
            raise ValueError(f"--encode file must hold at most {MAX_STREAM_WORDS} words, "
                             f"got {len(tokens)}")
        del text
        words = [int(token) for token in tokens]
        del tokens  # so neither the text nor its tokens is alive for the pair codes
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
            data = fh.read(MAX_DECODE_BYTES + 1)  # bounded, so a long file or a pipe is cheap
        if len(data) > MAX_DECODE_BYTES:
            raise ValueError(f"--decode file must be at most {MAX_DECODE_BYTES} bytes, "
                             f"the packed size of {MAX_STREAM_WORDS} pairs")
        if (count := rle_word_count(data)) > MAX_STREAM_WORDS:  # before any word is built
            raise ValueError(f"--decode stream must hold at most {MAX_STREAM_WORDS} words, "
                             f"got {count}")
        words = rle_decode(data)
        text = "".join(f"{word}\n" for word in words)
        _emit(text, out_path)
        if out_path is not None:
            click.echo(f"{len(data)} bytes -> {len(words)} words")
        return
    if not 1 <= length <= MAX_STREAM_WORDS:
        raise ValueError(f"--n must be in [1, {MAX_STREAM_WORDS}], got {length}")
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"--sparsity must be in [0, 1], got {sparsity}")
    rng = _rng(seed)
    values = rng.integers(1, MAX_VALUE + 1, size=length)
    zero = rng.random(length) < sparsity
    values[zero] = 0
    codes = _pair_codes(values)  # an int64 array: no per-word type check
    data = _pack(codes)
    zeros = int(zero.sum())  # values start at 1
    click.echo(f"elements {length}  zeros {zeros}  density {1.0 - zeros / length:.3f}")
    click.echo(f"pairs {codes.size}  packed bytes {len(data)}")
    click.echo(f"compression ratio {_ratio(codes.size, length):.3f}")
    if not np.array_equal(_word_array(data), values):
        click.echo("round trip FAILED")
        raise SystemExit(1)
    click.echo("round trip ok")


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
def prune_cmd(net, fraction, order, arch_path, seed):
    """Prune synthetic weights for a network and report layer densities."""
    from .optkit import _budget, _drain, _keep_mask
    sizes = {layer.name: layer.stats.dw for layer in net.layers if layer.kind in WEIGHTED_KINDS}
    if not sizes:
        raise ValueError(f"network {net.name!r} has no weighted layers")
    total = sum(sizes.values())
    if total > MAX_PRUNE_WEIGHTS:
        raise ValueError(f"network {net.name!r} has more than {MAX_PRUNE_WEIGHTS} weights, "
                         f"the most prune draws")
    rng = _rng(seed)  # checks --seed in either order
    if order == "energy":  # the drain needs no weight values, so none are drawn
        from .energy import Modifiers, network_energy
        arch = _load_arch(arch_path)
        reports, _ = network_energy(net, DataflowKind.RS, arch, Modifiers())
        ranking = {rep.layer: rep.total / sizes[rep.layer] for rep in reports}
        lost = _drain(sizes, _budget(fraction, total), ranking)
        kept = {name: size - lost[name] for name, size in sizes.items()}
    else:
        budget = _budget(fraction, total)  # before drawing
        # one draw is the stream of per-layer draws; only its magnitudes are kept
        keep = _keep_mask(abs(rng.standard_normal(total)), budget)
        kept, offset = {}, 0
        for name, size in sizes.items():
            kept[name] = int(keep[offset:offset + size].sum())
            offset += size
    entries = [(name, size, kept[name], kept[name] / size) for name, size in sizes.items()]
    total_kept = sum(kept.values())
    totals = ("total", total, total_kept, total_kept / total)

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
    return _Report(title=f"{net.name}  fraction {fraction}  order {order}  seed {seed}",
                   headers=headers,
                   rows=[(name, size, kept, f"{dens:.3f}") for name, size, kept, dens in rows],
                   csv_rows=[headers, *rows], json_obj=obj)


if __name__ == "__main__":
    main()
