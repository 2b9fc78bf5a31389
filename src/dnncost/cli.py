"""Command-line front end.

Exit codes: 0 on success, 1 on bad input data (unreadable files, malformed
descriptions, values out of range), 2 on command-line usage errors.
``_Group.main`` is the one place where any data error becomes exit 1: a
ValueError or OSError raised anywhere under a command, the CLI's own range
and cap checks included, prints ``error: <message>``. A usage error prints
``Usage: <command> [OPTIONS]``, ``Try '<command> --help' for help.``, a blank
line and ``Error: <message>``. A flag the chosen mode never reads is a usage
error, found before any network, hardware or stream file is read; of several,
the first in --help order is named. A closed stdout pipe exits 1 quietly.
Output is deterministic: the same invocation always produces the same bytes.
Each command's table of ``_Option`` rows both parses argv and writes --help.
A report command receives its resolved network and returns one ``_Report``:
``_report_command``, the one decorator that wraps a command, declares and
loads the network options and renders the report in the ``--format`` asked
for, to ``--out`` or stdout. A command that prices on hardware declares the
``_HARDWARE`` options and loads them with ``_hardware``.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
from collections import namedtuple
from dataclasses import fields

from .netmodel import (MAX_VALUE, MULT_METHODS, MULT_SIZES, PAIR_BITS, DataflowKind, _budget,
                       _drain, _require_int, parse_network, resolve_shapes)
from .zoo import BUILTIN_NAMES, builtin

# archmodel, dataflow, energy, stats and csv are imported by the commands and
# renderers that use them, so that a command loads only the modules it runs

DATAFLOW_NAMES = tuple(k.value for k in DataflowKind)
# longest stream `compress` draws (--n), encodes (--encode) or decodes
# (--decode); its arrays grow with the length
MAX_STREAM_WORDS = 1 << 20
# largest --decode file: each pair of PAIR_BITS bits decodes to at least one
# word, so MAX_STREAM_WORDS words pack into at most this many whole bytes
MAX_DECODE_BYTES = (MAX_STREAM_WORDS * PAIR_BITS + 7) // 8
# longest --encode file: the text --decode writes for MAX_STREAM_WORDS words,
# each at most the digits of MAX_VALUE and a newline
MAX_ENCODE_CHARS = MAX_STREAM_WORDS * (len(str(MAX_VALUE)) + 1)
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


class _UsageError(Exception):
    """A command-line mistake: exit 2 under the usage line of the command."""


# one row of a command's option table: ``type`` (str, int, float, or a tuple of
# the accepted values) converts the value, which the command receives as ``dest``;
# --help shows every default but None. ``needs``, on a flag that only some modes
# read, is (test on the values, usage error: {} is the flag, {<dest>} a value)
_Option = namedtuple("_Option", "name dest type default help required needs",
                     defaults=(str, None, "", False, None))
# the needs of the flags that shape the synthetic stream of `compress`
_SYNTHETIC = (lambda v: (v["encode_path"], v["decode_path"]) == (None, None),
              "{} is read only without --encode or --decode")


def _options(*options):
    """Declare ``options`` ahead of the command's own, in the order --help lists them."""
    def declare(fn):
        fn.options = (*options, *getattr(fn, "options", ()))
        return fn
    return declare


def _report_command(fn):
    """A report command: --builtin and --net are declared ahead of ``fn``'s own
    options, --format and --out after them. The network is loaded, resolved at the
    --batch ``fn`` declares, or at 1 without one, and passed to ``fn`` first, and
    the ``_Report`` it returns is rendered."""
    @functools.wraps(fn)
    def run(builtin_name, net_path, fmt, out_path, batch=1, **kwargs):
        if (builtin_name is None) == (net_path is None):
            raise _UsageError("give exactly one of --builtin or --net")
        spec = (builtin(builtin_name) if net_path is None
                else parse_network(_read_text(net_path, "--net", MAX_DESCRIPTION_CHARS)))
        _require_int(batch, 1, "", "--batch", ValueError)
        _emit(_RENDERERS[fmt](fn(resolve_shapes(spec, batch=batch), **kwargs)), out_path)

    run.options = (
        _Option("--builtin", "builtin_name",
                help=f"Bundled network: one of {', '.join(BUILTIN_NAMES)}."),
        _Option("--net", "net_path", help="Path to a network description file."),
        *getattr(fn, "options", ()),
        _Option("--format", "fmt", FORMATS, "table"),
        _Option("--out", "out_path", help="Write the report to this file instead of stdout."))
    return run


# declared first by the report commands whose numbers move with it: not prune
_BATCH = _Option("--batch", "batch", int, 1, "Batch size used when resolving shapes.")

# the flags of the hardware a report prices on, which ``_hardware`` loads
_HARDWARE = (
    _Option("--arch", "arch_path", help="Path to a hardware description file."),
    _Option("--bits", "bits", int,
            help="Operand precision for inputs and weights (defaults to the word size)."),
    _Option("--density-in", "density_in", float, 1.0, "Nonzero fraction of the inputs."),
    _Option("--density-w", "density_w", float, 1.0, "Nonzero fraction of the weights."))


def _hardware(arch_path, bits=None, density_in=1.0, density_w=1.0):
    """``(arch, mods)``: the --arch file, or the default hardware without one,
    and the ``Modifiers`` of the densities and --bits, checked in that order."""
    from .archmodel import default_arch, parse_arch
    from .energy import Modifiers
    arch = (default_arch() if arch_path is None
            else parse_arch(_read_text(arch_path, "--arch", MAX_DESCRIPTION_CHARS)))
    mods = Modifiers(density_in=density_in, density_w=density_w)  # checked before --bits
    if bits is not None:
        _require_int(bits, 1, "", "--bits", ValueError, arch.word_bits)
        mods = mods._replace(bits_in=bits, bits_w=bits)
    return arch, mods


def _rng(seed: int):
    """A seeded numpy generator. numpy is imported here, not at module level,
    so that the commands that never touch an array start without it."""
    _require_int(seed, 0, "", "--seed", ValueError)
    import numpy as np
    return np.random.default_rng(seed)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class _Report(namedtuple("_Report", "head headers rows body footer formats csv_rows",
                         defaults=((), {}, None))):
    """One command's result in every output form. ``head`` maps "network" to its
    name and then each of the report's parameters to its value: the table's title
    line lists them, and they lead the JSON object, ahead of ``body``. The table
    is ``rows`` under ``headers``, with ``footer`` lines under it. The CSV is the
    headers over the raw rows unless ``csv_rows`` (header row first) gives its
    own. ``formats`` maps a header to its column's format spec in the table;
    ``_cell`` formats the rest."""

    __slots__ = ()


def _cell(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.1f}"
    return str(value)


def _render_table(report: _Report) -> str:
    specs = [report.formats.get(header) for header in report.headers]
    cells = [list(report.headers)] + [
        [format(v, spec) if spec else _cell(v) for v, spec in zip(row, specs)]
        for row in report.rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    (_, network), *params = report.head.items()
    title = "  ".join([network, *(f"{key} {value}" for key, value in params)])
    lines = [title] + [  # the first column left-aligned, the others right
        "  ".join([row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])]).rstrip()
        for row in cells]
    lines.insert(2, "  ".join("-" * w for w in widths))
    return "\n".join([*lines, *report.footer]) + "\n"


def _render_csv(report: _Report) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in report.csv_rows or [report.headers, *report.rows]:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _render_json(report: _Report) -> str:
    return json.dumps({**report.head, **report.body}, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}
FORMATS = tuple(_RENDERERS)


def _convert(option: _Option, value: str):
    """``value`` as ``option``'s type, or a usage error that names the option."""
    if isinstance(option.type, tuple):  # choices, matched case-sensitively
        if value in option.type:
            return value
        problem = f"is not one of {', '.join(map(repr, option.type))}."
    else:
        try:
            return option.type(value)
        except ValueError:
            from .clihelp import METAVARS
            problem = f"is not a valid {METAVARS[option.type].lower()}."
    raise _UsageError(f"Invalid value for {option.name!r}: {value!r} {problem}")


def _run(cmd, path: str, args: list[str]) -> None:
    """Parse ``args`` for ``cmd``, a group or a command called ``path``, and run
    it. ``--opt value`` and ``--opt=value`` read alike and the last one wins.
    Once every token is read, ``--help`` prints the help and exits; then values
    convert in the order first given, and each flag given must meet its
    ``needs``, in --help order. A usage error exits 2."""
    group = isinstance(cmd, _Group)
    usage = f"{path} [OPTIONS]" + " COMMAND [ARGS]..." * group
    options = {option.name: option for option in cmd.options}
    given, rest, asked_help, tokens = {}, [], False, iter(args)
    try:
        for token in tokens:
            name, eq, value = token.partition("=")
            if token == "--":
                rest += tokens
            elif token[:1] != "-" or token == "-":  # a group's command takes the rest
                rest += [token, *tokens] if group else [token]
            elif name == "--help" and eq:
                raise _UsageError("Option '--help' does not take a value.")
            elif name == "--help":
                asked_help = True
            elif name not in options and token[:2] != "--":  # there are no short options
                raise _UsageError(f"No such option {token[:2]!r}.")
            elif name not in options:
                from .clihelp import no_such
                raise _UsageError(no_such("option", name, [*options, "--help"]))
            elif eq or (value := next(tokens, None)) is not None:
                given[name] = value
            else:
                raise _UsageError(f"Option {name!r} requires an argument.")
        if asked_help or group and not args:  # a bare group's help is a usage error
            from .clihelp import help_screen
            (sys.stdout if asked_help else sys.stderr).write(help_screen(cmd, usage))
            raise SystemExit(0 if asked_help else 2)
        if group and rest[:1] and rest[0] in cmd.commands:
            return _run(cmd.commands[rest[0]], f"{path} {rest[0]}", rest[1:])
        if group and rest[:1] and rest[0][:1] == "-" and rest[0] not in ("-", "--"):
            return _run(cmd, path, rest)  # as click, an option-like name after --
        if group:
            from .clihelp import no_such
            raise _UsageError(no_such("command", rest[0], cmd.commands) if rest
                              else "Missing command.")
        values = {options[name].dest: _convert(options[name], value)
                  for name, value in given.items()}
        for option in options.values():
            if option.required and option.dest not in values:  # only --method, a choice
                raise _UsageError(f"Missing option {option.name!r}. Choose from:\n\t"
                                  + ",\n\t".join(option.type))
            values.setdefault(option.dest, option.default)
        if rest:
            raise _UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)} "
                              f"({' '.join(rest)})")
        for option in cmd.options:  # before any input is read
            if option.name in given and option.needs and not option.needs[0](values):
                raise _UsageError(option.needs[1].format(option.name, **values))
        return cmd(**values)
    except _UsageError as exc:
        sys.stderr.write(f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {exc}\n")
        raise SystemExit(2)


class _Group:
    """A command group. ``main(args, prog_name)`` runs one command line and
    always ends in SystemExit."""

    options = ()

    def __init__(self, name: str, doc: str, commands: dict):
        self.name, self.__doc__, self.commands = name, doc, commands

    def main(self, args=None, prog_name=None, **extra):
        """Run ``args``, by default ``sys.argv[1:]``, as ``prog_name``, by default
        argv[0]'s base name. ``extra`` settings, such as a test runner's terminal
        width, are ignored: help is 80 columns wide."""
        try:
            try:
                _run(self, os.path.basename(sys.argv[0]) if prog_name is None else prog_name,
                     sys.argv[1:] if args is None else list(args))
            finally:
                sys.stdout.flush()  # so that a closed pipe fails here
        except BrokenPipeError:  # a closed stdout: exit 1 quietly
            if sys.stdout is sys.__stdout__:  # so the bytes it still holds go nowhere at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(1)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(1)
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr)
            raise SystemExit(1)
        raise SystemExit(0)

    __call__ = main


@_report_command
@_options(_BATCH)
def stats_cmd(net):
    """Storage and compute counts for every weighted layer."""
    from .stats import network_stats
    report = network_stats(net)
    headers = ("layer", "kind", "weights", "macs", "d_in", "d_w", "d_out")
    layers = [(r.name, r.kind, r.weights, r.macs, r.di, r.dw, r.do) for r in report.layers]
    body = {
        "layers": [dict(zip(headers, row)) for row in layers],
        "totals": {"weights": report.total_weights, "macs": report.total_macs,
                   **{f.name: getattr(report, f.name) for f in fields(report) if not f.init}},
    }
    # the d_in, d_w and d_out columns sum over the layers
    rows = layers + [("total", "", report.total_weights, report.total_macs,
                      *(sum(row[i] for row in layers) for i in (4, 5, 6)))]
    return _Report({"network": report.network, "batch": report.batch}, headers, rows, body)


@_report_command
@_options(_BATCH, *_HARDWARE,
          _Option("--dataflow", "dataflow", DATAFLOW_NAMES, "rs", "Mapping policy to price."))
def analyze_cmd(net, arch_path, bits, density_in, density_w, dataflow):
    """Per-layer data-movement and compute energy under one dataflow."""
    arch, mods = _hardware(arch_path, bits, density_in, density_w)
    from .archmodel import LEVELS
    from .dataflow import DATA_TYPES
    from .energy import network_energy
    reports, agg = network_energy(net, dataflow, arch, mods)
    everything = reports + [agg]

    def priced(rep):
        return {"movement": rep.movement, "by_type": rep.by_type,
                "by_level": rep.by_level, "compute": rep.compute, "total": rep.total}

    body = {"layers": [{"layer": rep.layer, **priced(rep)} for rep in reports],
            "total": priced(agg)}
    # long form: one row per (layer, data type, level) and one compute row
    long_rows = [("layer", "dataflow", "type", "level", "energy")]
    for rep in everything:
        long_rows += [(rep.layer, rep.dataflow, dtype, level, rep.movement[dtype][level])
                      for dtype in DATA_TYPES for level in LEVELS]
        long_rows.append((rep.layer, rep.dataflow, "compute", "mac", rep.compute))
    rows = [(rep.layer, *rep.by_type.values(), rep.compute, rep.total) for rep in everything]
    levels = "  ".join(f"{lv} {_cell(agg.by_level[lv])}" for lv in LEVELS)
    return _Report({"network": net.name, "batch": net.batch, "dataflow": dataflow},
                   ("layer", *DATA_TYPES, "compute", "total"), rows, body,
                   footer=(f"movement by level: {levels}",), csv_rows=long_rows)


@_report_command
@_options(_BATCH, *_HARDWARE)
def compare_cmd(net, arch_path, bits, density_in, density_w):
    """Rank all dataflows by total energy on one network."""
    arch, mods = _hardware(arch_path, bits, density_in, density_w)
    from .energy import compare_dataflows
    report = compare_dataflows(net, arch, mods)
    headers = ("dataflow", "total", "ratio", "conv_total", "conv_ratio")
    rows = [(e.kind, e.total, e.ratio, e.conv_total, e.conv_ratio) for e in report.entries]
    body = {
        "winner": report.winner,
        "conv_winner": report.conv_winner,
        "entries": [{**dict(zip(headers, row)), "compute": e.compute, "by_type": e.by_type,
                     "by_level": e.by_level} for row, e in zip(rows, report.entries)],
    }
    return _Report({"network": report.network, "batch": report.batch}, headers, rows, body,
                   footer=(f"winner {report.winner}  conv winner {report.conv_winner}",),
                   formats={"ratio": ".3f", "conv_ratio": ".3f"})


# (name, kernels function, tolerance) of each transform verify checks against conv_direct
_VERIFY_ROUTES = (("im2col", "conv_im2col", 1e-9),
                  ("winograd", "conv_winograd_f22_33", 1e-6),
                  ("fft", "conv_fft", 1e-6))


@_options(_Option("--trials", "trials", int, 20, "Number of random problems."),
          _Option("--size", "size", int,
                  help="Fix the input extent (default: random in [3, 16])."),
          _Option("--seed", "seed", int, 0))
def kernels_verify_cmd(trials, size, seed):
    """Cross-check all transforms against direct convolution."""
    from . import kernels
    _require_int(trials, 1, "", "--trials", ValueError, MAX_VERIFY_TRIALS)
    if size is not None:  # 3 is the smallest input a 3x3 filter fits
        _require_int(size, 3, "", "--size", ValueError, MAX_VERIFY_SIZE)
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
    for name, _, tol in _VERIFY_ROUTES:
        print(f"{name:8s} vs direct: max rel {worst[name]:.3e}  "
              f"tol {tol:.0e}  {'ok' if worst[name] <= tol else 'FAIL'}")
    print(f"{trials} random problems checked")
    if not all(worst[name] <= tol for name, _, tol in _VERIFY_ROUTES):
        raise SystemExit(1)


def _size_option(dest, text):
    """A `kernels count` size flag, read by the methods netmodel.MULT_SIZES gives it to."""
    return _Option("--" + dest.replace("_", "-"), dest, int, help=text, needs=(
        lambda v: dest in MULT_SIZES[v["method"]], "{} is not read by --method {method}"))


@_options(_Option("--method", "method", MULT_METHODS, required=True),
          _size_option("out_size", "Square output extent of the convolution."),
          _size_option("filter_size", "Square filter extent of the convolution."),
          _size_option("matrix_size", "Square matrix extent (strassen only)."))
def kernels_count_cmd(method, **sizes):
    """Scalar multiplication count of one method at one problem size."""
    flags = {name: "--" + name.replace("_", "-") for name in MULT_SIZES[method]}
    missing = [flag for name, flag in flags.items() if sizes[name] is None]
    if missing:
        raise _UsageError(f"--method {method} needs {' and '.join(missing)}")
    from .stats import MAX_COUNT_SIZE, mult_count
    for name, flag in flags.items():
        _require_int(sizes[name], 1, "", flag, ValueError, MAX_COUNT_SIZE)
    mc = mult_count(method, **sizes)
    params = "  ".join(f"{k} {v}" for k, v in mc.params.items())
    print(f"{mc.method}: {mc.count} multiplications  ({params})")
    if mc.method in ("fft", "winograd"):
        direct = mult_count("direct", **sizes).count
        print(f"direct: {direct} multiplications  ratio {mc.count / direct:.3f}")


@_options(_Option("--n", "length", int, 4096, "Synthetic stream length.", needs=_SYNTHETIC),
          _Option("--sparsity", "sparsity", float, 0.7, "Zero fraction of the synthetic stream.",
                  needs=_SYNTHETIC),
          _Option("--seed", "seed", int, 0, needs=_SYNTHETIC),
          _Option("--encode", "encode_path",
                  help="Encode a text file of words (whitespace separated).",
                  needs=(lambda v: v["out_path"] is not None,
                         "{} needs --out for the packed stream")),
          _Option("--decode", "decode_path", help="Decode a packed binary file.", needs=(
              lambda v: v["encode_path"] is None, "give at most one of --encode or --decode")),
          _Option("--out", "out_path", help="Output path (required for --encode).", needs=(
              lambda v: not _SYNTHETIC[0](v), "{} needs --encode or --decode")))
def compress_cmd(length, sparsity, seed, encode_path, decode_path, out_path):
    """Run-length compression of sparse 16-bit streams."""
    import numpy as np

    from .optkit import _pack, _pair_codes, _ratio, _word_array, rle_decode, rle_word_count
    if encode_path is not None:
        tokens = _read_text(encode_path, "--encode", MAX_ENCODE_CHARS).split()
        if len(tokens) > MAX_STREAM_WORDS:  # before any word is built
            raise ValueError(f"--encode file must hold at most {MAX_STREAM_WORDS} words, "
                             f"got {len(tokens)}")
        for token in tokens:  # int() would also read 1_0, +7 and non-ASCII digits
            if not (token.isascii() and token.isdigit()):
                raise ValueError(f"--encode words must be ASCII decimal digits, got {token!r}")
        words = [int(token) for token in tokens]
        del tokens  # so neither the text nor its tokens is alive for the pair codes
        codes = _pair_codes(words)
        ratio = _ratio(codes.size, len(words))  # raises on no words, so before writing
        data = _pack(codes)
        with open(out_path, "wb") as fh:
            fh.write(data)
        print(f"{len(words)} words -> {len(data)} bytes ({codes.size} pairs)")
        print(f"compression ratio {ratio:.3f}")
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
        _emit("".join(f"{word}\n" for word in words), out_path)
        if out_path is not None:
            print(f"{len(data)} bytes -> {len(words)} words")
        return
    _require_int(length, 1, "", "--n", ValueError, MAX_STREAM_WORDS)
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"--sparsity must be in [0, 1], got {sparsity}")
    rng = _rng(seed)
    values = rng.integers(1, MAX_VALUE + 1, size=length)
    zero = rng.random(length) < sparsity
    values[zero] = 0
    codes = _pair_codes(values)  # an int64 array: no per-word type check
    data = _pack(codes)
    zeros = int(zero.sum())  # values start at 1
    print(f"elements {length}  zeros {zeros}  density {1.0 - zeros / length:.3f}")
    print(f"pairs {codes.size}  packed bytes {len(data)}")
    print(f"compression ratio {_ratio(codes.size, length):.3f}")
    if not np.array_equal(_word_array(data), values):
        print("round trip FAILED")
        raise SystemExit(1)
    print("round trip ok")


@_report_command
@_options(_Option("--fraction", "fraction", float, 0.5,
                  "Fraction of multiplicative weights to zero."),
          _Option("--order", "order", ("magnitude", "energy"), "magnitude",
                  "Global magnitude competition, or drain the most energy-hungry layers first."),
          _Option("--arch", "arch_path", help="Hardware description used for energy ordering.",
                  needs=(lambda v: v["order"] == "energy", "{} needs --order energy")),
          _Option("--seed", "seed", int, 0))
def prune_cmd(net, fraction, order, arch_path, seed):
    """Prune synthetic weights for a network and report layer densities."""
    sizes = {layer.name: layer.stats.dw for layer, _ in net.weighted}
    if not sizes:
        raise ValueError(f"network {net.name!r} has no weighted layers")
    total = sum(sizes.values())
    if total > MAX_PRUNE_WEIGHTS:
        raise ValueError(f"network {net.name!r} has more than {MAX_PRUNE_WEIGHTS} weights, "
                         f"the most prune draws")
    _require_int(seed, 0, "", "--seed", ValueError)  # in either order; only magnitude draws
    budget = _budget(fraction, total)  # before either order prices or draws
    if order == "energy":  # the drain needs no weight values: no draw, no numpy
        from .energy import network_energy
        reports, _ = network_energy(net, DataflowKind.RS, *_hardware(arch_path))
        ranking = {rep.layer: rep.total / sizes[rep.layer] for rep in reports}
        lost = _drain(sizes, budget, ranking)
        kept = {name: size - lost[name] for name, size in sizes.items()}
    else:
        from .optkit import _keep_mask
        # one draw is the stream of per-layer draws; only its magnitudes are kept
        keep = _keep_mask(abs(_rng(seed).standard_normal(total)), budget)
        kept, offset = {}, 0
        for name, size in sizes.items():
            kept[name] = int(keep[offset:offset + size].sum())
            offset += size
    entries = [(name, size, kept[name], kept[name] / size) for name, size in sizes.items()]
    total_kept = sum(kept.values())
    totals = ("total", total, total_kept, total_kept / total)
    headers = ("layer", "weights", "kept", "density")
    body = {"layers": [dict(zip(headers, entry)) for entry in entries],
            "total": dict(zip(headers[1:], totals[1:]))}
    return _Report({"network": net.name, "fraction": fraction, "order": order, "seed": seed},
                   headers, entries + [totals], body, formats={"density": ".3f"})


main = _Group("main", "Analytical cost modeling for neural-network inference hardware.", {
    "analyze": analyze_cmd, "compare": compare_cmd, "compress": compress_cmd,
    "kernels": _Group("kernels", "Convolution transform checks and multiplication counts.",
                      {"count": kernels_count_cmd, "verify": kernels_verify_cmd}),
    "prune": prune_cmd, "stats": stats_cmd})

if __name__ == "__main__":
    main(prog_name="python -m dnncost.cli")
