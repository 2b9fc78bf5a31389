"""A census of every setting: each field of ``ArchConfig``, ``EnergyTable``,
``Modifiers`` and ``LayerSpec``, and each option of each command, must move
some number that the library returns or the command prints. The few that
choose the input or where and how a report is written are exempt, each with
its reason, and the last two are checked for exactly that.

A field or option that the census neither lists nor exempts fails
``test_every_setting_is_counted``, so a new setting must show the number it
moves, and one that moves none is deleted rather than kept."""

import json
import re
from dataclasses import fields, is_dataclass

import pytest
from click.testing import CliRunner

import dnncost as dc
from dnncost import cli
from dnncost.archmodel import ArchConfig, EnergyTable
from dnncost.energy import Modifiers
from dnncost.netmodel import LayerSpec, NetworkSpec
from test_argv import COMMANDS

RECORDS = (ArchConfig, EnergyTable, Modifiers, LayerSpec)


def numbers(value):
    """Every int and float in ``value``, depth first: a dataclass's fields, a
    dict's values and a sequence's items. Bools and strings are not numbers."""
    if is_dataclass(value):
        value = [getattr(value, f.name) for f in fields(value)]
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [n for item in value for n in numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


# a conv, a pool that halves its 8 x 8 output, and ``t``, the layer whose
# fields the LayerSpec cases change. The widths are explicit: with None
# widths, width / word is 1 at every word, and word_bits would move nothing
BASE = (NetworkSpec("census", 4, 8, 8, (
            LayerSpec("conv", "a", out_channels=4, kernel=(3, 3), pad=1),
            LayerSpec("pool", "p", kernel=(2, 2), stride=2),
            LayerSpec("conv", "t", out_channels=4))),
        ArchConfig(), Modifiers(bits_in=8, bits_w=8))


def priced(net, arch, mods):
    """Every number network_stats and compare_dataflows return for ``net``."""
    resolved = dc.resolve_shapes(net)
    return numbers(dc.network_stats(resolved)) + numbers(dc.compare_dataflows(resolved, arch, mods))


def changed(record, field, value):
    """BASE with one field of ``record`` set to ``value``: a LayerSpec field
    on the last layer, an EnergyTable field in the arch's table."""
    net, arch, mods = BASE
    change = {field: value}
    if record is LayerSpec:
        net = net._replace(layers=(*net.layers[:-1], net.layers[-1]._replace(**change)))
    elif record is EnergyTable:
        arch = arch._replace(energy=arch.energy._replace(**change))
    elif record is ArchConfig:
        arch = arch._replace(**change)
    else:
        mods = mods._replace(**change)
    return net, arch, mods


# per field: a value that moves some number from what BASE prices
FIELD_CASES = {
    (ArchConfig, "pe_count"): 2,
    (ArchConfig, "word_bits"): 32,
    (ArchConfig, "energy"): EnergyTable(dram=100.0),
    (ArchConfig, "mac_energy"): 2.0,
    (ArchConfig, "rs_channels_per_pe"): 2,
    (ArchConfig, "nlr_lane_width"): 2,
    (EnergyTable, "rf"): 1.5,
    (EnergyTable, "noc"): 3.0,
    (EnergyTable, "buf"): 10.0,
    (EnergyTable, "dram"): 100.0,
    (Modifiers, "density_in"): 0.5,
    (Modifiers, "density_w"): 0.5,
    (Modifiers, "bits_in"): 4,
    (Modifiers, "bits_w"): 4,
    (LayerSpec, "kind"): "fc",
    (LayerSpec, "out_channels"): 8,
    (LayerSpec, "kernel"): (3, 3),
    (LayerSpec, "stride"): 2,
    (LayerSpec, "pad"): 1,
    (LayerSpec, "groups"): 2,
    (LayerSpec, "bias"): False,
    (LayerSpec, "connections"): 8,
    (LayerSpec, "inputs"): ("a",),  # the conv's 8 x 8 output, not the pool's 4 x 4
}
EXEMPT_FIELDS = {
    (LayerSpec, "name"): "a label: a layer is fed and reported by it, not priced by it",
}

LENET = ["--builtin", "lenet5"]
# hardware whose DRAM costs all but everything: it reorders googlenet's
# energy-order drain, and moves every price
DRAM_ARCH = {"mac_energy": 1e-6, "energy": {"rf": 1e-6, "noc": 1e-6, "buf": 1e-6, "dram": 1.0}}
# per option: the other arguments, and the option's value before and after.
# None leaves it out; a dict is written to a file, and the file's path is given
FLAG_CASES = {
    ("stats", "--batch"): (LENET, None, "2"),
    **{(command, flag): (LENET, None, value)
       for command in ("analyze", "compare")
       for flag, value in (("--batch", "2"), ("--arch", DRAM_ARCH), ("--bits", "8"),
                           ("--density-in", "0.5"), ("--density-w", "0.5"))},
    ("analyze", "--dataflow"): (LENET, None, "ws"),
    ("prune", "--fraction"): (LENET, None, "0.3"),
    ("prune", "--order"): (LENET, None, "energy"),
    ("prune", "--arch"): (["--builtin", "googlenet", "--order", "energy"], None, DRAM_ARCH),
    ("prune", "--seed"): (LENET, None, "1"),  # the magnitude order, the one that draws
    ("kernels verify", "--trials"): ([], None, "3"),
    ("kernels verify", "--size"): ([], None, "5"),
    ("kernels verify", "--seed"): ([], None, "1"),
    ("kernels count", "--method"): (["--out-size", "8", "--filter-size", "3"], "direct", "fft"),
    ("kernels count", "--out-size"): (["--method", "direct", "--filter-size", "3"], "8", "16"),
    ("kernels count", "--filter-size"): (["--method", "direct", "--out-size", "8"], "3", "5"),
    ("kernels count", "--matrix-size"): (["--method", "strassen"], "4", "8"),
    ("compress", "--n"): ([], None, "1000"),
    ("compress", "--sparsity"): ([], None, "0.3"),
    ("compress", "--seed"): ([], None, "1"),
}
EXEMPT_FLAGS = {
    "--builtin": "chooses the network that the other options are applied to",
    "--net": "chooses the network that the other options are applied to",
    "--encode": "chooses the file of words that compress encodes",
    "--decode": "chooses the packed file that compress decodes",
    "--format": "changes only how a report is written: test_format_changes_only_how",
    "--out": "changes only where the output is written: test_out_changes_only_where",
}

# what a text command prints back of its own options, dropped before its
# numbers are read
ECHOES = {"kernels count": r"\(.*\)", "kernels verify": r"\d+ random problems",
          "compress": r"elements \d+"}
NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?(?:e[-+]?\d+)?")

# (command, option) of every option of every command
OPTIONS = {(" ".join(path), option.name) for path, cmd in COMMANDS.items()
           for option in cmd.options}
REPORT_COMMANDS = sorted(command for command, flag in OPTIONS if flag == "--format")


def test_every_setting_is_counted():
    """Each field and option is moved by its census case or exempt, and each
    case and exemption names a field or option that exists."""
    settings = {(record, field) for record in RECORDS for field in record._fields}
    assert settings == FIELD_CASES.keys() | EXEMPT_FIELDS.keys()
    flags = {key for key in OPTIONS if key[1] not in EXEMPT_FLAGS}
    assert flags == FLAG_CASES.keys()
    assert {flag for _, flag in OPTIONS} >= EXEMPT_FLAGS.keys()


@pytest.mark.parametrize("record, field", FIELD_CASES,
                         ids=[f"{record.__name__}.{field}" for record, field in FIELD_CASES])
def test_field_moves_a_number(record, field):
    assert priced(*changed(record, field, FIELD_CASES[record, field])) != priced(*BASE)


@pytest.fixture()
def reports(monkeypatch):
    """The ``_Report`` each report command renders, in the order rendered."""
    seen = []
    for fmt, render in list(cli._RENDERERS.items()):
        monkeypatch.setitem(cli._RENDERERS, fmt,
                            lambda report, render=render: seen.append(report) or render(report))
    return seen


def _invoke(args):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    return result


@pytest.mark.parametrize("command, flag", FLAG_CASES, ids=map(" ".join, FLAG_CASES))
def test_flag_moves_a_number(tmp_path, reports, command, flag):
    """A report command's numbers are those of its body, without the head
    that echoes its parameters; a text command's are those it prints, but
    for its echo of its own options."""
    args, before, after = FLAG_CASES[command, flag]

    def numbers_printed(value):
        if isinstance(value, dict):
            path = tmp_path / "setting.json"
            path.write_text(json.dumps(value))
            value = str(path)
        given = [] if value is None else [flag, value]
        text = _invoke([*command.split(), *args, *given]).stdout
        if command in REPORT_COMMANDS:
            return numbers(reports[-1].body)
        return NUMBER.findall(re.sub(ECHOES[command], "", text))

    assert numbers_printed(after) != numbers_printed(before)


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_format_changes_only_how(reports, command):
    """Every format renders the one report the command returns, each its own way."""
    texts = {fmt: _invoke([command, *LENET, "--format", fmt]).stdout for fmt in cli.FORMATS}
    assert len(set(texts.values())) == len(cli.FORMATS)
    assert reports == [reports[0]] * len(cli.FORMATS)


@pytest.mark.parametrize("command", sorted(command for command, flag in OPTIONS
                                           if flag == "--out"))
def test_out_changes_only_where(tmp_path, command):
    """--out writes to a file exactly what stdout gets without it; a report
    then prints nothing, and compress --decode prints what it decoded."""
    if command == "compress":
        packed = tmp_path / "words.bin"
        packed.write_bytes(dc.rle_encode([0, 0, 7, 0, 65535, 3]))
        args, summary = ["--decode", str(packed)], f"{packed.stat().st_size} bytes -> 6 words\n"
    else:
        args, summary = LENET, ""
    target = tmp_path / "out.txt"
    written = _invoke([command, *args, "--out", str(target)])
    assert target.read_text() == _invoke([command, *args]).stdout
    assert written.stdout == summary
