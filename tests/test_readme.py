"""The README's examples run and print what the README says they print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import dnncost as dc
from dnncost.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def blocks(lang):
    return [body for block_lang, body in BLOCKS if block_lang == lang]


def transcripts():
    """(command, output) of each ``$ dnncost`` line in a plain block, with the
    lines up to the next command as its output."""
    found = []
    for body in blocks(""):
        for chunk in re.split(r"^(?=\$ )", body, flags=re.MULTILINE):
            if chunk.startswith("$ dnncost "):
                command, _, output = chunk.partition("\n")
                found.append((command[2:], output.rstrip("\n")))
    return found


def test_python_block_runs():
    (code,) = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue()


def test_json_examples():
    network, hardware = blocks("json")
    net = dc.resolve_shapes(dc.parse_network(network))
    assert [layer.name for layer in net.layers][-1] == "out"
    # the text says the hardware example shows the defaults
    assert dc.parse_arch(hardware) == dc.default_arch()


def test_transcripts_match_the_cli():
    checked = []
    for command, output in transcripts():
        # elided output, a command shown without output, and kernels verify,
        # whose deviations depend on the BLAS library, are not compared
        if not output or "..." in output or command.startswith("dnncost kernels verify"):
            continue
        args = shlex.split(command)[1:]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, command
        assert result.stdout == output + "\n", command
        checked.append(args[0] if args[0] != "kernels" else " ".join(args[:2]))
    assert checked == ["stats", "compare", "kernels count", "compress"]
