"""Frozen CLI output: every report command, format and built-in network,
and every ``--help`` screen.

Each case runs the CLI in-process and compares stdout byte for byte with a
file under ``tests/golden/``. The files pin the rendering of every report and
of the help text, so a refactor of the CLI or of the engine beneath it cannot
change what users see without a test failing.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from dnncost.cli import main
from dnncost.stats import MULT_METHODS
from dnncost.zoo import BUILTIN_NAMES

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")

KERNEL_SIZES = {
    "direct": ["--out-size", "16", "--filter-size", "3"],
    "im2col": ["--out-size", "16", "--filter-size", "3"],
    "fft": ["--out-size", "32", "--filter-size", "5"],
    "winograd": ["--out-size", "8", "--filter-size", "3"],
    "strassen": ["--matrix-size", "8"],
}

HELP_COMMANDS = ((), ("stats",), ("analyze",), ("compare",), ("kernels",),
                 ("kernels", "verify"), ("kernels", "count"), ("compress",),
                 ("prune",))


def _cases():
    cases = {}
    for cmd in ("stats", "analyze", "compare"):
        for name in BUILTIN_NAMES:
            for fmt in FORMATS:
                cases[f"{cmd}-{name}-{fmt}"] = [cmd, "--builtin", name,
                                                "--format", fmt]
    for fmt in FORMATS:
        cases[f"analyze-lenet5-ws-bits8-dw05-{fmt}"] = [
            "analyze", "--builtin", "lenet5", "--dataflow", "ws", "--bits", "8",
            "--density-w", "0.5", "--format", fmt]
        for order in ("magnitude", "energy"):
            cases[f"prune-lenet5-{order}-{fmt}"] = [
                "prune", "--builtin", "lenet5", "--order", order, "--format", fmt]
    for method in MULT_METHODS:
        cases[f"kernels-count-{method}"] = (["kernels", "count", "--method", method]
                                            + KERNEL_SIZES[method])
    cases["compress-4096"] = ["compress", "--n", "4096"]
    for command in HELP_COMMANDS:
        cases["-".join(("help", *command))] = [*command, "--help"]
    return cases


CASES = _cases()


def run(args) -> bytes:
    """Stdout of one in-process CLI run, which must succeed. Help text is
    wrapped at a fixed width, whatever the terminal."""
    result = CliRunner().invoke(main, args, prog_name="dnncost", terminal_width=80)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert run(CASES[case]) == (GOLDEN / f"{case}.txt").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)
