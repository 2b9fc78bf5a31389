"""The command line's argv parser against click: a click command tree built
from the same ``_Option`` tables must end every argument list with the same
exit code, hand the command the same arguments, and print the same usage
errors and help.

click is run at 80 columns, the width the parser's help always has. Two
differences are by design: a missing option value and a value given to
``--help`` print the Usage and Try lines above the Error line, where click
prints the Error line alone."""

import click
from click.core import ParameterSource
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnncost import cli

CLICK_TYPES = {str: click.STRING, int: click.INT, float: click.FLOAT}


def _commands(group, path=()):
    """(path, command) of every command and group under ``group``."""
    for name, cmd in group.commands.items():
        yield (*path, name), cmd
        if isinstance(cmd, cli._Group):
            yield from _commands(cmd, (*path, name))


COMMANDS = dict(_commands(cli.main))


def _recorder(path, cmd, calls):
    """A command that takes ``cmd``'s options and records what it is given."""
    def record(**kwargs):
        calls.append((path, kwargs))
    record.options, record.__doc__ = cmd.options, cmd.__doc__
    return record


def parser_tree(group, calls, path=()):
    """``group`` with each command body replaced by a recorder."""
    return cli._Group(group.name, group.__doc__, {
        name: (parser_tree(cmd, calls, (*path, name)) if isinstance(cmd, cli._Group)
               else _recorder((*path, name), cmd, calls))
        for name, cmd in group.commands.items()})


def click_tree(group, calls, path=()):
    """``group`` as click commands with the same options, types, defaults and
    help, whose bodies record what they are given. click has no counterpart
    to the ``needs`` column, so each body applies it to the flags given."""
    def command(name, cmd):
        path_here = (*path, name)

        def record(**kwargs):
            ctx = click.get_current_context()
            for option in cmd.options:
                given = ctx.get_parameter_source(option.dest) is ParameterSource.COMMANDLINE
                if given and option.needs and not option.needs[0](kwargs):
                    raise click.UsageError(option.needs[1].format(option.name, **kwargs), ctx)
            calls.append((path_here, kwargs))

        params = [click.Option(
            [option.name, option.dest], help=option.help, required=option.required,
            show_default=True, **({} if option.default is None else {"default": option.default}),
            type=(click.Choice(option.type) if isinstance(option.type, tuple)
                  else CLICK_TYPES[option.type])) for option in cmd.options]
        return click.Command(name, params=params, callback=record, help=cmd.__doc__)

    return click.Group(group.name, help=group.__doc__, commands={
        name: (click_tree(cmd, calls, (*path, name)) if isinstance(cmd, cli._Group)
               else command(name, cmd))
        for name, cmd in group.commands.items()})


# the two errors click prints without its Usage and Try lines
_ERROR_ALONE = ("requires an argument.", "Option '--help' does not take a value.")


def _as_click(stderr):
    """``stderr`` with the Usage and Try lines of a usage error dropped, for
    the two errors click prints alone."""
    usage, sep, error = stderr.partition("\n\nError: ")
    if sep and usage.startswith("Usage: ") and error.rstrip("\n").endswith(_ERROR_ALONE):
        return "Error: " + error
    return stderr


def both(args):
    """(exit code, stdout, stderr, recorded call) of ``args`` under the parser
    and under click."""
    results = []
    for tree in (parser_tree, click_tree):
        calls = []
        result = CliRunner().invoke(tree(cli.main, calls), args, prog_name="dnncost",
                                    terminal_width=80)
        assert result.exit_code in (0, 2), (args, result.output, result.exception)
        assert len(calls) <= 1
        # by repr, so that a float's type shows and nan equals nan
        calls = [(path, sorted((dest, repr(value)) for dest, value in kwargs.items()))
                 for path, kwargs in calls]
        results.append((result.exit_code, result.stdout, result.stderr, calls))
    return results


def check(args):
    """The parser's exit code and recorded call, once they match click's."""
    (code, out, err, call), (click_code, click_out, click_err, click_call) = both(args)
    assert code == click_code, (args, err, click_err)
    assert out == click_out, args
    assert call == click_call, args
    assert _as_click(err) == click_err, args
    return code, call


# option names across all commands, so that a command also meets the names of
# its siblings, and values for every option type, in and out of range
NAMES = sorted({option.name for cmd in COMMANDS.values() for option in cmd.options})
CHOICES = sorted({value for cmd in COMMANDS.values() for option in cmd.options
                  if isinstance(option.type, tuple) for value in option.type})
BAD = ["", " ", "x", "1.5", "1e3", "nan", "-inf", "1_0", " 7 ", "٣", "١٢", "１", "0x10",
       "DIRECT", "Table", "--", "-"]
VALUES = (st.integers(-3, 300).map(str) | st.floats(allow_nan=False).map(repr)
          | st.sampled_from(CHOICES + BAD + ["a.json", "/no/such/file"]))
PREFIXES = sorted({name[:k] for name in NAMES for k in range(2, len(name))} - set(NAMES))
OTHERS = st.sampled_from(NAMES + PREFIXES + [
    "--bogus", "---builtin", "--=x", "-=0", "-h", "-x", "-hx", "-x=3", "--help", "--help=x",
    "--help=", "--", "-", *sorted({part for path in COMMANDS for part in path})])


def _values(option):
    """Values for ``option``: mostly of its own type, or a choice in another
    case, and now and then any value."""
    if isinstance(option.type, tuple):
        choices = st.sampled_from(option.type)
        own = choices | choices.map(str.upper) | choices.map(str.title)
    else:
        own = {int: st.integers(-3, 300).map(str), float: st.floats().map(repr),
               str: st.sampled_from(["a.json", "/no/such/file", ""])}[option.type]
    return own | VALUES


def _argv(path):
    """``path`` and then its own options, mostly, each alone, with a value
    after it or as ``--opt=value``, mixed with other tokens and values."""
    own = getattr(COMMANDS.get(tuple(path)), "options", ())
    if not own:  # a group
        return st.lists(OTHERS | VALUES, max_size=6).map(lambda tokens: path + tokens)
    options = st.sampled_from(own)
    pairs = options.flatmap(lambda option: st.tuples(st.just(option.name), _values(option)))
    token = st.one_of(pairs.map(list), pairs.map(lambda pair: ["=".join(pair)]),
                      options.map(lambda option: [option.name]),
                      OTHERS.map(lambda other: [other]), VALUES.map(lambda value: [value]))
    return st.lists(token, max_size=6).map(lambda tokens: path + sum(tokens, []))


ARGV = st.sampled_from([[], *map(list, COMMANDS)]).flatmap(_argv)


class TestParserAgainstClick:
    @settings(max_examples=600, deadline=None)
    @given(ARGV)
    @example(["stats", "--builtin", "lenet5", "--format=csv", "--format", "json"])
    @example(["kernels", "count", "--method", "strassen", "--matrix-size", "8"])
    @example(["compress", "--n", "3", "--n=4", "--seed", "٣"])
    @example(["kernels", "--help=x"])
    @example(["analyze", "--builtin", "x", "--", "--help"])
    @example(["prune", "--arch", "a.json", "--order=magnitude"])
    @example(["compress", "--decode", "a", "--encode", "b", "--seed", "0"])
    @example(["-=0"])
    @example(["strassen"])
    @example(["kernels", "verfy"])
    @example(["--"])
    @example(["kernels", "--"])
    @example(["--", "--help"])
    @example(["--", "--out"])
    @example(["kernels", "--", "-x"])
    @example(["--", "--help", "--bogus"])
    @example(["--", "--", "--help"])
    def test_same_outcome(self, args):
        check(args)

    def test_every_option_reaches_the_command(self):
        """Each option of each command, given alone, converts alike and reaches
        the command, but for those that need another flag."""
        stopped = set()
        for path, cmd in COMMANDS.items():
            for option in getattr(cmd, "options", ()):
                value = option.type[-1] if isinstance(option.type, tuple) else "3"
                code, call = check([*path, option.name, value])
                assert len(call) == (code == 0)
                if code:
                    stopped.add((*path, option.name))
        assert stopped == {  # kernels count also requires --method
            ("compress", "--encode"), ("compress", "--out"), ("prune", "--arch"),
            *(("kernels", "count", name) for name in ("--out-size", "--filter-size",
                                                      "--matrix-size"))}
