"""Help screens and unknown-option messages of the command line.

Only ``--help``, a command group given no command and an unknown option
import this module, so that a command that runs neither compiles nor loads
it. A screen is laid out 80 columns wide as click lays it out: the option
column at most 30 wide, two spaces before each help text, and a longer term
on a line of its own with its text below at the same indent.
"""

from __future__ import annotations

import textwrap

METAVARS = {str: "TEXT", int: "INTEGER", float: "FLOAT"}


def _columns(rows) -> str:
    first = min(max(len(term) for term, _ in rows), 30) + 4
    lines = []
    for term, text in rows:
        head, *tail = textwrap.wrap(text, 80 - first, replace_whitespace=False)
        if len(term) + 4 > first:
            lines.append(f"  {term}")
            term = ""
        lines += [f"  {term}".ljust(first) + head] + [" " * first + line for line in tail]
    return "".join(f"{line}\n" for line in lines)


def help_screen(cmd, usage: str) -> str:
    """``cmd``'s --help screen: the usage line, its docstring, its options from
    its ``_Option`` table and, for a group, its commands."""
    rows = []
    for option in cmd.options:
        metavar = METAVARS.get(option.type) or f"[{'|'.join(option.type)}]"
        extra = ("[required]" if option.required else
                 f"[default: {option.default}]" * (option.default is not None))
        rows.append((f"{option.name} {metavar}", f"{option.help}  {extra}".strip()))
    screen = [f"Usage: {usage}\n", f"  {cmd.__doc__}\n",
              "Options:\n" + _columns(rows + [("--help", "Show this message and exit.")])]
    if hasattr(cmd, "commands"):
        screen.append("Commands:\n" + _columns([(name, sub.__doc__)
                                                for name, sub in sorted(cmd.commands.items())]))
    return "\n".join(screen)


def no_such_option(name: str, known) -> str:
    """The message for an unknown option ``name``, with the ``known`` names
    close to it."""
    if not name.startswith("--"):  # a short option: there are none
        return f"No such option {name[:2]!r}."
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, known))
    listed = ", ".join(map(repr, close))
    hint = f" Did you mean {listed}?" if len(close) == 1 else f" (Did you mean one of: {listed}?)"
    return f"No such option {name!r}." + hint * bool(close)
