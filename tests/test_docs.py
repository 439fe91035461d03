"""The docs quote only commands that exist.

Every ``ert-repro`` subcommand that README.md, ``docs/*.md`` or
``benchmarks/pipeline/README.md`` quotes as a command must be one the
CLI accepts: a subparser of :func:`repro.cli.build_parser` or a name
:mod:`repro.cli` hands to another module (``_DELEGATED``).  A quote is
inline code that begins ```ert-repro X``, or a line of a fenced code
block that begins ``ert-repro X`` or ``$ ert-repro X``.  Prose that
names the program (README's file tree: "the ert-repro command-line
interface") is not a command.
"""

import re
from pathlib import Path

import pytest

from repro.cli import _DELEGATED, build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md"),
               REPO / "benchmarks" / "pipeline" / "README.md"])

_INLINE = re.compile(r"`ert-repro ([a-z][a-z0-9-]*)")
_BLOCK_LINE = re.compile(r"(?:\$ )?ert-repro ([a-z][a-z0-9-]*)")


def quoted_subcommands(text: str) -> "list[tuple[int, str]]":
    """``(line number, subcommand)`` for every command quoted in a
    Markdown ``text``."""
    found = []
    in_block = False
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped.startswith("```"):
            in_block = not in_block
            continue
        if in_block:
            match = _BLOCK_LINE.match(stripped)
            if match:
                found.append((number, match.group(1)))
        found.extend((number, name) for name in _INLINE.findall(line))
    return found


def _cli_subcommands() -> "set[str]":
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command")
    return set(subparsers.choices) | set(_DELEGATED)


def test_quoted_subcommands_reads_commands_not_prose():
    text = ("Run `ert-repro seed --index i` or `ert-repro report:` x.\n"
            "```text\n"
            "$ ert-repro align --index i\n"
            "ert-repro explain --read-id r\n"
            "  cli.py      the ert-repro command-line interface\n"
            "python -m repro.cli check\n"
            "```\n"
            "the ert-repro command-line interface\n")
    assert quoted_subcommands(text) == [
        (1, "seed"), (1, "report"), (3, "align"), (4, "explain")]


@pytest.mark.parametrize("path", DOCS, ids=lambda p: str(p.relative_to(REPO)))
def test_docs_quote_only_real_subcommands(path):
    known = _cli_subcommands()
    unknown = [f"{path.relative_to(REPO)}:{number}: ert-repro {name}"
               for number, name in quoted_subcommands(path.read_text())
               if name not in known]
    assert not unknown, "\n".join(unknown)
