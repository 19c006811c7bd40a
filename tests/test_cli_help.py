"""Golden ``--help`` text of ``xrqos`` and of every subcommand, byte for byte.

The parsers are found by walking the argparse tree that ``build_parser`` returns,
so a new subcommand needs a new golden. The text is rendered 80 columns wide.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_cli_help.py``
after a change that is meant to alter the help, and say so in CHANGES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from xrqos.cli import build_parser, main

GOLDEN = Path(__file__).parent / "help_golden.json"
COLUMNS = "80"


def _commands(parser: argparse.ArgumentParser, words: tuple = ()):
    """The words of every parser in the tree: the top level, each group and each leaf."""
    yield " ".join(words)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, words + (name,))


COMMANDS = list(_commands(build_parser()))


def help_text(command: str) -> tuple[int, str]:
    """(exit code, stdout) of ``xrqos COMMAND --help``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*command.split(), "--help"])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_parser_has_a_golden(golden):
    assert sorted(COMMANDS) == sorted(golden)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c or "xrqos")
def test_help_is_byte_identical(command, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert help_text(command) == (0, golden[command])


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    record = {}
    for command in COMMANDS:
        code, text = help_text(command)
        assert code == 0, command
        record[command] = text
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} help texts to {GOLDEN}", file=sys.stderr)
