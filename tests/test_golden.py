"""Outputs pinned byte for byte in ``tests/golden/``."""

import argparse
from pathlib import Path

from ratindex.cli import build_parser

HELP = Path(__file__).parent / "golden" / "help"


def test_help_matches_golden(monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {"ratindex": parser.format_help()}
    helps.update((name, p.format_help()) for name, p in commands.choices.items())
    assert sorted(helps) == sorted(path.stem for path in HELP.glob("*.txt"))
    for name, text in helps.items():
        assert text == (HELP / ("%s.txt" % name)).read_text(encoding="utf-8"), name
