"""The CLI surface, pinned: every command's options and their defaults.

``tests/golden/cli_options.json`` maps each command to ``{option:
default}``, built from :func:`repro.cli.build_parser` rather than the
``--help`` text (argparse words help differently across Python
versions).  An option added, removed or given a new default fails this
test until the golden is rewritten on purpose::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_options.json"


def cli_options(parser: argparse.ArgumentParser) -> dict:
    """``{command: {option: default}}``; a positional is keyed by name."""
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {
        command: {
            (action.option_strings[0] if action.option_strings
             else action.dest): action.default
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)}
        for command, sub in sorted(commands.choices.items())}


def test_the_cli_surface_matches_the_golden():
    assert cli_options(build_parser()) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cli_options(build_parser()), indent=2,
                                 sort_keys=True) + "\n")
    print("wrote", GOLDEN)
