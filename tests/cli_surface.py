"""The CLI's parse surface, pinned: one JSON line per option.

Each line records what ``argparse`` makes of one option or positional
of one ``repro-ifc`` subcommand: its option strings, ``dest``, action
class, default, type, choices, ``nargs``, ``required`` and
``metavar``.  Help text is left out, so rewording a help string changes
nothing here, while any change to what a command line parses to does.
Argument types are recorded by name, so every range-checked type of
``repro.cli`` reads ``parse``; ``tests/test_cli.py`` pins their ranges.

``tests/test_cli_surface.py`` rebuilds the lines from ``build_parser()``
and compares them with ``cli_surface.jsonl``.  The file is written by::

    PYTHONPATH=src python -m tests.cli_surface

and is regenerated only when the command line is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List

from repro.cli import build_parser

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "cli_surface.jsonl")


def subcommands() -> Dict[str, argparse.ArgumentParser]:
    """Every subcommand's parser, in the order ``--help`` lists them."""
    (group,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(group.choices)


def surface() -> List[str]:
    """One sorted-key JSON line per non-help action of every subcommand."""
    lines = []
    for command, parser in subcommands().items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            lines.append(json.dumps({
                "command": command,
                "options": action.option_strings,
                "dest": action.dest,
                "action": type(action).__name__,
                "default": action.default,
                "type": getattr(action.type, "__name__", None),
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "nargs": action.nargs,
                "required": action.required,
                "metavar": action.metavar,
            }, sort_keys=True))
    return lines


def load_golden() -> List[str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("\n".join(surface()) + "\n")
