"""The CLI against its pinned parse surface (see ``cli_surface.py``).

How ``repro-ifc`` is organised inside may change; what each command
line parses to may not, short of regenerating the golden file.
"""

import json

import pytest

from repro.cli import main
from tests.cli_surface import load_golden, surface

GOLDEN = load_golden()
COMMANDS = list(dict.fromkeys(json.loads(line)["command"] for line in GOLDEN))


def test_parse_surface_matches_golden():
    assert surface() == GOLDEN


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro-ifc {command} ")
