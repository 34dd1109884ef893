"""End-to-end tests of the ``repro lint`` subcommand.

Covers text and ``--json`` output, ``--select``/``--ignore`` filters,
exit codes, ``--list-codes``, and byte-for-byte JSON stability across
runs on identical input (the contract CI and editors rely on).
"""

import json

import pytest

from repro.cli import main

CLEAN = "var x, y : integer;\nbegin x := 1; y := x end\n"
DEADLOCKED = (
    "var l : integer;\n"
    "    s : semaphore initially(0);\n"
    "begin wait(s); l := 1 end\n"
)
WARN_ONLY = "var x, ghost : integer;\nbegin x := 1 end\n"


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.cfm"
    path.write_text(CLEAN)
    return str(path)


@pytest.fixture()
def deadlocked_file(tmp_path):
    path = tmp_path / "deadlock.cfm"
    path.write_text(DEADLOCKED)
    return str(path)


@pytest.fixture()
def warn_file(tmp_path):
    path = tmp_path / "warn.cfm"
    path.write_text(WARN_ONLY)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_program_exits_zero(self, capsys, clean_file):
        code, out, _ = run_cli(capsys, "lint", clean_file)
        assert code == 0
        assert "0 findings" in out

    def test_error_diagnostic_exits_one(self, capsys, deadlocked_file):
        code, out, _ = run_cli(capsys, "lint", deadlocked_file)
        assert code == 1
        assert "RPL101" in out

    def test_warnings_alone_exit_zero(self, capsys, warn_file):
        code, out, _ = run_cli(capsys, "lint", warn_file)
        assert code == 0
        assert "RPL401" in out

    def test_strict_fails_on_warnings(self, capsys, warn_file):
        code, _, _ = run_cli(capsys, "lint", "--strict", warn_file)
        assert code == 1

    def test_exit_zero_overrides_errors(self, capsys, deadlocked_file):
        code, _, _ = run_cli(capsys, "lint", "--exit-zero", deadlocked_file)
        assert code == 0

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "lint", str(tmp_path / "nope.cfm"))
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "binary.cfm"
        path.write_bytes(b"\xa8\xff\x00garbage")
        code, _, err = run_cli(capsys, "lint", str(path))
        assert code == 2
        assert "cannot read" in err


class TestFilters:
    def test_select(self, capsys, deadlocked_file):
        code, out, _ = run_cli(capsys, "lint", "--select", "RPL4", deadlocked_file)
        assert code == 0  # RPL101 filtered out, nothing remains
        assert "RPL101" not in out

    def test_ignore(self, capsys, deadlocked_file):
        code, out, _ = run_cli(capsys, "lint", "--ignore", "RPL101", deadlocked_file)
        assert code == 0
        assert "RPL101" not in out

    def test_comma_separated_and_repeatable(self, capsys, warn_file):
        code, out, _ = run_cli(
            capsys, "lint", "--ignore", "RPL401,RPL402", "--ignore", "RPL3",
            warn_file,
        )
        assert code == 0
        assert "0 findings" in out


class TestOutput:
    def test_text_lines_carry_position_and_code(self, capsys, deadlocked_file):
        _, out, _ = run_cli(capsys, "lint", deadlocked_file)
        assert f"{deadlocked_file}:3:7: RPL101" in out

    def test_json_shape(self, capsys, deadlocked_file):
        _, out, _ = run_cli(capsys, "lint", "--json", deadlocked_file)
        data = json.loads(out)
        assert isinstance(data, list) and len(data) == 1
        result = data[0]
        assert result["subject"] == deadlocked_file
        assert result["counts"]["error"] == 1
        (diagnostic,) = result["diagnostics"]
        assert diagnostic["code"] == "RPL101"
        assert diagnostic["span"]["line"] == 3
        assert diagnostic["severity"] == "error"

    def test_json_is_stable_across_runs(self, capsys, deadlocked_file, warn_file):
        _, first, _ = run_cli(capsys, "lint", "--json", deadlocked_file, warn_file)
        _, second, _ = run_cli(capsys, "lint", "--json", deadlocked_file, warn_file)
        assert first == second

    def test_list_codes(self, capsys):
        code, out, _ = run_cli(capsys, "lint", "--list-codes")
        assert code == 0
        from repro.staticlint import CODES

        for rpl in CODES:
            assert rpl in out

    def test_parse_error_becomes_rpl001(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfm"
        bad.write_text("var x : integer;\nbegin x := end\n")
        code, out, _ = run_cli(capsys, "lint", str(bad))
        assert code == 1  # RPL001 is an error
        assert "RPL001" in out


class TestPythonModules:
    def test_lints_embedded_figure3(self, capsys):
        code, out, _ = run_cli(
            capsys, "lint", "examples/synchronization_channel.py"
        )
        assert code == 0  # warnings only
        assert "RPL502" in out
        assert ":figure3_program:" in out

    def test_binding_flags_enable_label_passes(self, capsys, tmp_path):
        path = tmp_path / "leak.cfm"
        path.write_text("var l, h : integer;\nbegin l := h end\n")
        code, out, _ = run_cli(
            capsys, "lint", "--bind", "l=low", "--bind", "h=high", str(path)
        )
        assert code == 1
        assert "RPL501" in out

    def test_relayed_leak_exits_1(self, capsys, tmp_path):
        """h reaches l through m: the binding fails and so must lint."""
        path = tmp_path / "chain.rl"
        path.write_text("var h, m, l : integer; begin m := h; l := m end\n")
        code, out, _ = run_cli(
            capsys, "lint", "--bind", "h=high", "--default", "low", str(path)
        )
        assert code == 1
        assert "RPL501" in out
        assert "'m'" in out
