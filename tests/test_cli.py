"""The command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.lang.parser import MAX_DEPTH
from repro.workloads.paper import FIGURE3_SOURCE
from tests.lang.nesting import SHAPES, nested_program


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.rl"
    path.write_text(FIGURE3_SOURCE)
    return str(path)


@pytest.fixture
def simple_file(tmp_path):
    path = tmp_path / "simple.rl"
    path.write_text("var x, y : integer; begin x := 1; y := x end")
    return str(path)


def test_certify_accepts(simple_file, capsys):
    code = main(["certify", simple_file, "--bind", "x=low", "--bind", "y=high"])
    assert code == 0
    assert "CERTIFIED" in capsys.readouterr().out


def test_certify_rejects(simple_file, capsys):
    code = main(["certify", simple_file, "--bind", "x=high", "--bind", "y=low", "--quiet"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "REJECTED"


def test_certify_figure3(fig3_file, capsys):
    code = main(["certify", fig3_file, "--bind", "x=high", "--default", "low"])
    assert code == 1
    assert "composition" in capsys.readouterr().out


def test_missing_binding_reported(simple_file, capsys):
    with pytest.raises(SystemExit):
        main(["certify", simple_file, "--bind", "x=low"])


def test_bad_bind_syntax(simple_file):
    with pytest.raises(SystemExit):
        main(["certify", simple_file, "--bind", "xlow"])


def test_denning_reject_mode(fig3_file, capsys):
    code = main(["denning", fig3_file, "--default", "low"])
    assert code == 1
    assert "unsupported" in capsys.readouterr().out


def test_denning_ignore_mode(fig3_file, capsys):
    code = main(
        ["denning", fig3_file, "--bind", "x=high", "--default", "low",
         "--on-concurrency", "ignore"]
    )
    assert code == 0


def test_infer(fig3_file, capsys):
    code = main(["infer", fig3_file, "--bind", "x=high"])
    assert code == 0
    assert "y='high'" in capsys.readouterr().out


def test_infer_unsat(fig3_file, capsys):
    code = main(["infer", fig3_file, "--bind", "x=high", "--bind", "y=low"])
    assert code == 1
    assert "unsatisfiable" in capsys.readouterr().out


def test_prove(simple_file, capsys):
    code = main(["prove", simple_file, "--bind", "x=low", "--bind", "y=low"])
    assert code == 0
    out = capsys.readouterr().out
    assert "VALID" in out
    assert "completely invariant: True" in out


def test_prove_render(simple_file, capsys):
    main(["prove", simple_file, "--default", "low", "--render"])
    assert "[composition]" in capsys.readouterr().out


def test_run(fig3_file, capsys):
    code = main(["run", fig3_file, "--set", "x=0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: completed" in out
    assert "y = 1" in out


def test_run_with_trace_and_seed(fig3_file, capsys):
    code = main(["run", fig3_file, "--set", "x=1", "--seed", "3", "--trace"])
    assert code == 0
    assert "signal" in capsys.readouterr().out


def test_run_deadlock_exit_code(tmp_path, capsys):
    path = tmp_path / "dl.rl"
    path.write_text("var s : semaphore; wait(s)")
    assert main(["run", str(path)]) == 1


def test_explore(fig3_file, capsys):
    code = main(["explore", fig3_file, "--set", "x=0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "complete=True" in out
    assert "completed(" in out


def test_report(fig3_file, capsys):
    code = main(["report", fig3_file, "--bind", "x=high", "--default", "low", "--source"])
    assert code == 0
    out = capsys.readouterr().out
    assert "flow relation" in out and "cobegin" in out


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("var x : integer; x := 1"))
    assert main(["certify", "-", "--bind", "x=low"]) == 0


def test_validation_failure_exit(tmp_path, capsys):
    path = tmp_path / "bad.rl"
    path.write_text("var x : integer; y := 1")
    with pytest.raises(SystemExit) as exc:
        main(["certify", str(path), "--default", "low"])
    assert exc.value.code == 2


def test_parse_error_is_handled(tmp_path, capsys):
    path = tmp_path / "bad.rl"
    path.write_text("if if if")
    code = main(["certify", str(path), "--default", "low"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_four_level_scheme(tmp_path, capsys):
    path = tmp_path / "p.rl"
    path.write_text("var a, b : integer; b := a")
    code = main(
        ["certify", str(path), "--scheme", "four-level",
         "--bind", "a=confidential", "--bind", "b=secret"]
    )
    assert code == 0


@pytest.mark.parametrize("command", [
    ["certify", "--bind", "x=low"],
    ["batch", "--no-cache", "--analyses", "cert"],
])
def test_non_decimal_digit_is_a_clean_lex_error(tmp_path, capsys, command):
    """Regression: ``str.isdigit()`` lexed ``1²`` as a number, and the
    parser's ``int()`` then escaped as a bare ``ValueError``."""
    path = tmp_path / "sup.rl"
    path.write_text("var x : integer;\nx := 1²\n")
    code = main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: 2:7: illegal character '²'\n"


@pytest.mark.parametrize("content", ["[1, 2]", '["hy"]'])
@pytest.mark.parametrize("command", ["certify", "lint", "infer"])
def test_bindings_file_must_hold_an_object(tmp_path, command, content):
    """Regression: ``infer`` handed the file to ``dict.update``, so
    ``[1, 2]`` escaped as a ``TypeError`` and ``["hy"]`` read as h -> y.
    Every subcommand refuses both the way ``certify`` always did."""
    prog = tmp_path / "leak.rl"
    prog.write_text("var h, y : integer; y := h")
    binds = tmp_path / "binds.json"
    binds.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([command, str(prog), "--bindings", str(binds)])
    # a string code: the interpreter prints it and exits with status 1
    assert exc.value.code == "error: the bindings file must hold a JSON object"


def _exit_code(argv):
    """``main``'s exit status, whether returned or raised (argparse exits)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,named", [
    (["serve", "--jobs", "0"], "--jobs"),
    (["serve", "--lru-size", "-1"], "--lru-size"),
    (["serve", "--max-queue", "0"], "--max-queue"),
    (["loadtest", "--max-queue", "0"], "--max-queue"),
    (["serve", "--tenant-rps", "0"], "--tenant-rps"),
    (["serve", "--tenant-burst", "0.5"], "--tenant-burst"),
    (["loadtest", "--jobs", "0"], "--jobs"),
    (["batch", "--corpus", "litmus", "--jobs", "-4"], "--jobs"),
    (["serve", "--lru-size", "many"], "--lru-size"),
    (["fuzz", "--jobs", "0"], "--jobs"),
    (["serve", "--tenant-burst", "lots"], "--tenant-burst"),
    (["loadtest", "--clients", "0"], "--clients"),
    (["loadtest", "--overload-clients", "0"], "--overload-clients"),
    (["loadtest", "--tenant-rps", "-1"], "--tenant-rps"),
    (["batch", "--corpus", "litmus", "--jobs", "two"], "--jobs"),
    (["certify", "{missing}"], "{missing}"),
    (["certify", "{directory}"], "{directory}"),
    (["certify", "{latin1}"], "{latin1}"),
    (["batch", "--no-cache", "{missing}"], "{missing}"),
    (["batch", "--no-cache", "{directory}"], "{directory}"),
    (["batch", "--no-cache", "{latin1}"], "{latin1}"),
])
def test_bad_counts_and_unreadable_files_are_usage_errors(
    tmp_path, capsys, argv, named
):
    """Regression: each of these died with a traceback and exit 1, or,
    like ``batch --jobs -4``, ran with a nonsense value."""
    (tmp_path / "directory").mkdir()
    (tmp_path / "latin1.rl").write_bytes(b"var x : integer; x := 1 -- caf\xe9\n")
    paths = {
        name: str(tmp_path / file)
        for name, file in (
            ("missing", "missing.rl"),
            ("directory", "directory"),
            ("latin1", "latin1.rl"),
        )
    }
    argv = [arg.format(**paths) for arg in argv]
    named = named.format(**paths)
    code = _exit_code(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err
    if named.startswith("--"):
        assert f"argument {named}: " in err
    else:
        assert err.startswith(f"error: cannot read {named}: ")


@pytest.mark.parametrize("argv,named", [
    (["run", "{program}", "--set", "x=abc"], "--set: 'abc'"),
    (["explore", "{program}", "--set", "x=1.5"], "--set: '1.5'"),
    (["ni", "{program}", "--default", "low", "--observer", "low",
      "--vary", "x=a,b"], "--vary: 'a'"),
    (["ni", "{program}", "--default", "low", "--observer", "low",
      "--vary", "x"], "--vary: ''"),
    (["leak", "{program}", "--default", "low", "--observer", "low",
      "--values", "a,b"], "--values: 'a'"),
    (["certify", "{program}", "--bindings", "{missing}"],
     "cannot read {missing}"),
    (["infer", "{program}", "--bindings", "{missing}"],
     "cannot read {missing}"),
    (["lint", "{program}", "--bindings", "{missing}"],
     "cannot read {missing}"),
    (["certify", "{program}", "--bindings", "{garbled}"],
     "{garbled} is not JSON"),
    (["check-cert", "{program}", "{missing}"], "cannot read {missing}"),
    (["check-cert", "{program}", "{garbled}"], "{garbled} is not JSON"),
    (["certify", "{program}", "--scheme-file", "{missing}"],
     "cannot read {missing}"),
    (["prove", "{program}", "--default", "low", "--save-cert", "{nodir}"],
     "cannot write {nodir}"),
    (["batch", "{program}", "--no-cache", "--analyses", "cert",
      "--metrics", "{nodir}"], "cannot write {nodir}"),
    (["batch", "{program}", "--no-cache", "--analyses", "cert",
      "--trace", "{nodir}"], "cannot write {nodir}"),
    (["fuzz", "--seeds", "1", "--oracles", "parse-pretty",
      "--metrics", "{nodir}"], "cannot write {nodir}"),
    (["fuzz", "--replay", "{missing}"], "cannot read {missing}"),
    (["fuzz", "--replay", "{corpus}"], "{corpus}/garbled.json is not JSON"),
    (["fuzz", "--replay", "{listed}"], "{listed}/list.json has schema None"),
    (["fuzz", "--replay", "{bogus}"],
     "{bogus}/finding.json: unknown subject kind 'bogus'"),
    (["fuzz", "--replay", "{unparsable}"],
     "{unparsable}/finding.json: 1:23: expected an expression, "
     "found end of input"),
])
def test_bad_values_and_files_are_one_line_errors(tmp_path, capsys, argv, named):
    """Regression: each of these died with a traceback and exit 1, and
    ``fuzz --replay`` of a missing directory replayed nothing and
    passed (exit 0), as did a finding of an unknown kind, which
    replayed as a statement.  A finding that cannot be replayed is
    named by its file."""
    program = tmp_path / "p.rl"
    program.write_text("var x, y : integer; begin x := 1; y := x end")
    (tmp_path / "garbled.json").write_text("{not json")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "garbled.json").write_text("{not json")
    (tmp_path / "listed").mkdir()
    (tmp_path / "listed" / "list.json").write_text("[1, 2]")
    (tmp_path / "bogus").mkdir()
    (tmp_path / "bogus" / "finding.json").write_text(json.dumps({
        "schema": "repro-fuzz-finding/1", "oracle": "parse-pretty",
        "kind": "bogus", "source": "x := 1",
    }))
    (tmp_path / "unparsable").mkdir()
    (tmp_path / "unparsable" / "finding.json").write_text(json.dumps({
        "schema": "repro-fuzz-finding/1", "oracle": "parse-pretty",
        "kind": "program", "source": "var x : integer; x := ",
    }))
    paths = {
        "program": str(program),
        "missing": str(tmp_path / "missing.json"),
        "garbled": str(tmp_path / "garbled.json"),
        "nodir": str(tmp_path / "no-such-dir" / "out.json"),
        "corpus": str(tmp_path / "corpus"),
        "listed": str(tmp_path / "listed"),
        "bogus": str(tmp_path / "bogus"),
        "unparsable": str(tmp_path / "unparsable"),
    }
    argv = [arg.format(**paths) for arg in argv]
    code = _exit_code(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named.format(**paths) in err


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("command", [
    ["certify", "--default", "low"],
    ["batch", "--no-cache"],
])
def test_deeply_nested_programs_are_refused_with_a_position(
    tmp_path, capsys, command, shape
):
    """Regression: 10,000 levels overflowed the stack in the parser,
    the pretty-printer or a certifier, and died with a traceback."""
    path = tmp_path / f"{shape}.rl"
    path.write_text(nested_program(shape, 10_000))
    code = main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(
        rf"error: \d+:\d+: nesting deeper than {MAX_DEPTH} levels\n", err
    )


@pytest.mark.parametrize("argv", [
    ["serve", "--shards", "2"],
    ["serve", "--chunk-size", "4"],
    ["loadtest", "--shards", "2"],
    # batch would read a separate "4" as a program file
    ["batch", "--chunk-size=4"],
    ["fuzz", "--chunk-size", "4"],
    ["fuzz", "--no-fastpath"],
    ["serve", "--no-fastpath"],
])
def test_removed_serve_options_are_usage_errors(capsys, argv):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in (
        capsys.readouterr().err
    )
