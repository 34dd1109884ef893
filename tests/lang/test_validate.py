"""Static validation."""

import pytest

from repro.errors import ValidationError
from repro.lang.parser import parse_program
from repro.lang.validate import check_program, validate_program


def problems_of(source):
    return [str(p) for p in validate_program(parse_program(source))]


def test_valid_program():
    assert problems_of("var x : integer; s : semaphore; begin x := 1; wait(s) end") == []


def test_undeclared_variable():
    probs = problems_of("var x : integer; y := 1")
    assert any("'y' is not declared" in p for p in probs)


def test_undeclared_reported_in_expression():
    probs = problems_of("var x : integer; x := z")
    assert any("'z'" in p for p in probs)


def test_duplicate_declaration():
    probs = problems_of("var x : integer; x : semaphore; x := 1")
    assert any("declared twice" in p for p in probs)


def test_assignment_to_semaphore():
    probs = problems_of("var s : semaphore; s := 1")
    assert any("wait/signal" in p for p in probs)


def test_wait_on_integer():
    probs = problems_of("var x : integer; wait(x)")
    assert any("non-semaphore" in p for p in probs)


def test_signal_on_integer():
    probs = problems_of("var x : integer; signal(x)")
    assert any("non-semaphore" in p for p in probs)


def test_semaphore_read_in_expression():
    probs = problems_of("var x : integer; s : semaphore; x := s")
    assert any("cannot be read" in p for p in probs)


def test_semaphore_in_condition():
    probs = problems_of("var x : integer; s : semaphore; if s > 0 then x := 1")
    assert any("cannot be read" in p for p in probs)


def test_negative_semaphore_initial():
    source = "var s : semaphore initially(-1); wait(s)"
    # The parser accepts it; the validator flags it.
    probs = problems_of(source)
    assert any("negative initial" in p for p in probs)


def test_check_program_raises():
    with pytest.raises(ValidationError):
        check_program(parse_program("var x : integer; y := 1"))


def test_check_program_counts_extra_problems():
    with pytest.raises(ValidationError) as exc:
        check_program(parse_program("var x : integer; begin y := 1; z := 2 end"))
    assert "more" in str(exc.value)


def test_figure3_is_valid():
    from repro.workloads.paper import figure3_program

    assert validate_program(figure3_program()) == []


def test_problem_str_has_location():
    probs = validate_program(parse_program("var x : integer;\ny := 1"))
    assert str(probs[0]).startswith("2:")


def test_full_problem_list_keeps_its_order():
    """Procedure problems first, then declarations, then the body in preorder."""
    source = (
        "proc p(in a; out b) b := a;\n"
        "proc p(in a; out b) b := a + 1;\n"
        "var x : integer; s : semaphore;\n"
        "begin\n"
        "  call q(x; x);\n"
        "  y := x;\n"
        "  s := 1;\n"
        "  x := s + y;\n"
        "  call p(x, 1; s)\n"
        "end\n"
    )
    assert problems_of(source) == [
        "1:1: procedure 'p' declared twice",
        "1:1: call to undeclared procedure 'q'",
        "1:1: call to 'p' passes 2 in-arguments, expected 1",
        "6:3: variable 'y' is not declared",
        "7:3: semaphore 's' may only be changed by wait/signal, not assignment",
        "8:8: semaphore 's' cannot be read in an expression",
        "8:12: variable 'y' is not declared",
        "9:3: semaphore 's' cannot be an out-argument",
    ]
