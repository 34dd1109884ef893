"""Golden-output tests: exact codes and spans per lint pass."""

import pytest

from repro.lang.parser import parse_program, parse_statement
from repro.staticlint import run_lint, static_deadlock
from repro.workloads.litmus import CASES
from repro.workloads.paper import figure3_program


def codes(result):
    return [d.code for d in result.diagnostics]


def at(result, code):
    """(line, column) pairs of every finding with ``code``."""
    return [
        (d.span.line, d.span.column)
        for d in result.diagnostics
        if d.code == code
    ]


class TestDeadlockPass:
    def test_wait_never_signalled_is_error(self):
        program = parse_program(
            "var l : integer;\n"
            "    s : semaphore initially(0);\n"
            "begin wait(s); l := 1 end"
        )
        result = run_lint(program)
        assert codes(result) == ["RPL101"]
        diagnostic = result.diagnostics[0]
        assert diagnostic.severity == "error"
        assert (diagnostic.span.line, diagnostic.span.column) == (3, 7)
        assert static_deadlock(program).may_deadlock

    def test_initial_value_covers_the_wait(self):
        program = parse_program(
            "var l : integer;\n"
            "    s : semaphore initially(1);\n"
            "begin wait(s); l := 1 end"
        )
        assert static_deadlock(program).deadlock_free
        assert codes(run_lint(program)) == []

    def test_balanced_handoff_is_clean(self):
        program = parse_program(
            "var x : integer; s : semaphore initially(0);\n"
            "cobegin\n"
            "  begin x := 1; signal(s) end\n"
            "||\n"
            "  begin wait(s); x := 2 end\n"
            "coend"
        )
        result = run_lint(program, select=("RPL1",))
        assert codes(result) == []

    def test_conditional_signal_is_not_guaranteed(self):
        program = parse_program(
            "var x, l : integer; s : semaphore initially(0);\n"
            "begin\n"
            "  if x = 0 then signal(s);\n"
            "  wait(s)\n"
            "end"
        )
        result = run_lint(program, select=("RPL102",))
        assert codes(result) == ["RPL102"]
        assert at(result, "RPL102") == [(4, 3)]

    def test_wait_order_cycle(self):
        program = parse_program(
            "var a, b : semaphore initially(1);\n"
            "cobegin\n"
            "  begin wait(a); wait(b); signal(b); signal(a) end\n"
            "||\n"
            "  begin wait(b); wait(a); signal(a); signal(b) end\n"
            "coend"
        )
        result = run_lint(program, select=("RPL103",))
        assert codes(result) == ["RPL103"]


class TestRacePass:
    def test_unsynchronized_write_write(self):
        program = parse_program(
            "var x : integer;\ncobegin x := 1 || x := 2 coend"
        )
        result = run_lint(program, select=("RPL201",))
        assert codes(result) == ["RPL201"]
        assert at(result, "RPL201") == [(2, 9)]

    def test_mutex_held_on_both_sides_is_clean(self):
        program = parse_program(
            "var x : integer; m : semaphore initially(1);\n"
            "cobegin\n"
            "  begin wait(m); x := 1; signal(m) end\n"
            "||\n"
            "  begin wait(m); x := 2; signal(m) end\n"
            "coend"
        )
        assert codes(run_lint(program, select=("RPL201",))) == []

    def test_sequential_program_has_no_races(self):
        program = parse_program("var x : integer; begin x := 1; x := x + 1 end")
        assert codes(run_lint(program, select=("RPL2",))) == []


class TestFlowPasses:
    def test_use_before_assign_span(self):
        program = parse_program(
            "var x, y : integer;\nbegin y := x; x := 1 end"
        )
        result = run_lint(program, select=("RPL301",))
        assert codes(result) == ["RPL301"]
        assert at(result, "RPL301") == [(2, 7)]

    def test_handoff_signal_establishes_the_fact(self):
        # Figure-3-style: the wait guarantees the parallel assignment
        # completed, so reading x afterwards is *not* use-before-assign.
        program = parse_program(
            "var x, y : integer; s : semaphore initially(0);\n"
            "cobegin\n"
            "  begin x := 1; signal(s) end\n"
            "||\n"
            "  begin wait(s); y := x end\n"
            "coend"
        )
        assert codes(run_lint(program, select=("RPL301",))) == []

    def test_dead_assignment(self):
        program = parse_program(
            "var x : integer;\nbegin x := 1; x := 2 end"
        )
        result = run_lint(program, select=("RPL302",))
        assert codes(result) == ["RPL302"]
        assert at(result, "RPL302") == [(2, 7)]

    def test_last_assignment_is_never_dead(self):
        # The final store is observable, so `x := 2` is live at exit.
        program = parse_program("var x : integer;\nbegin x := 2 end")
        assert codes(run_lint(program, select=("RPL302",))) == []

    def test_unreachable_constant_guard(self):
        program = parse_program(
            "var x : integer;\nbegin if 1 = 2 then x := 5; x := 1 end"
        )
        result = run_lint(program, select=("RPL303",))
        assert codes(result) == ["RPL303"]
        assert at(result, "RPL303") == [(2, 21)]

    def test_while_false_body_unreachable(self):
        program = parse_program(
            "var x : integer;\nbegin while 0 = 1 do x := 5; x := 1 end"
        )
        assert codes(run_lint(program, select=("RPL303",))) == ["RPL303"]


class TestUnusedPass:
    def test_unused_variable_and_semaphore(self):
        program = parse_program(
            "var x, ghost : integer;\n"
            "    s : semaphore initially(1);\n"
            "begin x := 1 end"
        )
        result = run_lint(program, select=("RPL4",))
        assert codes(result) == ["RPL401", "RPL402"]
        assert at(result, "RPL401") == [(1, 5)]
        assert at(result, "RPL402") == [(2, 5)]

    def test_bare_statement_declares_nothing(self):
        assert codes(run_lint(parse_statement("l := h"), select=("RPL4",))) == []


class TestLabelPass:
    def test_figure3_synchronization_channel(self):
        result = run_lint(figure3_program(), select=("RPL502",))
        assert codes(result) == ["RPL502"] * 4
        # the guarded signal(modify) in the first while iteration
        assert (7, 16) in at(result, "RPL502")
        for d in result.diagnostics:
            assert d.span.line > 0, "RPL502 must carry a real span"
            assert "x" in dict(d.extra)["guards"]

    def test_unconditional_sync_is_not_a_channel(self):
        program = parse_program(
            "var x : integer; s : semaphore initially(0);\n"
            "cobegin begin x := 1; signal(s) end || wait(s) coend"
        )
        assert codes(run_lint(program, select=("RPL502",))) == []

    def test_label_creep_is_error(self):
        from repro.core.binding import StaticBinding
        from repro.lattice.chain import two_level

        scheme = two_level()
        binding = StaticBinding(
            scheme, {"l": scheme.bottom, "h": scheme.top}
        )
        result = run_lint(parse_statement("l := h"), binding=binding)
        assert codes(result) == ["RPL501"]
        assert result.diagnostics[0].severity == "error"

    def test_over_classification_is_info(self):
        from repro.core.binding import StaticBinding
        from repro.lattice.chain import two_level

        scheme = two_level()
        binding = StaticBinding(
            scheme, {"l": scheme.bottom, "h": scheme.top}
        )
        result = run_lint(parse_statement("h := l"), binding=binding)
        assert codes(result) == ["RPL503"]
        assert result.diagnostics[0].severity == "info"

    def test_no_binding_no_creep_diagnostics(self):
        result = run_lint(parse_statement("l := h"))
        assert "RPL501" not in codes(result)
        assert "RPL503" not in codes(result)

    @pytest.mark.parametrize(
        "source,flagged",
        [
            # freeing m raises it to high, which breaks the next hop
            ("begin m := h; l := m end", [("m", "high")]),
            # two independent leaks must not veto each other's report
            ("begin l1 := h1; l2 := h2 end", [("l1", "high"), ("l2", "high")]),
        ],
    )
    def test_creep_reported_when_another_check_fails_too(self, source, flagged):
        from repro.core.binding import StaticBinding
        from repro.lattice.chain import two_level

        scheme = two_level()
        binding = StaticBinding(
            scheme,
            {"h": scheme.top, "h1": scheme.top, "h2": scheme.top},
            default=scheme.bottom,
        )
        result = run_lint(
            parse_statement(source), binding=binding, select=("RPL501",)
        )
        assert [
            (dict(d.extra)["variable"], dict(d.extra)["required"])
            for d in result.diagnostics
        ] == flagged

    @pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
    def test_pipeline_lint_flags_exactly_the_cases_cfm_rejects(self, case):
        """The pipeline's default policy is the litmus binding (h, h2
        high), so its lint reports RPL501 exactly where CFM rejects,
        including the cross-process relay and the section 4.3
        synchronization flow (semaphore-order)."""
        from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG

        document = ANALYSES["lint"].run(case.statement(), dict(DEFAULT_CONFIG))
        found = [d["code"] for d in document["diagnostics"]]
        assert ("RPL501" in found) == (not case.cfm)


class TestFiltering:
    PROGRAM = (
        "var x, ghost : integer;\n"
        "begin x := 1; x := 2 end"
    )

    def test_select_prefix(self):
        program = parse_program(self.PROGRAM)
        assert codes(run_lint(program, select=("RPL4",))) == ["RPL401"]

    def test_ignore_prefix(self):
        program = parse_program(self.PROGRAM)
        assert codes(run_lint(program, ignore=("RPL3",))) == ["RPL401"]

    def test_sorted_by_position(self):
        program = parse_program(self.PROGRAM)
        result = run_lint(program)
        keys = [d.sort_key() for d in result.diagnostics]
        assert keys == sorted(keys)
