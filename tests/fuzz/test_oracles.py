"""The differential oracles: known-answer cases for each relation."""

import pytest

from repro.fuzz.driver import FUZZ_CONFIG, generate_subject
from repro.fuzz.oracles import (
    ORACLES,
    OracleSkip,
    PROFILES,
    _value_blowup_risk,
    oracle_names,
)
from repro.lang.parser import parse_program, parse_statement

CONFIG = dict(FUZZ_CONFIG)

SQUARING_LOOP = """\
var v, c : integer;
begin
  v := 9;
  c := 0;
  while c < 14 do
    begin
      v := v * v;
      c := c + 1
    end
end"""


def test_registry_is_complete_and_consistent():
    assert oracle_names() == tuple(sorted(ORACLES))
    for name, spec in ORACLES.items():
        assert spec.name == name
        assert spec.description
        assert spec.paper
        assert spec.profiles
        assert set(spec.profiles) <= set(PROFILES)
    # the policy oracles only apply to explorable programs
    assert ORACLES["cert-ni"].profiles == ("runtime_safe",)
    assert ORACLES["runtime-safe"].profiles == ("runtime_safe",)


class TestValueBlowupRisk:
    def test_squaring_under_a_loop_is_risky(self):
        assert _value_blowup_risk(parse_program(SQUARING_LOOP))

    def test_squaring_without_a_loop_is_fine(self):
        assert not _value_blowup_risk(parse_statement("v := v * v"))

    def test_multiplying_by_a_literal_is_fine(self):
        assert not _value_blowup_risk(
            parse_statement("while c < 5 do begin v := v * 2; c := c + 1 end")
        )

    def test_nested_loops_are_seen(self):
        s = parse_statement(
            "while a < 2 do if b = 0 then while c < 5 do v := v * v"
        )
        assert _value_blowup_risk(s)


def test_runtime_safe_reports_a_deadlock_as_violation():
    s = parse_statement(
        "cobegin begin wait(a); signal(b) end || "
        "begin wait(b); signal(a) end coend"
    )
    outcome = ORACLES["runtime-safe"].check(s, CONFIG)
    assert isinstance(outcome, dict)
    assert "never deadlock" in outcome["relation"]


def test_runtime_safe_passes_on_a_terminating_program():
    s = parse_statement("begin x := 1; cobegin y := x || z := x coend end")
    assert ORACLES["runtime-safe"].check(s, CONFIG) is None


def test_runtime_safe_skips_value_blowups():
    outcome = ORACLES["runtime-safe"].check(parse_program(SQUARING_LOOP), CONFIG)
    assert isinstance(outcome, OracleSkip)
    assert "multiplication" in outcome.reason


def test_runtime_safe_skips_when_the_budget_is_hit():
    s = parse_statement("while true do x := x + 1")
    outcome = ORACLES["runtime-safe"].check(s, dict(CONFIG, max_states=50))
    assert isinstance(outcome, OracleSkip)


def test_deadlock_lint_agrees_on_a_real_deadlock():
    # The static pass must also flag it, so the relation *holds*.
    s = parse_statement(
        "cobegin begin wait(a); signal(b) end || "
        "begin wait(b); signal(a) end coend"
    )
    assert ORACLES["deadlock-lint"].check(s, CONFIG) is None


def test_cert_ni_skips_without_a_high_variable():
    s = parse_statement("begin x := 1; y := x end")
    outcome = ORACLES["cert-ni"].check(s, dict(CONFIG, high=("h",)))
    assert isinstance(outcome, OracleSkip)
    assert "no high variable" in outcome.reason


def test_cert_ni_passes_on_a_certified_program():
    # v0 is bound high by FUZZ_CONFIG; v0 := v0 + 1 flows high -> high.
    s = parse_statement("begin v0 := v0 + 1; y := 1 end")
    assert ORACLES["cert-ni"].check(s, CONFIG) is None


def test_parse_pretty_fixpoint_on_generated_programs():
    for seed in range(6):
        for profile in PROFILES:
            subject = generate_subject(seed, profile)
            assert ORACLES["parse-pretty"].check(subject, CONFIG) is None


def test_cert_proof_on_a_simple_program():
    s = parse_statement("begin x := 1; y := x end")
    assert ORACLES["cert-proof"].check(s, CONFIG) is None


def test_denning_containment_on_a_certified_program():
    s = parse_statement("begin x := 1; y := x end")
    assert ORACLES["denning-contain"].check(s, CONFIG) is None


def test_pipeline_idem_on_a_small_program():
    subject = generate_subject(1, "runtime_safe")
    assert ORACLES["pipeline-idem"].check(subject, CONFIG) is None


def test_generate_subject_rejects_unknown_profiles():
    with pytest.raises(ValueError, match="unknown profile"):
        generate_subject(0, "bogus")


def test_generate_subject_is_deterministic():
    from repro.lang.pretty import pretty

    a = generate_subject(5, "runtime_safe")
    b = generate_subject(5, "runtime_safe")
    assert pretty(a) == pretty(b)


# -- cert-equiv: the fused fast path against the reference analyzers ---------


def test_cert_equiv_holds_on_parsed_and_generated_programs():
    s = parse_statement("begin x := v0; while v0 > 0 do x := x - 1 end")
    assert ORACLES["cert-equiv"].check(s, CONFIG) is None
    for seed in range(4):
        for profile in PROFILES:
            assert ORACLES["cert-equiv"].check(
                generate_subject(seed, profile), CONFIG
            ) is None


def test_cert_equiv_skips_when_the_fast_path_is_disabled():
    outcome = ORACLES["cert-equiv"].check(
        parse_statement("x := 1"), dict(CONFIG, fastpath=False)
    )
    assert isinstance(outcome, OracleSkip)
    assert "disabled" in outcome.reason


def test_cert_equiv_skips_subjects_the_fast_path_declines():
    source = (
        "proc inc(in a; out b) b := a + 1 "
        "var x, h : integer; begin call inc(h; x) end"
    )
    outcome = ORACLES["cert-equiv"].check(parse_program(source), CONFIG)
    assert isinstance(outcome, OracleSkip)
    assert "declined" in outcome.reason


def test_cert_equiv_reports_a_divergence(monkeypatch):
    # Sabotage the fused certifier: the oracle must catch the lie.
    def lying_fused_cert(subject, config):
        return {"certified": True, "checks": 0, "violations": []}

    monkeypatch.setattr("repro.fastpath.fused_cert", lying_fused_cert)
    s = parse_statement("x := v0")  # v0 is high under FUZZ_CONFIG
    outcome = ORACLES["cert-equiv"].check(s, CONFIG)
    assert isinstance(outcome, dict)
    assert outcome["relation"] == "fused cert == reference cert"
    assert outcome["fused"] != outcome["reference"]
