"""The oracle registry: the paper's claims as executable cross-checks.

Every analyzer in this repo doubles as an oracle for every other one,
because the paper's core results are biconditionals and containments.
Each :class:`OracleSpec` encodes one such metamorphic relation as a
``check(subject, config) -> None | OracleSkip | dict`` function:

* ``None`` — the relation holds on this subject;
* :class:`OracleSkip` — the check is inconclusive here (an exploration
  hit its budget, the subject has no high variable to vary, ...);
* a ``dict`` — a **violation**: JSON-serializable evidence that the
  relation fails, which the driver hands to the shrinker.

The catalog (paper sections in :attr:`OracleSpec.paper`):

``cert-equiv``
    §6's linear-pass claim, made safe: the fused single-sweep
    certifier (:mod:`repro.fastpath`) must produce *dict-identical*
    cert and denning (both concurrency modes) results to the
    reference analyzers on every generated program.
``cert-proof``
    Theorems 1–2: ``certify(S).certified`` iff a flow proof can be
    generated, checks out, is completely invariant, and re-certifies
    via :func:`repro.logic.extract.certification_from_proof`.
``denning-contain``
    §4.3: the CFM checks strictly *more* than the Dennings' sequential
    mechanism, so every CFM-certified program must also pass the
    Denning baseline (``on_concurrency="ignore"``).  The converse is
    deliberately not asserted — the Dennings miss termination and
    synchronization channels, which is the paper's point.
``cert-ni``
    §5 / the security argument: a certified, runtime-safe program must
    satisfy possibilistic termination-sensitive noninterference for an
    observer at the scheme's bottom.
``deadlock-lint``
    soundness of ``repro lint``'s RPL1xx pass against the explorer: a
    reachable deadlock witness implies the static pass may not claim
    deadlock-freedom.
``parse-pretty``
    the concrete syntax round-trip: ``parse(pretty(S))`` pretty-prints
    back to the same text, and programs stay valid.
``pipeline-idem``
    the batch pipeline's determinism contract: cold, warm, and
    cache-free runs of the deterministic analyses yield byte-identical
    documents.
``runtime-safe``
    the generator's own docstring: ``runtime_safe=True`` programs can
    be run and explored exhaustively, never deadlock, and terminate
    under every schedule.

Any *exception* escaping an analyzer during a check is itself a
finding — the driver converts it to a violation record — so every
oracle is implicitly also a crash oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.lang.ast import (
    Assign,
    BinOp,
    IntLit,
    Program,
    Stmt,
    While,
    used_variables,
)
from repro.pipeline.analyses import _binding, _budget

Subject = Union[Program, Stmt]

#: Profile tags a subject can carry (see the workload generator).
PROFILES = ("static", "runtime_safe")


class OracleSkip:
    """An inconclusive check: neither a pass nor a violation."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"<OracleSkip {self.reason!r}>"


@dataclass(frozen=True)
class OracleSpec:
    """One registered differential oracle.

    ``profiles`` names the generation profiles the relation is meant
    for — ``cert-ni`` and ``runtime-safe`` only make sense on programs
    the generator guarantees explorable.
    """

    name: str
    description: str
    paper: str
    profiles: Tuple[str, ...]
    check: Callable[[Subject, dict], Optional[object]]


def _value_blowup_risk(subject: Subject) -> bool:
    """Whether iterated multiplication can explode value magnitudes.

    ``v := v * v`` under a loop doubles ``v``'s bit width every
    iteration; a few dozen iterations make a *single* machine step (one
    bignum multiply) arbitrarily expensive, which no state budget or
    deadline poll can interrupt.  Exploration-based oracles skip such
    subjects: the blow-up is a capability limit of any finite machine,
    not a property the oracles are checking.
    """
    from repro.lang.ast import iter_nodes

    stmt = subject.body if isinstance(subject, Program) else subject

    def _has_var_product(expr) -> bool:
        for node in iter_nodes(expr):
            if (
                isinstance(node, BinOp)
                and node.op == "*"
                and not isinstance(node.left, IntLit)
                and not isinstance(node.right, IntLit)
            ):
                return True
        return False

    def _risky(node) -> bool:
        for inner in iter_nodes(node):
            if isinstance(inner, Assign) and _has_var_product(inner.expr):
                return True
        return False

    return any(
        _risky(node.body)
        for node in iter_nodes(stmt)
        if isinstance(node, While)
    )


def _check_cert_equiv(subject: Subject, config: dict):
    from repro.fastpath import fused_cert, fused_denning
    from repro.pipeline.analyses import _reference_cert, _reference_denning

    if not config.get("fastpath", True):
        return OracleSkip("fast path disabled by config")

    fast = fused_cert(subject, config)
    if fast is None:
        # Generated programs are core-language; a decline here would
        # itself be surprising, but it is a coverage gap, not a lie.
        return OracleSkip("fast path declined the subject")
    ref = _reference_cert(subject, config)
    if fast != ref:
        return {
            "relation": "fused cert == reference cert",
            "fused": fast,
            "reference": ref,
        }

    for mode in ("ignore", "reject"):
        mode_config = dict(config, on_concurrency=mode)
        fast_d = fused_denning(subject, mode_config)
        if fast_d is None:
            return OracleSkip("fast path declined the subject")
        ref_d = _reference_denning(subject, mode_config)
        if fast_d != ref_d:
            return {
                "relation": "fused denning == reference denning",
                "on_concurrency": mode,
                "fused": fast_d,
                "reference": ref_d,
            }
    return None


def _check_cert_proof(subject: Subject, config: dict):
    from repro.core.cfm import certify
    from repro.errors import GenerationError
    from repro.lang.procs import resolve_subject
    from repro.logic.checker import check_proof
    from repro.logic.extract import (
        certification_from_proof,
        is_completely_invariant,
    )
    from repro.logic.generator import generate_proof

    binding = _binding(subject, config)
    report = certify(subject, binding)
    resolved, _ = resolve_subject(subject)
    try:
        proof = generate_proof(resolved, binding)
    except GenerationError as exc:
        if report.certified:
            return {
                "relation": "certified => proof generable",
                "detail": f"generate_proof refused a certified program: {exc}",
            }
        return None
    if not report.certified:
        return {
            "relation": "proof generable => certified",
            "detail": "generate_proof produced a proof for an "
            "uncertified program",
        }
    checked = check_proof(proof, binding.scheme)
    if not checked.ok:
        return {
            "relation": "certified => proof checks",
            "detail": f"{len(checked.problems)} proof problem(s)",
        }
    if not is_completely_invariant(proof, binding):
        return {
            "relation": "certified => completely invariant proof",
            "detail": "generated proof is not completely invariant",
        }
    if not certification_from_proof(proof, binding).certified:
        return {
            "relation": "proof => certification (Theorem 2)",
            "detail": "certification extracted from the proof disagrees",
        }
    return None


def _check_denning_contain(subject: Subject, config: dict):
    from repro.core.cfm import certify
    from repro.core.denning import certify_denning

    binding = _binding(subject, config)
    if not certify(subject, binding).certified:
        return None
    denning = certify_denning(subject, binding, on_concurrency="ignore")
    if denning.certified:
        return None
    return {
        "relation": "CFM-certified => Denning-certified (ignore)",
        "detail": "the CFM accepts a program the strictly weaker "
        "sequential baseline rejects",
        "denning_violations": sorted({c.rule for c in denning.violations}),
    }


def _check_cert_ni(subject: Subject, config: dict):
    from repro.core.cfm import certify
    from repro.runtime.noninterference import check_noninterference

    if _value_blowup_risk(subject):
        return OracleSkip("iterated multiplication can explode values")
    binding = _binding(subject, config)
    if not certify(subject, binding).certified:
        return None
    stmt = subject.body if isinstance(subject, Program) else subject
    high = sorted(frozenset(config["high"]) & used_variables(stmt))
    if not high:
        return OracleSkip("no high variable to vary")
    observer = binding.scheme.bottom
    variations = [
        {name: 0 for name in high},
        {name: 1 for name in high},
    ]
    result = check_noninterference(
        subject,
        binding,
        observer,
        variations,
        max_states=int(config["max_states"]),
        max_depth=int(config["max_depth"]),
    )
    if not result.complete:
        return OracleSkip("exploration budget hit; verdict inconclusive")
    if result.holds:
        return None
    i, j, outcome = result.witness()
    return {
        "relation": "certified + runtime-safe => noninterference",
        "detail": f"variation {i} can reach {outcome} but "
        f"variation {j} cannot",
        "high": high,
    }


def _check_deadlock_lint(subject: Subject, config: dict):
    from repro.analysis.deadlock import find_deadlock
    from repro.staticlint.deadlock import static_deadlock

    if _value_blowup_risk(subject):
        return OracleSkip("iterated multiplication can explode values")
    dynamic = find_deadlock(
        subject,
        max_states=int(config["max_states"]),
        max_depth=int(config["max_depth"]),
    )
    if dynamic.deadlock_free:
        if not dynamic.complete:
            return OracleSkip("exploration budget hit; no witness found")
        return None
    static = static_deadlock(subject)
    if static.may_deadlock:
        return None
    return {
        "relation": "dynamic deadlock witness => static may_deadlock",
        "detail": "the explorer found a reachable deadlock but the "
        "RPL1xx pass claims deadlock-freedom",
        "blocked": [list(pid) for pid in dynamic.witness.blocked],
    }


def _check_parse_pretty(subject: Subject, config: dict):
    from repro.lang.parser import parse_program, parse_statement
    from repro.lang.pretty import pretty
    from repro.lang.validate import validate_program

    first = pretty(subject)
    if isinstance(subject, Program):
        reparsed = parse_program(first)
        problems = validate_program(reparsed)
        if problems:
            return {
                "relation": "pretty(S) reparses to a valid program",
                "detail": "; ".join(str(p) for p in problems[:3]),
            }
    else:
        reparsed = parse_statement(first)
    second = pretty(reparsed)
    if first != second:
        return {
            "relation": "parse o pretty is a fixpoint",
            "detail": "pretty(parse(pretty(S))) != pretty(S)",
            "first": first,
            "second": second,
        }
    return None


#: The deterministic analyses the pipeline oracle runs.  ``explore``
#: is deliberately excluded: with a deadline it may produce degraded
#: cells, which are timing-dependent by design and uncached.
_PIPELINE_ANALYSES = ("cert", "lint", "metrics")


def _check_pipeline_idem(subject: Subject, config: dict):
    import tempfile

    from repro.pipeline.runner import run_pipeline

    corpus = [("fuzz-subject", subject)]
    slice_config = {
        key: config[key] for key in ("scheme", "high", "on_concurrency")
    }
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as cache_dir:
        cold = run_pipeline(
            corpus,
            analyses=_PIPELINE_ANALYSES,
            jobs=1,
            cache_dir=cache_dir,
            config=slice_config,
        ).to_json()
        warm = run_pipeline(
            corpus,
            analyses=_PIPELINE_ANALYSES,
            jobs=1,
            cache_dir=cache_dir,
            config=slice_config,
        ).to_json()
    bare = run_pipeline(
        corpus,
        analyses=_PIPELINE_ANALYSES,
        jobs=1,
        use_cache=False,
        config=slice_config,
    ).to_json()
    if cold != warm:
        return {
            "relation": "cold == warm pipeline document",
            "detail": "a cache round-trip changed the document bytes",
        }
    if cold != bare:
        return {
            "relation": "cached == cache-free pipeline document",
            "detail": "enabling the cache changed the document bytes",
        }
    return None


def _check_runtime_safe(subject: Subject, config: dict):
    from repro.runtime.explorer import explore

    if _value_blowup_risk(subject):
        return OracleSkip("iterated multiplication can explode values")
    result = explore(subject, budget=_budget(config))
    deadlocks = [
        outcome
        for outcome in result.sorted_outcomes()
        if outcome.status == "deadlock"
    ]
    if deadlocks:
        return {
            "relation": "runtime-safe programs never deadlock",
            "detail": f"{len(deadlocks)} deadlock outcome(s); first: "
            f"{deadlocks[0]}",
        }
    if not result.complete:
        return OracleSkip(
            f"exploration stopped on {result.limit}; termination "
            "verdict inconclusive"
        )
    # Completing the exhaustive exploration *is* the termination-
    # under-every-schedule proof; serialization must survive whatever
    # values the program computed (the seed-249 regression).
    import json

    json.dumps([outcome.to_dict() for outcome in result.sorted_outcomes()])
    return None


#: Registry of every differential oracle ``repro fuzz`` can run.
ORACLES: Dict[str, OracleSpec] = {
    spec.name: spec
    for spec in (
        OracleSpec(
            "cert-equiv",
            "fused fast-path certifier agrees with the reference analyzers",
            "section 6",
            PROFILES,
            _check_cert_equiv,
        ),
        OracleSpec(
            "cert-proof",
            "certification iff a valid, completely invariant flow proof",
            "Theorems 1-2",
            PROFILES,
            _check_cert_proof,
        ),
        OracleSpec(
            "denning-contain",
            "CFM-certified implies Denning-certified (ignore mode)",
            "section 4.3",
            PROFILES,
            _check_denning_contain,
        ),
        OracleSpec(
            "cert-ni",
            "certified runtime-safe programs are noninterfering",
            "section 5",
            ("runtime_safe",),
            _check_cert_ni,
        ),
        OracleSpec(
            "deadlock-lint",
            "static deadlock pass is sound against the explorer",
            "section 2.0 semantics",
            PROFILES,
            _check_deadlock_lint,
        ),
        OracleSpec(
            "parse-pretty",
            "parse/pretty round-trip is a fixpoint",
            "section 2.0 syntax",
            PROFILES,
            _check_parse_pretty,
        ),
        OracleSpec(
            "pipeline-idem",
            "pipeline documents are byte-identical cold/warm/cache-free",
            "tooling determinism contract",
            PROFILES,
            _check_pipeline_idem,
        ),
        OracleSpec(
            "runtime-safe",
            "runtime-safe programs run, terminate, and never deadlock",
            "generator contract",
            ("runtime_safe",),
            _check_runtime_safe,
        ),
    )
}


def oracle_names() -> Tuple[str, ...]:
    """Registered oracle names, sorted."""
    return tuple(sorted(ORACLES))
