"""The analyses the batch pipeline can run, as a uniform registry.

Each entry wraps one of the repo's analysis engines behind the same
signature — ``run(subject, config) -> dict`` — with three contracts:

* the returned dict is **pure JSON data** (no AST nodes, no lattice
  elements), so results can cross process boundaries and live in the
  on-disk cache;
* the dict is **deterministic**: every list is explicitly sorted, so
  serializing with ``sort_keys=True`` yields identical bytes whether
  the result was computed serially, in a worker process, or replayed
  from a cache hit;
* ``config_keys`` names exactly the configuration slice the analysis
  reads, which becomes part of its cache key — changing the explorer's
  state budget must not invalidate certification entries, but changing
  the scheme or the high-variable set must invalidate everything that
  consulted the policy.

Policy convention: batch corpora (litmus cases, generated programs)
do not carry bindings, so the registry derives one from the config —
variables named in ``config["high"]`` bind to the scheme's top,
everything else to its bottom (the litmus-suite convention).  Use
``repro certify`` directly when you need a bespoke binding for a
single program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.lang.ast import Program, Stmt, program_size, used_variables
from repro.lattice import SCHEMES

#: Configuration defaults; :func:`merge_config` overlays user overrides.
DEFAULT_CONFIG: Dict[str, object] = {
    "scheme": "two-level",
    #: Variables bound to the scheme top; the rest bind to bottom.
    "high": ("h", "h2"),
    #: How the Denning baseline treats cobegin/wait/signal.
    "on_concurrency": "ignore",
    #: Explorer budgets (the pipeline default is deliberately lower
    #: than the library default: batch corpora are many small programs).
    "max_states": 20_000,
    "max_depth": 2_000,
    #: Partial-order reduction for the ``explore`` analysis.
    "por": True,
    #: Per-analysis wall-clock deadline in seconds (None = unlimited).
    #: Hitting it returns a partial result flagged ``degraded`` — see
    #: ``docs/observability.md`` for the degradation contract.
    "deadline": None,
    #: Use the fused single-sweep certifier (``repro.fastpath``) for
    #: ``cert``/``denning``.  Byte-identical to the reference
    #: implementation by contract, so deliberately **not** part of any
    #: analysis's ``config_keys`` — toggling it must not re-key caches.
    "fastpath": True,
}

Subject = Union[Program, Stmt]


def scheme_names() -> Tuple[str, ...]:
    """The schemes the pipeline configuration accepts."""
    return tuple(sorted(SCHEMES))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_bool(value: object) -> bool:
    return isinstance(value, bool)


#: What each config value must be: a test and how to say it.
_CONFIG_RULES: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "scheme": (
        lambda v: v in scheme_names(),
        "one of " + ", ".join(scheme_names()),
    ),
    "high": (
        lambda v: isinstance(v, (list, tuple))
        and all(isinstance(name, str) for name in v),
        "a list of variable names",
    ),
    "on_concurrency": (
        lambda v: v in ("reject", "ignore"),
        "'reject' or 'ignore'",
    ),
    "max_states": (_is_int, "an integer"),
    "max_depth": (_is_int, "an integer"),
    "por": (_is_bool, "a boolean"),
    "deadline": (
        lambda v: v is None or _is_int(v) or isinstance(v, float),
        "a number of seconds or null",
    ),
    "fastpath": (_is_bool, "a boolean"),
}


def check_config(config: Dict[str, object]) -> None:
    """Raise ``ValueError`` for an unknown key or an ill-typed value.

    Values are checked, not coerced: a string ``high`` would otherwise
    be split into one-letter names and silently change the policy.
    """
    for key, value in config.items():
        if key not in DEFAULT_CONFIG:
            raise ValueError(
                f"unknown config key {key!r}; "
                f"available: {', '.join(sorted(DEFAULT_CONFIG))}"
            )
        admissible, expected = _CONFIG_RULES[key]
        if not admissible(value):
            raise ValueError(
                f"config {key!r} must be {expected}, got {value!r}"
            )


def merge_config(
    defaults: Dict[str, object], config: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """``config`` checked (:func:`check_config`) and laid over ``defaults``.

    The result is canonical, so one setting has one cache key and one
    document echo however it was spelled: ``high`` is the sorted tuple
    of its distinct names and ``deadline`` a float or ``None``.
    """
    config = config or {}
    check_config(config)
    merged = dict(defaults)
    merged.update(config)
    merged["high"] = tuple(sorted(set(merged["high"])))
    if merged["deadline"] is not None:
        merged["deadline"] = float(merged["deadline"])
    return merged


def _binding(subject: Subject, config: dict):
    """The config-derived policy: ``high`` names top, the rest bottom."""
    from repro.core.binding import StaticBinding

    scheme = SCHEMES[str(config["scheme"])]()
    stmt = subject.body if isinstance(subject, Program) else subject
    high = frozenset(config["high"])
    classes = {
        name: (scheme.top if name in high else scheme.bottom)
        for name in used_variables(stmt)
    }
    return StaticBinding(scheme, classes)


def _fastpath_enabled(config: dict) -> bool:
    return bool(config.get("fastpath", True))


def _reference_cert(subject: Subject, config: dict) -> dict:
    from repro.core.cfm import certify

    report = certify(subject, _binding(subject, config))
    return {
        "certified": report.certified,
        "checks": len(report.checks),
        "violations": sorted(
            {c.rule for c in report.violations}
        ),
    }


def _run_cert(subject: Subject, config: dict) -> dict:
    if _fastpath_enabled(config):
        from repro.fastpath import fused_cert

        fast = fused_cert(subject, config)
        if fast is not None:
            return fast
    # Single reference call site: declined-fast-path and disabled-fast-
    # path runs raise through identical frames (error records embed
    # tracebacks, and ``fastpath`` is not part of the cache key).
    return _reference_cert(subject, config)


def _reference_denning(subject: Subject, config: dict) -> dict:
    from repro.core.denning import certify_denning

    report = certify_denning(
        subject,
        _binding(subject, config),
        on_concurrency=str(config["on_concurrency"]),
    )
    return {
        "certified": report.certified,
        "checks": len(report.checks),
        "violations": sorted({c.rule for c in report.violations}),
        "unsupported": len(report.unsupported),
    }


def _run_denning(subject: Subject, config: dict) -> dict:
    if _fastpath_enabled(config):
        from repro.fastpath import fused_denning

        fast = fused_denning(subject, config)
        if fast is not None:
            return fast
    return _reference_denning(subject, config)


def _run_fs(subject: Subject, config: dict) -> dict:
    from repro.core.flowsensitive import certify_flow_sensitive

    report = certify_flow_sensitive(subject, _binding(subject, config))
    return {
        "certified": report.certified,
        "violations": len(report.violations),
    }


def _run_prove(subject: Subject, config: dict) -> dict:
    from repro.lang.procs import resolve_subject
    from repro.logic.checker import check_proof
    from repro.logic.extract import is_completely_invariant
    from repro.logic.generator import generate_proof

    binding = _binding(subject, config)
    resolved, _ = resolve_subject(subject)
    proof = generate_proof(resolved, binding)
    checked = check_proof(proof, binding.scheme)
    return {
        "valid": checked.ok,
        "rules": proof.size(),
        "problems": len(checked.problems),
        "completely_invariant": is_completely_invariant(proof, binding),
    }


def _run_lint(subject: Subject, config: dict) -> dict:
    from repro.staticlint import run_lint

    result = run_lint(subject, binding=_binding(subject, config))
    return {
        "findings": len(result.diagnostics),
        "errors": len(result.errors),
        # filter_diagnostics already sorts by Diagnostic.sort_key.
        "diagnostics": [d.to_dict() for d in result.diagnostics],
    }


def _budget(config: dict):
    """The explorer's :class:`repro.observe.Budget` from ``config``."""
    from repro.observe.budget import Budget

    deadline = config.get("deadline")
    return Budget(
        max_states=int(config["max_states"]),
        max_depth=int(config["max_depth"]),
        deadline=float(deadline) if deadline is not None else None,
    )


def _run_explore(subject: Subject, config: dict) -> dict:
    from repro.runtime.explorer import explore

    result = explore(subject, budget=_budget(config), por=bool(config["por"]))
    return {
        "complete": result.complete,
        "degraded": result.degraded,
        "limit": result.limit,
        "abandoned": result.abandoned,
        "deadlock_free": result.deadlock_free,
        "states": result.states_visited,
        "transitions": result.transitions,
        "por": result.por,
        "reduced_states": result.reduced_states,
        "peak_processes": result.peak_processes,
        "outcomes": [o.to_dict() for o in result.sorted_outcomes()],
    }


def _run_metrics(subject: Subject, config: dict) -> dict:
    stmt = subject.body if isinstance(subject, Program) else subject
    return {
        "statements": program_size(stmt),
        "variables": len(used_variables(stmt)),
    }


@dataclass(frozen=True)
class AnalysisSpec:
    """One pipeline-runnable analysis.

    ``config_keys`` is the slice of the pipeline configuration the
    analysis reads; only those keys enter its cache key.
    """

    name: str
    config_keys: Tuple[str, ...]
    run: Callable[[Subject, dict], dict]
    description: str

    def config_slice(self, config: dict) -> Dict[str, object]:
        """The cache-relevant subset of ``config`` for this analysis."""
        return {k: config[k] for k in self.config_keys}


#: Registry of every analysis ``repro batch`` can run.
ANALYSES: Dict[str, AnalysisSpec] = {
    spec.name: spec
    for spec in (
        AnalysisSpec(
            "cert",
            ("scheme", "high"),
            _run_cert,
            "Concurrent Flow Mechanism certification (Figure 2)",
        ),
        AnalysisSpec(
            "denning",
            ("scheme", "high", "on_concurrency"),
            _run_denning,
            "sequential Denning & Denning baseline",
        ),
        AnalysisSpec(
            "fs",
            ("scheme", "high"),
            _run_fs,
            "flow-sensitive certification",
        ),
        AnalysisSpec(
            "prove",
            ("scheme", "high"),
            _run_prove,
            "Theorem 1 proof generation + independent check",
        ),
        AnalysisSpec(
            "lint",
            ("scheme", "high"),
            _run_lint,
            "static lint (deadlock, races, dataflow, labels)",
        ),
        AnalysisSpec(
            "explore",
            ("max_states", "max_depth", "por", "deadline"),
            _run_explore,
            "exhaustive interleaving exploration",
        ),
        AnalysisSpec(
            "metrics",
            (),
            _run_metrics,
            "program size metrics",
        ),
    )
}


def analysis_names() -> Tuple[str, ...]:
    """Registered analysis names, sorted."""
    return tuple(sorted(ANALYSES))
