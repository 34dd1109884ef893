"""Command-line interface: ``repro-ifc`` (or ``python -m repro``).

One program at a time: ``certify`` (Figure 2's CFM), ``denning`` (the
Dennings' sequential baseline), ``fs-certify``, ``infer``, ``flow``,
``prove`` and ``check-cert`` (Theorem 1 proofs), ``report``; ``run``,
``explore``, ``ni`` and ``leak`` (§5 possibility claims).  Tooling:
``lint``, ``batch``, ``fuzz``, ``serve`` and ``loadtest``.  See
``repro-ifc <command> --help``.

``PROGRAM`` is a source file (``-`` for stdin).  Bindings use the
scheme's class names (``low``/``high`` for the default two-level
scheme; ``unclassified``..``topsecret`` for ``four-level``).

Each subcommand is one ``_cmd_<name>`` handler that its parser names
with ``set_defaults(handler=...)``; each option that several
subcommands take is defined once, by an ``_add_*`` helper.  Each
handler imports the engines it runs, so a command loads only what it
uses; this module imports only what argument parsing and
:func:`_load_program` need.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.lang.ast import Program, used_variables
from repro.lang.parser import parse_program, read_source
from repro.lang.validate import validate_program
from repro.lattice import SCHEMES, parse_scheme


class _UsageError(ReproError):
    """An input the command cannot use; ``main`` reports it and exits 2."""


def _load_program(path: str) -> Program:
    program = parse_program(read_source(path))
    problems = validate_program(program)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        raise SystemExit(2)
    return program


def _checked(kind, admissible, expected: str):
    """An argparse ``type``: a ``kind`` number that passes ``admissible``.

    A refused value is a usage error naming the flag (exit 2), before
    any library code sees it.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not admissible(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text}")
        return value

    return parse


#: Pools, queues and client counts.
_COUNT = _checked(int, lambda n: n >= 1, ">= 1")
#: A cache capacity; 0 disables the tier.
_CAPACITY = _checked(int, lambda n: n >= 0, ">= 0")
#: Requests per second.
_RATE = _checked(float, lambda r: r > 0, "> 0")
#: Tokens in a full bucket.
_BURST = _checked(float, lambda b: b >= 1, ">= 1")


def _parse_pairs(pairs: List[str], what: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"error: {what} {pair!r} is not of the form name=value")
        name, _, value = pair.partition("=")
        out[name.strip()] = value.strip()
    return out


def _integer(flag: str, text: str) -> int:
    """``text`` as an integer; anything else is a usage error naming ``flag``."""
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{flag}: {text!r} is not an integer") from None


def _read_json(path: str):
    """The JSON document in the file at ``path``."""
    try:
        return json.loads(read_source(path))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not JSON: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write an output file; failing to is a usage error, not a traceback."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _scheme(args):
    """Resolve the classification scheme from --scheme / --scheme-file."""
    if args.scheme_file:
        return parse_scheme(read_source(args.scheme_file), name=args.scheme_file)
    return SCHEMES[args.scheme]()


def _parse_class(text: str, scheme) -> object:
    """Resolve a class name for the chosen scheme (names are the labels)."""
    for element in scheme.elements:
        if str(element) == text:
            return element
    raise SystemExit(
        f"error: {text!r} is not a class of {scheme.name}; "
        f"choices: {sorted(map(str, scheme.elements))}"
    )


def _classes(args) -> Dict[str, str]:
    """Variable -> class name: the ``--bindings`` file, then ``--bind``."""
    classes: Dict[str, str] = {}
    if args.bindings:
        data = _read_json(args.bindings)
        if not isinstance(data, dict):
            raise SystemExit("error: the bindings file must hold a JSON object")
        classes.update((str(k), str(v)) for k, v in data.items())
    classes.update(_parse_pairs(args.bind, "--bind"))
    return classes


def _binding(args, program: Program):
    """The static binding given by the binding flags."""
    from repro.core.binding import StaticBinding

    scheme = _scheme(args)
    classes = _classes(args)
    binding = StaticBinding(scheme, classes, default=args.default)
    missing = sorted(used_variables(program.body) - set(classes))
    if missing and args.default is None:
        raise SystemExit(
            "error: no binding for: " + ", ".join(missing) + " (use --bind or --default)"
        )
    return binding


def _store(args) -> Dict[str, int]:
    """The initial values given by ``--set``."""
    return {
        name: _integer("--set", value)
        for name, value in _parse_pairs(args.set, "--set").items()
    }


def _budget(args):
    """The exploration budget given by the budget flags."""
    from repro.observe import Budget

    return Budget(
        max_states=args.max_states,
        max_depth=args.max_depth,
        deadline=args.deadline,
    )


def _add_scheme_flags(
    sub: argparse.ArgumentParser, include_file: bool = True
) -> None:
    """The ``--scheme``/``--scheme-file`` pair."""
    sub.add_argument(
        "--scheme",
        choices=sorted(SCHEMES),
        default="two-level",
        help="classification scheme (default: %(default)s)",
    )
    if include_file:
        sub.add_argument(
            "--scheme-file",
            metavar="FILE",
            help="custom scheme spec (chain: a < b < c, or elements:/order:); "
            "overrides --scheme",
        )


def _add_deadline(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget (serve: for each request that sets none); "
        "exhausting it yields a partial result flagged degraded, not an error",
    )


def _add_budget_flags(
    sub: argparse.ArgumentParser,
    max_states_default: int = 200_000,
    max_depth_default: int = 2_000,
) -> None:
    """The exploration budget: ``--max-states``, ``--max-depth``, ``--deadline``."""
    sub.add_argument(
        "--max-states",
        type=int,
        default=max_states_default,
        metavar="N",
        help="distinct-state budget (default: %(default)s)",
    )
    sub.add_argument(
        "--max-depth",
        type=int,
        default=max_depth_default,
        metavar="N",
        help="schedule-length budget (default: %(default)s)",
    )
    _add_deadline(sub)


def _add_binding_flags(sub: argparse.ArgumentParser) -> None:
    """A static binding: ``--bind`` pairs over a ``--bindings`` file."""
    sub.add_argument(
        "--bind",
        action="append",
        metavar="VAR=CLASS",
        help="static binding entry (repeatable)",
    )
    sub.add_argument(
        "--bindings",
        metavar="FILE",
        help="JSON file of {variable: class}; --bind entries override it",
    )
    sub.add_argument(
        "--default",
        metavar="CLASS",
        help="class for variables without an explicit --bind",
    )


def _add_common(sub: argparse.ArgumentParser, bind: bool = True) -> None:
    sub.add_argument("program", help="program source file, or - for stdin")
    _add_scheme_flags(sub)
    if bind:
        _add_binding_flags(sub)


def _add_set_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--set", action="append", metavar="VAR=INT", help="initial value (repeatable)"
    )


def _add_pool_flags(sub: argparse.ArgumentParser, jobs: int) -> None:
    """``--jobs``, the worker count."""
    sub.add_argument(
        "--jobs",
        type=_COUNT,
        default=jobs,
        metavar="N",
        help="worker processes (default: %(default)s; 1 = in-process)",
    )


def _add_cache_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="content-addressed result cache root (default: %(default)s)",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching (recompute everything)",
    )


def _add_policy_flags(sub: argparse.ArgumentParser, high: str) -> None:
    """A config-derived policy: the scheme and the variables at its top."""
    _add_scheme_flags(sub, include_file=False)
    sub.add_argument(
        "--high",
        default=high,
        metavar="NAMES",
        help="comma-separated variables bound to the scheme top "
        "(default: %(default)s); everything else binds to bottom",
    )


def _add_admission_flags(sub: argparse.ArgumentParser, max_queue: int) -> None:
    """The service's front line: its admission bound and tenant rate."""
    sub.add_argument(
        "--max-queue",
        type=_COUNT,
        default=max_queue,
        metavar="N",
        help="admission bound on in-flight plus waiting requests; "
        "beyond it requests are refused with 429 (default: %(default)s)",
    )
    sub.add_argument(
        "--tenant-rps",
        type=_RATE,
        default=None,
        metavar="RATE",
        help="per-tenant token-bucket rate limit in requests/second, "
        "keyed by the X-Repro-Tenant header (default: unlimited)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ifc",
        description="Information-flow certification for parallel programs "
        "(Reitman, SOSP 1979).",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("certify", help="run the Concurrent Flow Mechanism")
    sub.set_defaults(handler=_cmd_certify)
    _add_common(sub)
    sub.add_argument("--quiet", action="store_true", help="status line only")
    sub.add_argument(
        "--table",
        action="store_true",
        help="print the per-statement mod/flow/conditions table (Figure 2 style)",
    )
    sub.add_argument("--json", action="store_true", help="machine-readable output")

    sub = subs.add_parser("denning", help="run the sequential Denning-Denning baseline")
    sub.set_defaults(handler=_cmd_denning)
    _add_common(sub)
    sub.add_argument(
        "--on-concurrency",
        choices=("reject", "ignore"),
        default="reject",
        help="how to treat cobegin/wait/signal (default: %(default)s)",
    )

    sub = subs.add_parser(
        "fs-certify",
        help="run the flow-sensitive certifier (strictly stronger than CFM)",
    )
    sub.set_defaults(handler=_cmd_fs_certify)
    _add_common(sub)

    sub = subs.add_parser("infer", help="infer the least binding completion")
    sub.set_defaults(handler=_cmd_infer)
    _add_common(sub)

    sub = subs.add_parser("flow", help="print the variable flow relation")
    sub.set_defaults(handler=_cmd_flow)
    _add_common(sub, bind=False)

    sub = subs.add_parser(
        "ni", help="exhaustive possibilistic noninterference check"
    )
    sub.set_defaults(handler=_cmd_ni)
    _add_common(sub)
    sub.add_argument("--observer", required=True, help="observer class")
    sub.add_argument(
        "--vary",
        action="append",
        required=True,
        metavar="VAR=V1,V2,...",
        help="high variable and the values to vary it over",
    )

    sub = subs.add_parser("leak", help="search for a concrete leak witness")
    sub.set_defaults(handler=_cmd_leak)
    _add_common(sub)
    sub.add_argument("--observer", required=True, help="observer class")
    sub.add_argument(
        "--values", default="0,1,2", help="candidate values (default: %(default)s)"
    )

    sub = subs.add_parser("prove", help="generate and check a Theorem 1 flow proof")
    sub.set_defaults(handler=_cmd_prove)
    _add_common(sub)
    sub.add_argument("--render", action="store_true", help="print the full proof tree")
    sub.add_argument(
        "--save-cert",
        metavar="FILE",
        help="write the proof as a JSON certificate (re-check with check-cert)",
    )

    sub = subs.add_parser(
        "check-cert",
        help="re-check a proof certificate against a program",
    )
    sub.set_defaults(handler=_cmd_check_cert)
    _add_common(sub, bind=False)
    sub.add_argument("certificate", help="JSON certificate from prove --save-cert")

    sub = subs.add_parser("run", help="execute the program")
    sub.set_defaults(handler=_cmd_run)
    _add_common(sub, bind=False)
    _add_set_flag(sub)
    sub.add_argument("--seed", type=int, help="random scheduler seed (default: round-robin)")
    sub.add_argument("--max-steps", type=int, default=100_000)
    sub.add_argument("--trace", action="store_true", help="print every atomic action")
    sub.add_argument(
        "--timeline",
        action="store_true",
        help="render the trace as per-process lanes",
    )

    sub = subs.add_parser("explore", help="exhaustively explore all interleavings")
    sub.set_defaults(handler=_cmd_explore)
    _add_common(sub, bind=False)
    _add_set_flag(sub)
    _add_budget_flags(sub)
    sub.add_argument(
        "--por",
        action="store_true",
        help="partial-order reduction: same outcomes, fewer states",
    )

    sub = subs.add_parser("report", help="full report: CFM, baseline, flow relation")
    sub.set_defaults(handler=_cmd_report)
    _add_common(sub)
    sub.add_argument("--source", action="store_true", help="include the pretty-printed source")
    sub.add_argument(
        "--explore",
        action="store_true",
        help="append an exploration-metrics section (honours the budget flags)",
    )
    _add_budget_flags(sub)

    sub = subs.add_parser(
        "lint",
        help="static analysis: deadlock, races, dataflow hygiene, label lint",
    )
    sub.set_defaults(handler=_cmd_lint)
    sub.add_argument(
        "programs",
        nargs="*",
        metavar="PROGRAM",
        help="source files (- for stdin) or Python modules with embedded "
        "programs (the examples/ convention)",
    )
    _add_scheme_flags(sub)
    _add_binding_flags(sub)
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report these code prefixes (comma-separated, repeatable; "
        "RPL1 selects all RPL1xx)",
    )
    sub.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="suppress these code prefixes (comma-separated, repeatable)",
    )
    sub.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any finding, not just errors",
    )
    sub.add_argument(
        "--exit-zero", action="store_true", help="always exit 0 on a completed run"
    )
    sub.add_argument(
        "--list-codes",
        action="store_true",
        help="print the diagnostic code table and exit",
    )

    sub = subs.add_parser(
        "batch",
        help="run analyses over a corpus in parallel, with result caching",
    )
    sub.set_defaults(handler=_cmd_batch)
    sub.add_argument(
        "programs",
        nargs="*",
        metavar="PROGRAM",
        help="program source files to add to the corpus",
    )
    sub.add_argument(
        "--corpus",
        action="append",
        metavar="NAME",
        help="add a named workload corpus (repeatable; see --list-corpora)",
    )
    sub.add_argument(
        "--list-corpora",
        action="store_true",
        help="print the available corpus names and exit",
    )
    sub.add_argument(
        "--analyses",
        default="cert,lint",
        metavar="NAMES",
        help="comma-separated analyses to run (default: %(default)s; "
        "see --list-analyses)",
    )
    sub.add_argument(
        "--list-analyses",
        action="store_true",
        help="print the available analyses and exit",
    )
    _add_pool_flags(sub, jobs=1)
    _add_cache_flags(sub)
    sub.add_argument(
        "--json",
        action="store_true",
        help="print the deterministic result document as JSON",
    )
    _add_policy_flags(sub, high="h,h2")
    _add_budget_flags(sub, max_states_default=20_000)
    sub.add_argument(
        "--no-por",
        action="store_true",
        help="disable partial-order reduction in the explore analysis",
    )
    sub.add_argument(
        "--no-fastpath",
        action="store_true",
        help="disable the fused certifier fast path (run the reference "
        "cert/denning analyzers directly)",
    )
    sub.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the run's metrics document (schema repro-metrics/1) "
        "as JSON",
    )
    sub.add_argument(
        "--trace",
        metavar="FILE",
        help="stream span/counter/event trace records as JSON lines",
    )

    sub = subs.add_parser(
        "fuzz",
        help="differential fuzzing: cross-check the analyzers on seeded "
        "random programs, minimizing any violation",
    )
    sub.set_defaults(handler=_cmd_fuzz)
    sub.add_argument(
        "--seeds",
        type=int,
        default=100,
        metavar="N",
        help="number of consecutive generator seeds (default: %(default)s)",
    )
    sub.add_argument(
        "--seed-start",
        type=int,
        default=0,
        metavar="N",
        help="first seed (default: %(default)s)",
    )
    sub.add_argument(
        "--oracles",
        default=None,
        metavar="NAMES",
        help="comma-separated oracles to run (default: all; "
        "see --list-oracles)",
    )
    sub.add_argument(
        "--list-oracles",
        action="store_true",
        help="print the oracle catalog and exit",
    )
    _add_pool_flags(sub, jobs=1)
    sub.add_argument(
        "--corpus-dir",
        default=None,
        metavar="DIR",
        help="persist minimized findings to this directory for replay",
    )
    sub.add_argument(
        "--replay",
        default=None,
        metavar="DIR",
        help="replay a finding corpus instead of fuzzing; exits 1 if "
        "any finding deviates from its recorded expectation",
    )
    sub.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations unminimized (skip delta debugging)",
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="print the campaign report as JSON",
    )
    sub.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the campaign metrics document "
        "(schema repro-metrics/1, with the fuzz section) as JSON",
    )
    _add_policy_flags(sub, high="v0")
    _add_budget_flags(sub, max_states_default=8_000, max_depth_default=600)

    sub = subs.add_parser(
        "serve",
        help="long-running JSON-over-HTTP analysis service "
        "(POST /analyze, GET /healthz, GET /metrics)",
    )
    sub.set_defaults(handler=_cmd_serve)
    sub.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: %(default)s)",
    )
    sub.add_argument(
        "--port",
        type=int,
        default=8765,
        help="port to bind; 0 picks a free port, announced on stdout "
        "(default: %(default)s)",
    )
    _add_pool_flags(sub, jobs=2)
    _add_cache_flags(sub)
    sub.add_argument(
        "--lru-size",
        type=_CAPACITY,
        default=4096,
        metavar="N",
        help="in-memory LRU tier capacity in entries "
        "(default: %(default)s; 0 disables the memory tier)",
    )
    _add_deadline(sub)
    _add_admission_flags(sub, max_queue=64)
    sub.add_argument(
        "--tenant-burst",
        type=_BURST,
        default=None,
        metavar="N",
        help="per-tenant burst size in tokens "
        "(default: max(1, --tenant-rps))",
    )
    sub.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )

    sub = subs.add_parser(
        "loadtest",
        help="closed-loop load driver: spawn a repro serve subprocess, "
        "drive it with a mixed corpus, report RPS/latency/admission",
    )
    sub.set_defaults(handler=_cmd_loadtest)
    sub.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="steady-phase wall-clock length (default: %(default)s)",
    )
    sub.add_argument(
        "--clients",
        type=_COUNT,
        default=8,
        metavar="N",
        help="concurrent closed-loop clients in the steady phase "
        "(default: %(default)s)",
    )
    _add_pool_flags(sub, jobs=2)
    _add_admission_flags(sub, max_queue=16)
    sub.add_argument(
        "--overload-clients",
        type=_COUNT,
        default=32,
        metavar="N",
        help="burst clients in the overload phase; more than "
        "--max-queue forces 429s (default: %(default)s)",
    )
    sub.add_argument(
        "--overload-seconds",
        type=float,
        default=4.0,
        metavar="SECONDS",
        help="overload-phase wall-clock length (default: %(default)s)",
    )
    sub.add_argument(
        "--smoke",
        action="store_true",
        help="short CI shape: 2s steady phase, fewer clients, "
        "no full-mode gates",
    )
    sub.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full JSON report here (default: stdout only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into e.g. head; not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def _split_codes(values: Optional[List[str]]) -> tuple:
    """Flatten repeatable comma-separated ``--select``/``--ignore`` args."""
    return tuple(
        code.strip()
        for value in values or ()
        for code in value.split(",")
        if code.strip()
    )


def _pipeline_config(args) -> Dict[str, object]:
    """The pipeline config that ``batch`` and ``fuzz`` read off their flags."""
    return {
        "scheme": args.scheme,
        "high": _split_codes([args.high]),
        "max_states": args.max_states,
        "max_depth": args.max_depth,
        "deadline": args.deadline,
    }


def _cmd_lint(args) -> int:
    from repro.staticlint import (
        LintResult,
        LoadError,
        Severity,
        codes_table,
        filter_diagnostics,
        load_units,
        run_lint,
    )

    if args.list_codes:
        for code, name, severity, description in codes_table():
            print(f"{code}  {severity:<7}  {name}: {description}")
        return 0
    if not args.programs:
        raise SystemExit("error: lint needs at least one PROGRAM (or --list-codes)")

    binding = None
    scheme = None
    if args.bind or args.bindings or args.default:
        from repro.core.binding import StaticBinding

        scheme = _scheme(args)
        binding = StaticBinding(scheme, _classes(args), default=args.default)
    elif args.scheme_file or args.scheme != "two-level":
        scheme = _scheme(args)

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    results: List[LintResult] = []
    load_failed = False
    for path in args.programs:
        try:
            units = load_units(path)
        except LoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            load_failed = True
            continue
        for unit in units:
            if unit.problems:
                results.append(LintResult(
                    diagnostics=filter_diagnostics(unit.problems, select, ignore),
                    passes_run=("loader",),
                    subject_name=unit.label,
                ))
            elif unit.subject is not None:
                results.append(run_lint(
                    unit.subject,
                    binding=binding,
                    scheme=scheme,
                    select=select,
                    ignore=ignore,
                    subject_name=unit.label,
                ))

    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for result in results:
            for d in result.diagnostics:
                print(
                    f"{result.subject_name}:{d.span.line}:{d.span.column}: "
                    f"{d.code} {d.message}"
                )
                if d.hint:
                    print(f"    hint: {d.hint}")
        findings = sum(len(r.diagnostics) for r in results)
        errors = sum(len(r.errors) for r in results)
        warnings = sum(r.count(Severity.WARNING) for r in results)
        print(
            f"{findings} finding{'s' if findings != 1 else ''} "
            f"({errors} error{'s' if errors != 1 else ''}, "
            f"{warnings} warning{'s' if warnings != 1 else ''}) "
            f"in {len(results)} program{'s' if len(results) != 1 else ''}"
        )

    if load_failed:
        return 2
    if args.exit_zero:
        return 0
    if args.strict and any(r.diagnostics for r in results):
        return 1
    if any(r.errors for r in results):
        return 1
    return 0


def _cmd_batch(args) -> int:
    """The parallel certification pipeline."""
    from repro.observe import NULL_EMITTER, JsonlEmitter, MetricsAggregator
    from repro.pipeline import ANALYSES, analysis_names, run_pipeline

    if args.list_corpora:
        from repro.workloads.suites import corpus_names

        for name in corpus_names():
            print(name)
        return 0
    if args.list_analyses:
        for name in analysis_names():
            print(f"{name}: {ANALYSES[name].description}")
        return 0

    analyses = _split_codes([args.analyses])
    if not analyses:
        raise SystemExit("error: --analyses needs at least one analysis name")

    corpus = []
    for path in args.programs:
        corpus.append((os.path.basename(path), _load_program(path)))
    if args.corpus:
        from repro.workloads.suites import corpus as load_corpus

        for name in args.corpus:
            try:
                corpus.extend(load_corpus(name))
            except KeyError as exc:
                raise SystemExit(f"error: {exc.args[0]}")
    if not corpus:
        raise SystemExit(
            "error: batch needs PROGRAM files and/or --corpus NAME "
            "(try --list-corpora)"
        )

    config = dict(
        _pipeline_config(args),
        por=not args.no_por,
        fastpath=not args.no_fastpath,
    )
    sink = NULL_EMITTER
    if args.trace:
        try:
            sink = JsonlEmitter(path=args.trace)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.trace}: {exc}") from None
    try:
        result = run_pipeline(
            corpus,
            analyses=analyses,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            config=config,
            observer=MetricsAggregator(sink=sink),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        sink.close()
    if args.metrics:
        _write(args.metrics, json.dumps(result.metrics, indent=2, sort_keys=True))

    if args.json:
        print(result.to_json())
    else:
        for entry in result.programs:
            cells = []
            for analysis in result.analyses:
                data = entry["analyses"][analysis]
                if "error" in data:
                    cells.append(f"{analysis}=ERROR")
                elif "certified" in data:
                    cells.append(
                        f"{analysis}={'ok' if data['certified'] else 'REJECT'}"
                    )
                elif analysis == "lint":
                    cells.append(f"lint={data['findings']}")
                elif analysis == "explore":
                    tag = (
                        f" DEGRADED({data.get('limit')})"
                        if data.get("degraded")
                        else ""
                    )
                    cells.append(
                        f"explore={len(data['outcomes'])} outcomes/"
                        f"{data['states']} states{tag}"
                    )
                elif analysis == "prove":
                    cells.append(
                        f"prove={'VALID' if data['valid'] else 'INVALID'}"
                    )
                else:
                    cells.append(f"{analysis}=done")
            print(f"{entry['name']}: {'  '.join(cells)}")
        run = result.metrics["run"]
        print(
            f"{len(result.programs)} programs x {len(result.analyses)} "
            f"analyses; {run['computed']} computed, "
            f"{result.metrics['cache']['hits']} cached, "
            f"{run['elapsed_seconds']:.2f}s with {run['jobs']} job(s)"
        )
        degraded = result.degraded()
        if degraded:
            print(f"{len(degraded)} degraded (partial) result(s):")
            for name, analysis, limit in degraded:
                print(f"  {name}/{analysis}: {limit} budget hit")
    errors = result.errors()
    for name, analysis, message in errors:
        print(f"error: {name}/{analysis}: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_serve(args) -> int:
    """The resident analysis service."""
    from repro.service import AnalysisService, serve

    service = AnalysisService(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        lru_capacity=0 if args.no_cache else args.lru_size,
        default_deadline=args.deadline,
        max_queue=args.max_queue,
        tenant_rps=args.tenant_rps,
        tenant_burst=args.tenant_burst,
    )
    return serve(
        service, host=args.host, port=args.port, quiet=args.quiet
    )


def _cmd_loadtest(args) -> int:
    """Drive a spawned server, report, gate."""
    from repro.service.loadtest import LoadtestOptions, run_loadtest

    options = LoadtestOptions(
        duration=2.0 if args.smoke else args.duration,
        clients=4 if args.smoke else args.clients,
        jobs=args.jobs,
        max_queue=args.max_queue,
        tenant_rps=args.tenant_rps,
        overload_clients=(
            max(8, args.max_queue + 4) if args.smoke else args.overload_clients
        ),
        overload_seconds=2.0 if args.smoke else args.overload_seconds,
        smoke=args.smoke,
    )
    payload = run_loadtest(options)
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        _write(args.out, rendered + "\n")
    failures = []
    if payload["identity"]["invalid_documents"]:
        failures.append(
            f"{payload['identity']['invalid_documents']} documents "
            "diverged from repro batch --json"
        )
    if payload["loadtest"]["network_errors"]:
        failures.append(
            f"{payload['loadtest']['network_errors']} network errors"
        )
    if not payload["metrics_valid"]:
        failures.append("/metrics failed schema validation")
    if not payload["clean_exit"]:
        failures.append("server did not drain and exit cleanly on SIGTERM")
    if not args.smoke:
        # overload must trip admission control while the health plane
        # stays green, and the steady phase, mostly memory-tier hits,
        # must sustain double-digit throughput (a floor, not a goal)
        overload = payload["overload"]
        healthz = overload["healthz"]
        rps = payload["loadtest"]["rps_sustained"]
        if not overload["rejected_busy_429"]:
            failures.append("the overload phase drew no 429")
        if not healthz["probes"] or healthz["ok"] != healthz["probes"]:
            failures.append(
                f"{healthz['ok']} of {healthz['probes']} /healthz probes "
                "answered 200 under overload"
            )
        if rps < 10:
            failures.append(f"the steady phase sustained {rps} requests/s, below 10")
    for failure in failures:
        print(f"loadtest: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_fuzz(args) -> int:
    """The differential fuzzing campaign."""
    from repro.fuzz import ORACLES, oracle_names, replay_corpus, run_fuzz

    if args.list_oracles:
        for name in oracle_names():
            spec = ORACLES[name]
            profiles = ",".join(spec.profiles)
            print(f"{name} [{spec.paper}; {profiles}]: {spec.description}")
        return 0

    if args.replay:
        try:
            results = replay_corpus(args.replay)
        except ValueError as exc:  # a corrupt finding record
            raise _UsageError(str(exc)) from None
        unexpected = [r for r in results if not r["as_expected"]]
        if args.json:
            print(json.dumps(results, indent=2, sort_keys=True))
        else:
            for r in results:
                tag = "ok" if r["as_expected"] else "UNEXPECTED"
                print(
                    f"{r['path']}: {r['outcome']} "
                    f"(expected {r['expect']}) {tag}"
                )
            print(
                f"{len(results)} finding(s) replayed, "
                f"{len(unexpected)} unexpected"
            )
        return 1 if unexpected else 0

    oracles = _split_codes([args.oracles]) if args.oracles else None
    try:
        result = run_fuzz(
            seeds=args.seeds,
            seed_start=args.seed_start,
            oracles=oracles,
            jobs=args.jobs,
            config=_pipeline_config(args),
            do_shrink=not args.no_shrink,
            corpus_dir=args.corpus_dir,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    if args.metrics:
        _write(args.metrics, json.dumps(result.metrics, indent=2, sort_keys=True))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        section = result.fuzz_section()
        print(
            f"{section['seeds']} seeds -> {section['programs']} programs, "
            f"{section['checks']} oracle checks "
            f"({section['skips']} inconclusive) in "
            f"{result.elapsed_seconds:.2f}s with {args.jobs} job(s)"
        )
        for name, counters in sorted(result.oracles.items()):
            print(
                f"  {name}: {counters['checks']} checks, "
                f"{counters['skips']} skips, "
                f"{counters['violations']} violations"
            )
        for finding in result.findings:
            print(
                f"FINDING {finding['oracle']} (seed {finding['seed']}, "
                f"{finding['profile']}, {finding['shrink_iterations']} "
                f"shrink steps): {finding['details'].get('relation')}"
            )
            print("  " + finding["source"].replace("\n", "\n  "))
        for error in result.errors:
            print(f"error: seed {error['seed']}: {error.get('error')}",
                  file=sys.stderr)
        if not result.findings and not result.errors:
            print("no violations found")
    if args.corpus_dir and result.findings:
        print(f"{len(result.findings)} finding(s) persisted to "
              f"{args.corpus_dir}", file=sys.stderr)
    return 1 if (result.findings or result.errors) else 0


def _cmd_certify(args) -> int:
    from repro.core.cfm import certify

    program = _load_program(args.program)
    report = certify(program, _binding(args, program))
    if args.json:
        from repro.analysis.tables import report_to_dict

        print(json.dumps(report_to_dict(report), indent=2))
    elif args.table:
        from repro.analysis.tables import certification_table

        print(certification_table(report))
        print()
        print("CERTIFIED" if report.certified else "REJECTED")
    elif args.quiet:
        print("CERTIFIED" if report.certified else "REJECTED")
    else:
        print(report.summary())
    return 0 if report.certified else 1


def _cmd_denning(args) -> int:
    from repro.core.denning import certify_denning

    program = _load_program(args.program)
    report = certify_denning(
        program, _binding(args, program), on_concurrency=args.on_concurrency
    )
    print(report.summary())
    return 0 if report.certified else 1


def _cmd_fs_certify(args) -> int:
    from repro.core.flowsensitive import certify_flow_sensitive

    program = _load_program(args.program)
    report = certify_flow_sensitive(program, _binding(args, program))
    print(report.summary())
    return 0 if report.certified else 1


def _cmd_infer(args) -> int:
    from repro.core.inference import infer_binding

    program = _load_program(args.program)
    scheme = _scheme(args)
    result = infer_binding(program, scheme, _classes(args))
    print(result.explain())
    return 0 if result.satisfiable else 1


def _cmd_flow(args) -> int:
    from repro.analysis.flowgraph import flow_graph

    program = _load_program(args.program)
    graph = flow_graph(program, _scheme(args))
    print(f"{len(graph.edges)} direct flow edges:")
    for a, bvar in graph.direct_edges():
        rules = ",".join(sorted(graph.why(a, bvar)))
        print(f"  {a} -> {bvar}   [{rules}]")
    return 0


def _cmd_ni(args) -> int:
    from repro.runtime.noninterference import check_noninterference

    program = _load_program(args.program)
    binding = _binding(args, program)
    observer = _parse_class(args.observer, binding.scheme)
    variations = []
    for spec in args.vary:
        name, _, values = spec.partition("=")
        for value in values.split(","):
            variations.append({name.strip(): _integer("--vary", value)})
    result = check_noninterference(program, binding, observer, variations)
    print(f"noninterference holds: {result.holds} (complete={result.complete})")
    if not result.holds:
        i, j, outcome = result.witness()
        print(f"  witness: variation {i} can reach {outcome}, variation {j} cannot")
    return 0 if result.holds else 1


def _cmd_leak(args) -> int:
    from repro.analysis.leaks import find_leak

    program = _load_program(args.program)
    binding = _binding(args, program)
    observer = _parse_class(args.observer, binding.scheme)
    values = tuple(_integer("--values", v) for v in args.values.split(","))
    witness = find_leak(program, binding, observer, values=values)
    if witness is None:
        print("no leak witness found")
        return 0
    print(str(witness))
    return 1


def _cmd_prove(args) -> int:
    from repro.lang.procs import resolve_subject
    from repro.logic.checker import check_proof
    from repro.logic.extract import is_completely_invariant
    from repro.logic.generator import generate_proof

    program = _load_program(args.program)
    binding = _binding(args, program)
    program, _ = resolve_subject(program)  # certificates index the expansion
    proof = generate_proof(program, binding)
    checked = check_proof(proof, binding.scheme)
    print(f"generated proof with {proof.size()} rule applications")
    print(f"independent check: {'VALID' if checked.ok else 'INVALID'}")
    for problem in checked.problems:
        print(f"  {problem}")
    print(f"completely invariant: {is_completely_invariant(proof, binding)}")
    if args.save_cert:
        from repro.logic.serialize import dump_proof

        _write(args.save_cert, json.dumps(dump_proof(proof, program), indent=2))
        print(f"certificate written to {args.save_cert}")
    if args.render:
        from repro.logic.render import render_proof

        print(render_proof(proof))
    return 0 if checked.ok else 1


def _cmd_check_cert(args) -> int:
    from repro.lang.procs import resolve_subject
    from repro.logic.checker import check_proof
    from repro.logic.serialize import load_proof

    program, _ = resolve_subject(_load_program(args.program))
    scheme = _scheme(args)
    proof = load_proof(_read_json(args.certificate), program, scheme)
    checked = check_proof(proof, scheme)
    print(
        f"certificate: {proof.size()} rule applications; "
        f"{'VALID' if checked.ok else 'INVALID'}"
    )
    for problem in checked.problems[:10]:
        print(f"  {problem}")
    return 0 if checked.ok else 1


def _cmd_run(args) -> int:
    from repro.runtime.executor import run as run_program
    from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler

    program = _load_program(args.program)
    scheduler = RandomScheduler(args.seed) if args.seed is not None else RoundRobinScheduler()
    result = run_program(
        program,
        scheduler=scheduler,
        store=_store(args),
        max_steps=args.max_steps,
        collect_trace=args.trace or args.timeline,
    )
    if args.timeline and result.trace:
        from repro.analysis.timeline import render_timeline

        print(render_timeline(result.trace))
    elif args.trace and result.trace:
        for event in result.trace:
            print(event)
    print(f"status: {result.status} after {result.steps} steps")
    for name in sorted(result.store):
        print(f"  {name} = {result.store[name]}")
    return 0 if result.completed else 1


def _cmd_explore(args) -> int:
    from repro.runtime.explorer import explore

    program = _load_program(args.program)
    result = explore(program, store=_store(args), budget=_budget(args), por=args.por)
    print(
        f"{result.states_visited} states, {result.transitions} transitions, "
        f"complete={result.complete}"
    )
    if result.degraded:
        print(
            f"  degraded: hit the {result.limit} budget with "
            f"{result.abandoned} frontier state(s) abandoned"
        )
    for outcome in result.sorted_outcomes():
        print(f"  {outcome}")
    return 0 if result.deadlock_free else 1


def _cmd_report(args) -> int:
    from repro.analysis.report import full_report

    program = _load_program(args.program)
    print(
        full_report(
            program,
            _binding(args, program),
            include_source=args.source,
            explore_budget=_budget(args) if args.explore else None,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
