"""The lint golden corpus: pinned per-code counts and document digests.

Each entry names one ``run_lint`` call, a subject under a policy
binding, and records what lint reported: the number of diagnostics of
each code and a SHA-256 over the lint document
(``LintResult.to_dict()`` serialized with sorted keys).  Any change to
a message, a span, a hint, an extra field or the order of findings
shows up as a changed digest.

Subjects: the litmus cases, the paper's programs, the fuzz corpus's
sources and 60 seeded generated programs.  Bindings, per subject:

* none (only the binding-free passes speak);
* the pipeline's config-derived policy, ``high=h,h2`` and
  ``high=h,h2,v0`` (those names at the top, the rest at the bottom),
  in each named scheme;
* a seeded random full binding;
* a seeded partial binding without a default (its unbound variables
  stay free);
* a seeded partial binding with a default.

Product and powerset schemes such as ``military()`` are left out:
their elements print as frozensets, whose order follows the hash seed.

``tests/staticlint/test_lint_golden.py`` replays every entry against
``lint_golden.json``.  The file is written by::

    PYTHONPATH=src python -m tests.staticlint.lint_golden

and is regenerated only when lint's output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.binding import StaticBinding
from repro.fuzz.corpus import load_findings
from repro.lang.ast import Program, Stmt, used_variables
from repro.lang.parser import parse_program, parse_statement
from repro.lattice import SCHEMES
from repro.staticlint import LintResult, run_lint
from repro.workloads.generators import random_program
from repro.workloads.litmus import CASES
from repro.workloads.paper import paper_programs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "lint_golden.json")
FUZZ_CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fuzz", "corpus")

GENERATED_SEEDS = range(5100, 5160)

#: The pipeline-style policies: these names bind to the top.
PIPELINE_HIGHS = (("h", "h2"), ("h", "h2", "v0"))

Subject = Union[Program, Stmt]
Run = Callable[[], LintResult]


def _generated(seed: int) -> Program:
    return random_program(
        seed=seed, size=15 + 10 * (seed % 4), p_cobegin=0.25, p_sem_op=0.15
    )


def subjects() -> List[Tuple[str, Subject]]:
    """Every golden subject as ``(id, subject)``."""
    out: List[Tuple[str, Subject]] = []
    for case in CASES:
        out.append((f"litmus/{case.name}", case.statement()))
    for name, program in sorted(paper_programs().items()):
        out.append((f"paper/{name}", program))
    for record in load_findings(FUZZ_CORPUS):
        parse = parse_program if record["kind"] == "program" else parse_statement
        stem = os.path.splitext(os.path.basename(record["path"]))[0]
        out.append((f"fuzz/{stem}", parse(record["source"])))
    for seed in GENERATED_SEEDS:
        out.append((f"generated/{seed}", _generated(seed)))
    return out


def bindings(
    subject_id: str, subject: Subject
) -> List[Tuple[str, Optional[StaticBinding]]]:
    """The golden bindings of one subject as ``(label, binding)``.

    The seeded ones draw from a stream keyed by the subject id (string
    seeds hash with SHA-512, so the draw does not follow the hash seed).
    """
    stmt = subject.body if isinstance(subject, Program) else subject
    variables = sorted(used_variables(stmt))
    out: List[Tuple[str, Optional[StaticBinding]]] = [("none", None)]
    for scheme_name in sorted(SCHEMES):
        scheme = SCHEMES[scheme_name]()
        for high in PIPELINE_HIGHS:
            classes = {
                name: scheme.top if name in high else scheme.bottom
                for name in variables
            }
            out.append((
                f"{scheme_name}/high={','.join(high)}",
                StaticBinding(scheme, classes),
            ))
    rng = random.Random(f"lint-golden/{subject_id}")
    for kind in ("random", "partial", "partial-default"):
        scheme_name = rng.choice(sorted(SCHEMES))
        scheme = SCHEMES[scheme_name]()
        elements = sorted(scheme.elements, key=str)
        if kind == "random":
            chosen = variables
        else:
            chosen = [name for name in variables if rng.random() < 0.5]
        classes = {name: rng.choice(elements) for name in chosen}
        default = rng.choice(elements) if kind == "partial-default" else None
        out.append((
            f"{kind}/{scheme_name}",
            StaticBinding(scheme, classes, default=default),
        ))
    return out


def pairs() -> Iterator[Tuple[str, Subject, Optional[StaticBinding]]]:
    """Every (entry id, subject, binding) of the corpus."""
    for subject_id, subject in subjects():
        for label, binding in bindings(subject_id, subject):
            yield f"{subject_id}/{label}", subject, binding


def cases() -> Iterator[Tuple[str, Run]]:
    """Every golden entry as ``(id, thunk)``."""
    for name, subject, binding in pairs():
        yield name, lambda subject=subject, binding=binding: run_lint(
            subject, binding=binding
        )


def document_digest(result: LintResult) -> str:
    """SHA-256 over the lint document."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(result: LintResult) -> Dict[str, object]:
    """What one golden entry pins about a lint run."""
    codes: Dict[str, int] = {}
    for diagnostic in result.diagnostics:
        codes[diagnostic.code] = codes.get(diagnostic.code, 0) + 1
    return {"codes": codes, "sha256": document_digest(result)}


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    golden = {name: summarize(run()) for name, run in cases()}
    lines = [
        f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
        for name, entry in sorted(golden.items())
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
