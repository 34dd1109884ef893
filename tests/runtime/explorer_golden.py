"""The explorer golden corpus: pinned counters and witness schedules.

Each entry names one ``explore`` call over a ``repro.workloads``
subject and records what the explorer reported: the seven counters
(``states_visited``, ``transitions``, ``reduced_states``,
``peak_processes``, ``complete``, ``limit``, ``abandoned``), the
``por`` flag, the outcome count, and a SHA-256 over the sorted
outcomes with their witness schedules.  Any change to which states
are visited, in which order, shows up as a changed counter or digest.

``tests/runtime/test_explorer_golden.py`` replays every entry against
``explorer_golden.json``.  The file is written by::

    PYTHONPATH=src python -m tests.runtime.explorer_golden

and is regenerated only when the explorer's behaviour is meant to
change.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Iterator, Tuple

from repro.core.binding import StaticBinding
from repro.lang.ast import used_variables
from repro.lang.parser import parse_program
from repro.lattice.chain import two_level
from repro.runtime.explorer import explore
from repro.runtime.taint import TaintMonitor
from repro.workloads.generators import random_program
from repro.workloads.litmus import CASES
from repro.workloads.paper import paper_programs
from repro.workloads.suites import corpus

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "explorer_golden.json")

MAX_STATES = 60_000
MAX_DEPTH = 600

#: A program with one infinite linear chain of states.
DIVERGENT_SOURCE = "var x : integer; while 1 = 1 do x := x + 1"

#: Budgets that cut explorations short (``"full"`` runs to exhaustion
#: under the generous defaults above).
CAPS: Dict[str, Dict[str, int]] = {
    "full": {"max_states": MAX_STATES, "max_depth": MAX_DEPTH},
    "states50": {"max_states": 50, "max_depth": MAX_DEPTH},
    "depth6": {"max_states": MAX_STATES, "max_depth": 6},
}

Run = Callable[[], object]


def _generated(seed: int):
    return random_program(
        seed=seed, size=24, runtime_safe=True, p_cobegin=0.3, n_sems=2
    )


def _static(seed: int):
    return random_program(
        seed=seed,
        size=10,
        runtime_safe=False,
        p_cobegin=0.35,
        p_sem_op=0.2,
        n_sems=2,
        max_loop_iters=2,
    )


def _taint_monitor(stmt) -> TaintMonitor:
    variables = sorted(used_variables(stmt))
    binding = StaticBinding(
        two_level(), {name: "high" if name == "h" else "low" for name in variables}
    )
    return TaintMonitor.from_binding(binding, variables)


def _litmus_store(case, probe) -> Dict[str, int]:
    store = dict(case.base_store or {})
    store["h"] = probe
    return store


def cases() -> Iterator[Tuple[str, Run]]:
    """Every golden entry as ``(id, thunk)``; each thunk builds fresh inputs."""
    from tests.pipeline.test_por_differential import STATIC_SEEDS

    por_modes = (("por", True), ("naive", False))

    for case in CASES:
        for probe in case.probe_values:
            for mode, por in por_modes:
                yield (
                    f"litmus/{case.name}/h={probe}/{mode}",
                    lambda case=case, probe=probe, por=por: explore(
                        case.statement(),
                        store=_litmus_store(case, probe),
                        por=por,
                        **CAPS["full"],
                    ),
                )

    # Explorations under a TaintMonitor (POR stands down: por is False
    # in the result even when requested).
    for case in CASES:
        for probe in case.probe_values:
            for mode, por in por_modes:

                def run(case=case, probe=probe, por=por):
                    stmt = case.statement()
                    return explore(
                        stmt,
                        store=_litmus_store(case, probe),
                        monitor=_taint_monitor(stmt),
                        por=por,
                        **CAPS["full"],
                    )

                yield f"taint/{case.name}/h={probe}/{mode}", run

    paper_names = sorted(paper_programs())
    stores = (("{}", {}), ("x=1", {"x": 1}), ("x=0", {"x": 0}))
    runtime_names = [name for name, _ in corpus("runtime")]
    generated_seeds = range(4300, 4340)
    for cap, limits in CAPS.items():
        for name in paper_names:
            for label, store in stores:
                for mode, por in por_modes:
                    yield (
                        f"paper/{name}/{label}/{cap}/{mode}",
                        lambda name=name, store=store, por=por, limits=limits: explore(
                            paper_programs()[name], store=dict(store), por=por, **limits
                        ),
                    )
        for name in runtime_names:
            for mode, por in por_modes:
                yield (
                    f"runtime/{name}/{cap}/{mode}",
                    lambda name=name, por=por, limits=limits: explore(
                        dict(corpus("runtime"))[name], por=por, **limits
                    ),
                )
        for seed in generated_seeds:
            for mode, por in por_modes:
                yield (
                    f"generated/{seed}/{cap}/{mode}",
                    lambda seed=seed, por=por, limits=limits: explore(
                        _generated(seed), por=por, **limits
                    ),
                )

    for seed in STATIC_SEEDS:
        for mode, por in por_modes:
            yield (
                f"static/{seed}/{mode}",
                lambda seed=seed, por=por: explore(
                    _static(seed), por=por, max_states=MAX_STATES, max_depth=200
                ),
            )

    divergent_limits = {
        "depth300": {"max_states": MAX_STATES, "max_depth": 300},
        "states500": {"max_states": 500, "max_depth": 10**8},
    }
    for cap, limits in divergent_limits.items():
        for mode, por in por_modes:
            yield (
                f"divergent/{cap}/{mode}",
                lambda por=por, limits=limits: explore(
                    parse_program(DIVERGENT_SOURCE), por=por, **limits
                ),
            )


def outcomes_digest(result) -> str:
    """SHA-256 over the sorted outcomes, each with its witness schedule."""
    rows = [
        [outcome.to_dict(), [list(pid) for pid in result.schedules[outcome]]]
        for outcome in result.sorted_outcomes()
    ]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(result) -> Dict[str, object]:
    """What one golden entry pins about an exploration."""
    return {
        "states_visited": result.states_visited,
        "transitions": result.transitions,
        "reduced_states": result.reduced_states,
        "peak_processes": result.peak_processes,
        "complete": result.complete,
        "limit": result.limit,
        "abandoned": result.abandoned,
        "por": result.por,
        "outcomes": len(result.outcomes),
        "sha256": outcomes_digest(result),
    }


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
