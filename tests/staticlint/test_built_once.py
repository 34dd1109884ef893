"""Every program fact of one lint run is built once.

:class:`LintContext` builds the CFG, its reachable nodes and the used
names when it is made, and the passes read them off the context.  The
passes bind these functions by name at import, so patching a module
attribute would not see their calls; a profile hook counts the calls
by code object instead, keyed by the module that made each call.
"""

import sys
from collections import Counter

import pytest

from repro.core.binding import StaticBinding
from repro.lang.ast import iter_statements, used_variables
from repro.lattice.chain import two_level
from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG
from repro.staticlint import run_lint
from repro.staticlint.cfg import build_cfg
from repro.staticlint.dataflow import reachable
from repro.workloads.paper import figure3_program

WATCHED = {
    f.__code__: f.__name__
    for f in (build_cfg, reachable, iter_statements, used_variables)
}

#: The modules that read the facts off the context.
PASS_MODULES = ("repro.staticlint.passes", "repro.staticlint.labels")


def _calls(run) -> Counter:
    """``(function name, calling module) -> calls`` made by ``run()``.

    A generator's frame reports a call each time it resumes, so only a
    zero count is exact for ``iter_statements``.
    """
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in WATCHED:
            caller = frame.f_back.f_globals.get("__name__")
            counts[WATCHED[frame.f_code], caller] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


def _binding(program):
    scheme = two_level()
    return StaticBinding(scheme, {
        name: scheme.top if name == "h" else scheme.bottom
        for name in program.declared()
    })


def _run_lint():
    program = figure3_program()
    result = run_lint(program, binding=_binding(program))
    assert result.diagnostics


def _lint_cell():
    result = ANALYSES["lint"].run(figure3_program(), dict(DEFAULT_CONFIG))
    assert result["findings"]


@pytest.mark.parametrize("run", [_run_lint, _lint_cell],
                         ids=["run_lint", "lint-cell"])
def test_each_fact_is_built_once(run):
    run()  # warm-up: lazy imports
    counts = _calls(run)
    total = Counter()
    for (name, _caller), n in counts.items():
        total[name] += n
    assert total["build_cfg"] == 1, counts
    assert total["reachable"] == 1, counts
    for module in PASS_MODULES:
        assert counts["iter_statements", module] == 0, counts
        assert counts["used_variables", module] == 0, counts
