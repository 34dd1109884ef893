"""Analysis utilities layered on the core mechanisms.

* :mod:`repro.analysis.metrics` — program shape statistics;
* :mod:`repro.analysis.flowgraph` — the variable-to-variable flow
  relation CFM enforces, derived from the constraint graph;
* :mod:`repro.analysis.leaks` — concrete leak witnesses: given a
  program and a *rejected* binding, search for an execution (schedule +
  high inputs) that demonstrates the flow CFM complained about;
* :mod:`repro.analysis.report` — combined human-readable reports.
"""

from repro import _lazy

_EXPORTS = {
    "atomicity": (
        "check_atomicity",
        "shared_variables",
        "AtomicityReport",
        "AtomicityViolation",
    ),
    "deadlock": ("find_deadlock", "DeadlockReport", "DeadlockWitness"),
    "timeline": ("render_timeline", "lane_summary", "context_switches"),
    "tables": (
        "certification_table",
        "report_to_dict",
        "denning_report_to_dict",
        "fs_report_to_dict",
    ),
    "metrics": ("ProgramMetrics", "measure"),
    "flowgraph": ("FlowGraph", "flow_graph"),
    "leaks": ("LeakWitness", "find_leak"),
    "report": ("full_report",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
