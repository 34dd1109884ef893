"""Concurrent runtime for the paper's language.

The paper assumes (section 2.0) that every assignment, expression
evaluation, ``wait`` and ``signal`` is an *indivisible* action.  The
runtime honours that exactly: a program is executed as a set of
processes, each a small-step machine whose every scheduler-visible step
is one such atomic action.  On top of the machine sit:

* schedulers (round-robin, seeded random, fixed scripts);
* an executor with deadlock detection and step budgets;
* a dynamic label monitor mirroring the flow logic (for empirically
  validating static certification);
* an exhaustive interleaving explorer (a small model checker);
* a possibilistic noninterference tester.
"""

from repro import _lazy

_EXPORTS = {
    "eval": ("evaluate",),
    "machine": ("Machine", "Process", "Event"),
    "scheduler": ("RoundRobinScheduler", "RandomScheduler", "FixedScheduler"),
    "executor": ("run", "ExecutionResult"),
    "taint": ("TaintMonitor",),
    "enforce": ("EnforcingMonitor", "SecurityViolation", "BlockedAction"),
    "explorer": ("explore", "ExplorationResult", "Outcome"),
    "noninterference": ("check_noninterference", "NIResult"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
