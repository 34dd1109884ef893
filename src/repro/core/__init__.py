"""The paper's certification mechanisms.

* :mod:`repro.core.binding` — static bindings (Definition 3).
* :mod:`repro.core.policy` — information states and policy assertions
  at the semantic level (Definitions 2 and 6).
* :mod:`repro.core.cfm` — the Concurrent Flow Mechanism (Figure 2),
  the paper's primary contribution.
* :mod:`repro.core.denning` — the Denning & Denning baseline [3].
* :mod:`repro.core.constraints` — every CFM check as an edge in a
  lattice constraint graph.
* :mod:`repro.core.inference` — least-binding inference over that graph.
"""

from repro import _lazy

_EXPORTS = {
    "binding": ("StaticBinding",),
    "cfm": ("certify", "CertificationReport", "CFMAnalysis", "Check"),
    "denning": ("certify_denning", "DenningReport"),
    "flowsensitive": ("certify_flow_sensitive", "analyze", "FSReport", "FSState"),
    "constraints": ("ConstraintGraph", "build_constraint_graph"),
    "inference": ("infer_binding", "InferenceResult"),
    "policy": ("InformationState", "PolicySpec"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
