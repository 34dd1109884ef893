"""Worker faults and chunk sizes for the pipeline's dispatch tests.

:func:`inject_fault` swaps the ``cert`` entry of the analysis registry
for one that first calls a fault with the ``(source, kind, analysis,
config)`` of the cell it is about to run.  Workers are forked, so they
inherit the swapped registry, and ``os._exit`` in a fault kills a
worker exactly like a real kill.  Use it with ``jobs > 1`` only: the
fault must never run in the pytest process itself.

:func:`fix_chunk_size` pins how many cells (or fuzz seeds) ride one
submitted worker task.  Chunks are sized in the parent, by
``runner._auto_chunk_size``, so forked workers need nothing.
"""

import dataclasses

from repro.lang.ast import Program
from repro.lang.pretty import pretty
from repro.pipeline import runner
from repro.pipeline.analyses import ANALYSES

_CERT = ANALYSES["cert"]
_AUTO_CHUNK_SIZE = runner._auto_chunk_size


def inject_fault(monkeypatch, fault):
    """Make every ``cert`` cell call ``fault`` first; ``None`` removes it."""
    if fault is None:
        monkeypatch.setitem(ANALYSES, "cert", _CERT)
        return

    def run(subject, config):
        kind = "program" if isinstance(subject, Program) else "statement"
        fault((pretty(subject), kind, "cert", config))
        return _CERT.run(subject, config)

    monkeypatch.setitem(ANALYSES, "cert", dataclasses.replace(_CERT, run=run))


def fix_chunk_size(monkeypatch, size):
    """Make every first-round chunk ``size`` cells; ``None`` restores auto."""
    if size is None:
        monkeypatch.setattr(runner, "_auto_chunk_size", _AUTO_CHUNK_SIZE)
        return
    monkeypatch.setattr(runner, "_auto_chunk_size", lambda cells, jobs: size)
