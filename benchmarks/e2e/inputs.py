"""Seeded workload inputs: the same ``--seed`` always gives the same bytes.

Each workload draws from its own stream (``random.Random("<workload>/<seed>")``)
so changing one workload's counts never shifts another's inputs.  The
program under test receives only the generated source text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.lang import builder as b
from repro.lang.ast import Program
from repro.lang.pretty import pretty
from repro.workloads.generators import sized_program

#: batch-cert program sizes (statement nodes), cycled through the corpus.
#: Four classes a factor of two apart give the §6 slope its x axis.
CERT_SIZES = (20, 40, 80, 160)

#: batch-explore program shape: one cobegin of ``EXPLORE_ARMS`` arms,
#: each ``EXPLORE_ARM_LENGTH`` assignments, with a signal/wait handoff.
#: The generator's free-form concurrent programs (``p_cobegin``) have a
#: heavy-tailed state space: a handful of programs per corpus set most
#: of its exploration time, so corpus cost moved by a third between
#: seeds.  A fixed shape bounds each program's interleavings, so the
#: corpus total is steady across seeds while the explorer still does
#: almost all of the analysis work.
EXPLORE_ARMS = 3
EXPLORE_ARM_LENGTH = 3

#: Statement nodes of each serve request's program.
SERVE_SIZE = 30

_VARS = ("v0", "v1", "v2", "v3")


def _stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def cert_corpus(seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` static-profile programs as (file name, source) pairs."""
    rng = _stream("batch-cert", seed)
    sizes = [CERT_SIZES[i % len(CERT_SIZES)] for i in range(count)]
    return [
        (f"c{i:05d}.rl", pretty(sized_program(rng.getrandbits(48), size)) + "\n")
        for i, size in enumerate(sizes)
    ]


def _expr(rng: random.Random, depth: int = 1):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return b.var(rng.choice(_VARS))
        return b.lit(rng.randint(0, 9))
    op = rng.choice((b.add, b.sub, b.mul))
    return op(_expr(rng, depth - 1), _expr(rng, depth - 1))


def concurrent_program(rng: random.Random) -> Program:
    """A runtime-safe cobegin program (terminates under every schedule)."""
    arms = [
        [b.assign(rng.choice(_VARS), _expr(rng)) for _ in range(EXPLORE_ARM_LENGTH)]
        for _ in range(EXPLORE_ARMS)
    ]
    # The signal runs unconditionally first in its arm, so the wait in
    # another arm always proceeds: no schedule deadlocks.
    arms[0].insert(0, b.signal("s0"))
    arms[1].insert(0, b.wait("s0"))
    return b.program(
        [b.int_decl(*_VARS), b.sem_decl("s0")],
        b.cobegin(*(b.begin(*arm) for arm in arms)),
    )


def explore_corpus(seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` programs of the fixed concurrent shape, as (file name, source)."""
    rng = _stream("batch-explore", seed)
    return [
        (f"x{i:05d}.rl", pretty(concurrent_program(rng)) + "\n")
        for i in range(count)
    ]


@dataclass(frozen=True)
class Request:
    """One ``POST /analyze`` body and the program inside it."""

    name: str
    source: str
    body: bytes


def serve_programs(workload: str, seed: int, count: int) -> List[Request]:
    """``count`` distinct size-``SERVE_SIZE`` programs as request bodies."""
    rng = _stream(workload, seed)
    requests = []
    for i in range(count):
        name = f"{workload[len('serve-')]}{i:05d}.rl"
        source = pretty(sized_program(rng.getrandbits(48), SERVE_SIZE))
        document = {"program": source, "name": name, "analyses": ["cert", "lint"]}
        requests.append(Request(name, source, json.dumps(document, sort_keys=True).encode()))
    return requests


def hot_schedule(seed: int, length: int, distinct: int) -> List[int]:
    """Seeded-uniform picks from the ``distinct`` warm programs."""
    rng = _stream("serve-hot/schedule", seed)
    return [rng.randrange(distinct) for _ in range(length)]
