"""Mutation testing of the certifiers: injected leaks never go unnoticed.

Take a random certified (program, binding) pair with at least one high
and one low variable and inject a leak — a direct assignment, a tainted
guard, a high-guarded loop before a low write, or a high-conditioned
signal protocol — and assert the mutant is rejected.

Two injection disciplines:

* **anywhere** — CFM must reject (Definition 3 binds classes to names,
  so position is irrelevant to it);
* **prepended** (before anything could have sanitized the source) —
  the flow-sensitive mechanism must reject too.  (At a random position
  it may legitimately accept: if the program overwrote the high
  variable with low data first, the "leak" is no leak — exactly the
  precision it exists to provide.)
"""

import functools
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.cfm import certify
from repro.core.flowsensitive import certify_flow_sensitive
from repro.lang import builder as b
from repro.lang.ast import Begin, iter_statements, used_variables
from repro.lattice.chain import two_level
from repro.workloads.generators import random_certified_case

SCHEME = two_level()


def split_classes(binding, names):
    highs = sorted(n for n in names if binding.of_var(n) == "high")
    lows = sorted(n for n in names if binding.of_var(n) == "low")
    return highs, lows


def certified_case(seed, size):
    """The generated case for ``seed`` with its high and low variables."""
    prog, binding = random_certified_case(seed, SCHEME, size=size, n_pins=3)
    highs, lows = split_classes(binding, used_variables(prog.body))
    return prog, binding, highs, lows


@functools.lru_cache(maxsize=None)
def leakable_seeds(stop, size):
    """The seeds below ``stop`` whose case has a high and a low variable.

    Only those cases can take an injected leak.  Drawing from them
    instead of filtering with ``assume`` reaches exactly the same cases
    without tripping hypothesis's ``filter_too_much`` health check.
    """
    return tuple(
        seed for seed in range(stop) if all(certified_case(seed, size)[2:])
    )


def leakable(stop, size):
    """A strategy over :func:`leakable_seeds`, computed on first use."""
    return st.deferred(lambda: st.sampled_from(leakable_seeds(stop, size)))


def inject_anywhere(program, rng, leak):
    begins = [s for s in iter_statements(program.body) if isinstance(s, Begin)]
    if begins and rng.random() < 0.8:
        target = rng.choice(begins)
        target.body.insert(rng.randrange(len(target.body) + 1), leak)
    else:
        program.body = b.begin(leak, program.body)
    return program


def prepend(program, leak):
    program.body = b.begin(leak, program.body)
    return program


def make_leaks(rng, high, low):
    """The four §2.2 leak shapes from ``high`` into ``low``."""
    return {
        "direct": lambda: b.assign(low, b.var(high)),
        "implicit": lambda: b.if_(b.eq(high, 0), b.assign(low, 1)),
        "termination": lambda: b.begin(
            b.while_(b.ne(high, 0), b.skip()), b.assign(low, 1)
        ),
    }


@given(
    leakable(401, 25),
    st.sampled_from(["direct", "implicit", "termination"]),
)
@settings(max_examples=80, deadline=None)
def test_cfm_rejects_leak_injected_anywhere(seed, kind):
    prog, binding, highs, lows = certified_case(seed, 25)
    rng = random.Random(seed)
    leak = make_leaks(rng, rng.choice(highs), rng.choice(lows))[kind]()
    mutant = inject_anywhere(prog, rng, leak)
    assert not certify(mutant, binding).certified


@given(
    leakable(401, 25),
    st.sampled_from(["direct", "implicit", "termination"]),
)
@settings(max_examples=80, deadline=None)
def test_flow_sensitive_rejects_leak_before_sanitization(seed, kind):
    prog, binding, highs, lows = certified_case(seed, 25)
    rng = random.Random(seed ^ 0xF00)
    leak = make_leaks(rng, rng.choice(highs), rng.choice(lows))[kind]()
    mutant = prepend(prog, leak)
    assert not certify_flow_sensitive(mutant, binding).certified


@given(leakable(301, 20))
@settings(max_examples=40, deadline=None)
def test_synchronization_leak_mutation_is_caught(seed):
    prog, binding, highs, lows = certified_case(seed, 20)
    rng = random.Random(seed ^ 0x123)
    low = rng.choice(lows)
    high = rng.choice(highs)
    leak = b.cobegin(
        b.if_(b.eq(high, 0), b.signal("leak_sem")),
        b.begin(b.wait("leak_sem"), b.assign(low, 1)),
    )
    mutant = prepend(prog, leak)
    # leak_sem is fresh; whatever class it gets, one side of the chain
    # sbind(high) <= sbind(leak_sem) <= sbind(low) must fail.
    for sem_class in ("low", "high"):
        mutant_binding = binding.with_bindings({"leak_sem": sem_class})
        assert not certify(mutant, mutant_binding).certified, sem_class
        assert not certify_flow_sensitive(mutant, mutant_binding).certified, sem_class
