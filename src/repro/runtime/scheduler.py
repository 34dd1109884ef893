"""Schedulers: policies for picking the next process to step.

A scheduler is anything with ``pick(machine) -> Pid`` choosing among
``machine.enabled()``.  Three standard policies are provided:

* :class:`RoundRobinScheduler` — fair rotation (deterministic);
* :class:`RandomScheduler` — uniform choice from a seeded PRNG, for
  sampling the interleaving space reproducibly;
* :class:`FixedScheduler` — replay an explicit pid script (used to
  reproduce a specific interleaving found by the explorer).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from repro.errors import RuntimeFault
from repro.runtime.machine import Machine, Pid


class RoundRobinScheduler:
    """Rotate through processes fairly.

    Remembers the last-stepped pid and picks the next enabled pid in
    sorted order after it, wrapping around.
    """

    def __init__(self) -> None:
        self._last: Optional[Pid] = None

    def pick(self, machine: Machine) -> Pid:
        enabled = machine.enabled()
        if not enabled:
            raise RuntimeFault("no enabled process to schedule")
        if self._last is not None:
            for pid in enabled:
                if pid > self._last:
                    self._last = pid
                    return pid
        self._last = enabled[0]
        return enabled[0]


class RandomScheduler:
    """Uniformly random choice among enabled processes, seeded."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def pick(self, machine: Machine) -> Pid:
        enabled = machine.enabled()
        if not enabled:
            raise RuntimeFault("no enabled process to schedule")
        return self._rng.choice(enabled)


class FixedScheduler:
    """Replay an explicit schedule.

    ``script`` is a sequence of pids; each ``pick`` consumes the next
    entry (which must be enabled).  When the script runs out,
    ``fallback`` (default: first enabled) takes over — convenient for
    driving a program into a state of interest and then finishing it
    deterministically.
    """

    def __init__(self, script: Iterable[Pid], fallback: str = "first"):
        self._script: List[Pid] = list(script)
        self._pos = 0
        if fallback not in ("first", "error"):
            raise RuntimeFault("fallback must be 'first' or 'error'")
        self._fallback = fallback

    def pick(self, machine: Machine) -> Pid:
        enabled = machine.enabled()
        if not enabled:
            raise RuntimeFault("no enabled process to schedule")
        if self._pos < len(self._script):
            pid = self._script[self._pos]
            self._pos += 1
            if pid not in enabled:
                raise RuntimeFault(
                    f"scripted pid {pid!r} is not enabled (enabled: {enabled!r})"
                )
            return pid
        if self._fallback == "error":
            raise RuntimeFault("schedule script exhausted")
        return enabled[0]
