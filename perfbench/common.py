"""Task and workload types shared by the three workloads, plus check helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Statistical checks allow this many standard errors. With a few dozen
# such checks per run, a correct program fails one with probability of
# order 1e-5 per run.
Z_BOUND = 5.0


@dataclass(frozen=True)
class Task:
    """One experiment call: ``fn(tracer)`` returns the output that is checked."""

    name: str
    layer: str
    fn: Callable


@dataclass(frozen=True)
class Workload:
    """A fixed task sweep and the check of its outputs.

    ``check(outputs)`` gets one output per task (``None`` where the task
    raised) and returns ``{task index: reason}`` for every task whose
    output fails a check. A pooled check that fails marks every task in
    its pool.
    """

    tasks: list[Task]
    check: Callable[[list], dict[int, str]]


def pull(observed: float, expected: float, se: float) -> float:
    """Distance in standard errors; infinite when the spread is zero but the values differ."""
    if se > 0:
        return abs(observed - expected) / se
    return 0.0 if observed == expected else math.inf


def tv_bound(p, n: float) -> float:
    """Level that the TV distance of an n-sample empirical law from ``p`` stays below.

    The mean TV is at most 0.5 * sum sqrt(p (1 - p) / n) by Jensen's
    inequality, and McDiarmid's inequality puts the chance of exceeding
    the mean by sqrt(log(1e9) / (2 n)) below 1e-9.
    """
    mean_bound = 0.5 * sum(math.sqrt(q * (1.0 - q) / n) for q in p)
    return mean_bound + math.sqrt(math.log(1e9) / (2.0 * n))


def fail_all(failures: dict[int, str], indices, reason: str) -> None:
    for i in indices:
        failures.setdefault(i, reason)
