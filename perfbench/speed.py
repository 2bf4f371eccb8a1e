"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed at which one core runs Python drifts by tens
of percent over seconds and minutes, far more than the changes the
benchmark has to resolve. A fixed routine made of the operations the solver
spends its time on (set and dict building, sorting, list comprehensions
that filter short lists) is timed before every instance and once after
the last one; an instance that runs longer than FIRST_TICK_S is also
sampled every TICK_S from then on, and the time those samples take is not
counted. Short instances are never interrupted, because the samples disturb
the caches of the code they interrupt. Each instance's time is scaled to
the speed at which the routine takes REFERENCE_S, using the mean of the
samples taken just before, during and just after it:

    reported = measured * REFERENCE_S / mean(samples)

The routine does not touch the package under test, so two commits measured
on the same machine are scaled alike.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.002
FIRST_TICK_S = 1.0
TICK_S = 0.5

_rng = random.Random(12345)
_EDGES = [(_rng.randrange(400), _rng.randrange(400)) for _ in range(800)]
_PATHS = [[_rng.randrange(400) for _ in range(_rng.randint(2, 6))] for _ in range(150)]


def _routine() -> int:
    adj: dict[int, set[int]] = {}
    for u, v in _EDGES:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for w in sorted(adj.get(x, ())):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    paths = [list(p) for p in _PATHS]
    for v in range(0, 400, 20):
        paths = [[u for u in p if u != v] for p in paths]
    return len(seen) + len(frozenset(tuple(p) for p in paths if p))


def sample() -> float:
    """Seconds one run of the calibration routine takes now."""
    t0 = time.perf_counter()
    _routine()
    return time.perf_counter() - t0


def to_reference(seconds: float, samples) -> float:
    """`seconds` measured while the routine took `samples`, in reference
    seconds."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)


def bracketed(times, samples) -> list[float]:
    """Reference seconds for each of `times`, given one calibration sample
    before each time and one after the last."""
    if len(samples) != len(times) + 1:
        raise ValueError("need one calibration sample around each measured time")
    return [to_reference(t, (a, b)) for t, a, b in zip(times, samples, samples[1:])]
