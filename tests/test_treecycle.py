import itertools
import random

import pytest

from hitpaths import (
    CycleArc,
    Interval,
    ValidationError,
    hit_paths_in_cycle,
    stab_intervals,
)

from conftest import brute_min_hitting


def brute_stab(length, intervals):
    return brute_min_hitting(length, [set(range(iv.lo, iv.hi + 1)) for iv in intervals])


def test_stab_examples():
    assert stab_intervals(5, []) == (0, frozenset())
    assert stab_intervals(5, [Interval(1, 2), Interval(2, 3)]) == (1, frozenset({2}))
    assert stab_intervals(5, [Interval(1, 2), Interval(4, 5)]) == (2, frozenset({2, 5}))


def test_stab_rejects_out_of_range():
    with pytest.raises(ValidationError):
        stab_intervals(3, [Interval(2, 4)])
    with pytest.raises(ValidationError):
        Interval(3, 2)


def test_stab_matches_bruteforce_exhaustive():
    # all interval families over a short line
    length = 6
    all_ivs = [Interval(lo, hi) for lo in range(1, length + 1) for hi in range(lo, length + 1)]
    rng = random.Random(3)
    for _ in range(300):
        ivs = rng.sample(all_ivs, rng.randint(0, 6))
        size, pts = stab_intervals(length, ivs)
        assert size == brute_stab(length, ivs)
        assert all(any(iv.contains(p) for p in pts) for iv in ivs)


def test_cycle_examples():
    assert hit_paths_in_cycle(4, []) == (0, frozenset())
    size, pts = hit_paths_in_cycle(4, [CycleArc(2, 3)])
    assert size == 1 and pts == frozenset({2})
    size, pts = hit_paths_in_cycle(4, [CycleArc(1, 2), CycleArc(3, 4)])
    assert size == 2 and len(pts) == 2


def test_cycle_errors():
    with pytest.raises(ValidationError):
        hit_paths_in_cycle(2, [])
    with pytest.raises(ValidationError):
        hit_paths_in_cycle(4, [CycleArc(1, 4)])
    with pytest.raises(ValidationError):
        hit_paths_in_cycle(4, [CycleArc(2, 1)])


def test_cycle_matches_bruteforce_random():
    rng = random.Random(17)
    for _ in range(300):
        length = rng.randint(3, 10)
        arcs = []
        for _ in range(rng.randint(1, 5)):
            lo = rng.randint(1, length)
            span = rng.randint(0, length - 2)
            arcs.append(CycleArc(lo, (lo + span - 1) % length + 1))
        size, pts = hit_paths_in_cycle(length, arcs)
        assert all(any(a.contains(p) for p in pts) for a in arcs)
        sets = [
            {(a.lo + off - 1) % length + 1 for off in range(a.length(length))}
            for a in arcs
        ]
        assert size == brute_min_hitting(length, sets)
