import random

import pytest

from hitpaths import (
    ValidationError,
    hit_paths_in_cycle,
    stab_intervals,
)
from hitpaths.treecycle import pad

from conftest import brute_min_hitting, covers


def brute_stab(length, intervals):
    return brute_min_hitting(length, [set(range(lo, hi + 1)) for lo, hi in intervals])


def test_stab_examples():
    assert stab_intervals(5, []) == (0, frozenset())
    assert stab_intervals(5, [(1, 2), (2, 3)]) == (1, frozenset({2}))
    assert stab_intervals(5, [(1, 2), (4, 5)]) == (2, frozenset({2, 5}))


def test_pad_adds_the_highest_unused_positions():
    assert pad({2}, 5, 3) == {2, 5, 4}
    assert pad([5, 3], 5, 4) == {5, 4, 3, 2}
    assert pad(frozenset(), 2, 5) == {1, 2}  # runs out of positions
    assert pad({1, 2, 3}, 5, 2) == {1, 2, 3}  # already past the budget
    picked = {4}
    assert pad(picked, 6, 2) == {4, 6} and picked == {4}


def test_stab_rejects_out_of_range():
    with pytest.raises(ValidationError):
        stab_intervals(3, [(2, 4)])
    with pytest.raises(ValidationError):
        stab_intervals(3, [(3, 2)])


def test_stab_matches_bruteforce_exhaustive():
    # all interval families over a short line
    length = 6
    all_ivs = [(lo, hi) for lo in range(1, length + 1) for hi in range(lo, length + 1)]
    rng = random.Random(3)
    for _ in range(300):
        ivs = rng.sample(all_ivs, rng.randint(0, 6))
        size, pts = stab_intervals(length, ivs)
        assert size == brute_stab(length, ivs)
        assert all(any(lo <= p <= hi for p in pts) for lo, hi in ivs)


def test_cycle_examples():
    assert hit_paths_in_cycle(4, []) == (0, frozenset())
    size, pts = hit_paths_in_cycle(4, [(2, 2)])
    assert size == 1 and pts == frozenset({2})
    size, pts = hit_paths_in_cycle(4, [(1, 2), (3, 2)])
    assert size == 2 and len(pts) == 2
    assert hit_paths_in_cycle(5, [(4, 3), (2, 5)]) == (1, frozenset({4}))


def test_cycle_errors():
    with pytest.raises(ValidationError):
        hit_paths_in_cycle(2, [])
    for arc in [(0, 1), (5, 1), (1, 0), (1, 5)]:
        with pytest.raises(ValidationError):
            hit_paths_in_cycle(4, [arc])
    # a whole-cycle arc, wrapping or not, is hit by any one vertex
    for arc in [(1, 4), (2, 4)]:
        size, pts = hit_paths_in_cycle(4, [arc])
        assert size == 1 and covers(arc, min(pts), 4)


def test_cycle_matches_bruteforce_random():
    rng = random.Random(17)
    whole = 0
    for _ in range(300):
        length = rng.randint(3, 10)
        arcs = [
            (rng.randint(1, length), rng.randint(1, length)) for _ in range(rng.randint(1, 5))
        ]
        whole += any(span == length for _, span in arcs)
        size, pts = hit_paths_in_cycle(length, arcs)
        assert all(any(covers(a, p, length) for p in pts) for a in arcs)
        sets = [{(start + off - 1) % length + 1 for off in range(span)} for start, span in arcs]
        assert size == brute_min_hitting(length, sets)
    assert whole > 50


def sorting_greedy(length, intervals):
    """The earlier stab_intervals, kept as the reference: sort by right end
    and pick the right end of every interval the last pick misses."""
    picked = []
    last = 0
    for lo, hi in sorted(intervals, key=lambda iv: (iv[1], iv[0])):
        if lo > last:
            picked.append(hi)
            last = hi
    return len(picked), frozenset(picked)


def trying_every_vertex(cycle_length, arcs):
    """The earlier hit_paths_in_cycle, kept as the reference: for every
    vertex v, take v and stab the arcs it misses on the path the cycle
    opens into at v; the smallest v among the optima wins."""
    if not arcs:
        return 0, frozenset()
    best = None
    for v in range(1, cycle_length + 1):
        ivs = [
            ((start - v) % cycle_length, (start - v) % cycle_length + span - 1)
            for start, span in arcs
            if not covers((start, span), v, cycle_length)
        ]
        size, pts = sorting_greedy(cycle_length - 1, ivs)
        back = frozenset({v} | {(q + v - 1) % cycle_length + 1 for q in pts})
        if best is None or 1 + size < best[0]:
            best = (1 + size, back)
    return best


def random_line_family(rng, length):
    """Intervals with ties in hi and lo, nesting, duplicates and single
    positions."""
    ivs = []
    for _ in range(rng.randint(0, 10)):
        shape = rng.random()
        if ivs and shape < 0.2:
            ivs.append(rng.choice(ivs))  # duplicate
        elif ivs and shape < 0.4:
            outer_lo, outer_hi = rng.choice(ivs)  # nested inside another
            lo = rng.randint(outer_lo, outer_hi)
            ivs.append((lo, rng.randint(lo, outer_hi)))
        elif ivs and shape < 0.55:
            _, hi = rng.choice(ivs)  # same right end as another
            ivs.append((rng.randint(1, hi), hi))
        elif ivs and shape < 0.7:
            lo, _ = rng.choice(ivs)  # same left end as another
            ivs.append((lo, rng.randint(lo, length)))
        elif shape < 0.8:
            p = rng.randint(1, length)
            ivs.append((p, p))
        else:
            lo = rng.randint(1, length)
            ivs.append((lo, rng.randint(lo, length)))
    return ivs


def test_stab_intervals_matches_sorting_greedy():
    rng = random.Random(23)
    for _ in range(3000):
        length = rng.randint(1, 14)
        ivs = random_line_family(rng, length)
        assert stab_intervals(length, ivs) == sorting_greedy(length, ivs)


def random_cycle_arcs(rng, length):
    """(start, size) arcs that wrap, nest, repeat, hold one vertex, all but
    one, or all of them."""
    arcs = []
    for _ in range(rng.randint(1, 10)):
        shape = rng.random()
        if arcs and shape < 0.15:
            arcs.append(rng.choice(arcs))  # duplicate
        elif arcs and shape < 0.35:
            outer, outer_size = rng.choice(arcs)  # nested inside another
            off = rng.randint(0, outer_size - 1)
            arcs.append(((outer + off - 1) % length + 1, rng.randint(1, outer_size - off)))
        elif shape < 0.45:
            arcs.append((rng.randint(1, length), 1))
        elif shape < 0.55:
            arcs.append((rng.randint(1, length), length - 1))  # every vertex but one
        elif shape < 0.65:
            arcs.append((rng.randint(1, length), length))  # the whole cycle
        else:
            arcs.append((rng.randint(1, length), rng.randint(1, length - 1)))
    return arcs


def test_cycle_matches_trying_every_vertex():
    rng = random.Random(31)
    wrapping = whole = 0
    for _ in range(3000):
        length = rng.randint(3, 16)
        arcs = random_cycle_arcs(rng, length)
        wrapping += any(start + span - 1 > length for start, span in arcs)
        whole += any(span == length for _, span in arcs)
        size, pts = hit_paths_in_cycle(length, arcs)
        assert size == len(pts) == trying_every_vertex(length, arcs)[0]
        assert all(1 <= p <= length for p in pts)
        assert all(any(covers(a, p, length) for p in pts) for a in arcs)
    assert wrapping > 1000 and whole > 1000
