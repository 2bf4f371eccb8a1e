"""Polynomial-time exact hitting subroutines on paths and cycles.

One greedy serves lines, petals and cycles: reach(length, intervals) is a
right-to-left pass giving, for each position, the smallest right end among
the intervals starting there or later, and chain walks the earliest-right-
endpoint greedy over it. stab_intervals is the chain from reach[1];
flower.canonical_table walks it from an index only when that slot is read;
and hit_paths_in_cycle walks it from each vertex of a shortest arc on the
cycle unrolled twice, in O(L + |arcs|) overall. A cycle arc is a plain
(start, size) pair, and a line interval a (lo, hi) pair naming positions
lo..hi (1-based, inclusive); reach rejects one that is reversed or out of
range.
"""

from __future__ import annotations

from itertools import islice

from .errors import ValidationError


def reach(length: int, intervals) -> list[int]:
    """Slot p (1..length + 1) holds the smallest right end among the (lo, hi)
    intervals with lo >= p, or length + 1 if there is none; O(L + |I|)."""
    r = [length + 1] * (length + 2)
    for lo, hi in intervals:
        if not (1 <= lo <= hi <= length):
            raise ValidationError(f"interval [{lo},{hi}] out of range for length {length}")
        if hi < r[lo]:
            r[lo] = hi
    for p in range(length - 1, 0, -1):
        if r[p + 1] < r[p]:
            r[p] = r[p + 1]
    return r


def chain(r: list[int], p: int, stop: int) -> list[int]:
    """The earliest-right-endpoint greedy over a reach array: p, r[p + 1],
    r[r[p + 1] + 1], ... while at most stop; each step takes the smallest
    right end among the intervals lying wholly right of the last pick."""
    picked = []
    while p <= stop:
        picked.append(p)
        p = r[p + 1]
    return picked


def pad(picked, length: int, budget: int) -> set[int]:
    """picked plus the highest unused positions of 1..length, up to budget in all."""
    positions = set(picked)
    free = (p for p in range(length, 0, -1) if p not in positions)
    return positions.union(islice(free, max(budget - len(positions), 0)))


def stab_intervals(length: int, intervals) -> tuple[int, frozenset[int]]:
    """Minimum set of positions meeting every (lo, hi) interval; greedy by right end."""
    r = reach(length, intervals)
    picked = chain(r, r[1], length)
    return len(picked), frozenset(picked)


def hit_paths_in_cycle(cycle_length: int, arcs) -> tuple[int, frozenset[int]]:
    """Exact minimum piercing of vertex arcs on a cycle in O(L + |arcs|).

    An arc is a (start, size) pair: the size positions start, start + 1, ...
    going round the cycle, with 1 <= size <= L. Some optimum contains a
    vertex x of a shortest arc A*, and once x is chosen the cycle opens
    into the path x+1..x+L-1, where the greedy by right end is optimal. The
    cycle is rotated so that A* is 1..|A*| and every arc is laid on a line
    of 2L from its rotated start on. An arc missing x cannot end before x
    (it would be shorter than A*), so it lies inside x+1..x+L-1 and the
    greedy after x is chain(r, x, x + L - 1); an arc through x, a
    whole-cycle arc among them, starts at or before x or ends at or after
    x + L, so it never sways that walk. Consecutive picks lie at least |A*|
    apart, so the |A*| walks take O(L) steps together. Among optima, the
    walk from the smallest x wins.
    """
    L = cycle_length
    if L < 3:
        raise ValidationError(f"cycle length {L} below 3")
    arcs = list(arcs)
    for start, size in arcs:
        if not (1 <= start <= L and 1 <= size <= L):
            raise ValidationError(f"arc ({start},{size}) out of range")
    if not arcs:
        return 0, frozenset()

    start, shortest = min(arcs, key=lambda a: a[1])
    shift = start - 1  # cycle position q lies at (q - 1 - shift) % L + 1
    starts = (((a - 1 - shift) % L + 1, size) for a, size in arcs)
    r = reach(2 * L, [(lo, lo + size - 1) for lo, size in starts])
    best = min((chain(r, x, x + L - 1) for x in range(1, shortest + 1)), key=len)
    return len(best), frozenset((q - 1 + shift) % L + 1 for q in best)
