"""Polynomial-time exact hitting subroutines on paths and cycles.

stab_intervals is the classic earliest-right-endpoint greedy for piercing
intervals on a line; hit_paths_in_cycle tries every cycle vertex and solves
the remaining open path greedily.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Interval:
    """Positions lo..hi (1-based, inclusive) on a path component."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"interval [{self.lo},{self.hi}] is reversed")

    def contains(self, pos: int) -> bool:
        return self.lo <= pos <= self.hi


@dataclass(frozen=True)
class CycleArc:
    """Positions along a cycle from lo to hi going in increasing direction;
    lo > hi wraps around the end."""

    lo: int
    hi: int

    def contains(self, pos: int) -> bool:
        if self.lo <= self.hi:
            return self.lo <= pos <= self.hi
        return pos >= self.lo or pos <= self.hi

    def length(self, cycle_length: int) -> int:
        if self.lo <= self.hi:
            return self.hi - self.lo + 1
        return cycle_length - self.lo + 1 + self.hi


def distinct_intervals(spans) -> list[Interval]:
    """Intervals for (lo, hi) pairs, duplicates dropped, sorted by (lo, hi)."""
    return [Interval(lo, hi) for lo, hi in sorted(set(spans))]


def stab_intervals(length: int, intervals) -> tuple[int, frozenset[int]]:
    """Minimum set of positions meeting every interval; greedy by right end."""
    for iv in intervals:
        if not (1 <= iv.lo <= iv.hi <= length):
            raise ValidationError(f"interval [{iv.lo},{iv.hi}] out of range for length {length}")
    picked: list[int] = []
    last = 0
    for iv in sorted(intervals, key=lambda iv: (iv.hi, iv.lo)):
        if iv.lo > last:
            picked.append(iv.hi)
            last = iv.hi
    return len(picked), frozenset(picked)


def hit_paths_in_cycle(cycle_length: int, arcs) -> tuple[int, frozenset[int]]:
    """Exact minimum piercing of vertex arcs on a cycle.

    Tries every vertex as a solution member; deleting it opens the cycle
    into a path, where the remaining arcs are stabbed greedily. Among
    optima, the answer for the smallest tried vertex is returned.
    """
    if cycle_length < 3:
        raise ValidationError(f"cycle length {cycle_length} below 3")
    arcs = list(arcs)
    for arc in arcs:
        if not (1 <= arc.lo <= cycle_length and 1 <= arc.hi <= cycle_length):
            raise ValidationError(f"arc ({arc.lo},{arc.hi}) out of range")
        if arc.length(cycle_length) >= cycle_length:
            raise ValidationError("arc covers the whole cycle")
    if not arcs:
        return 0, frozenset()

    best: tuple[int, frozenset[int]] | None = None
    for v in range(1, cycle_length + 1):
        rest = [a for a in arcs if not a.contains(v)]
        # cut at v: position p maps to (p - v) mod L in 1..L-1
        ivs = [
            Interval((a.lo - v) % cycle_length, (a.hi - v) % cycle_length)
            for a in rest
        ]
        size, pts = stab_intervals(cycle_length - 1, ivs)
        back = frozenset({v} | {(q + v - 1) % cycle_length + 1 for q in pts})
        if best is None or 1 + size < best[0]:
            best = (1 + size, back)
    return best
