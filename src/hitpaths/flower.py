"""Polynomial solver for exact-budget path hitting in flower graphs.

A flower has a core vertex z whose removal leaves disjoint paths (petals)
with interiors not adjacent to z. Every petal admits a family of canonical
solutions indexed by their leftmost position; the well-defined indices form
a contiguous range and their rightmost positions are monotone in the index.
That structure lets each target path crossing the core be translated into a
signed 2-clause over per-petal index variables, so the whole problem
reduces to signed 2-SAT.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple, Optional

from .errors import InvariantViolation, ValidationError
from .instance_io import Solution
from .mvsat import GE, LE, SignedFormula, solve_tors2sat
from .treecycle import chain, pad, reach


NO = Solution("NO")  # immutable, so every NO answer shares it


class FlowerInstance(NamedTuple):
    core: int
    petals: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]
    # the targets; fpt.build_flower_branch lists the internal ones petal by petal, then
    # those through the core. Only solve_flower's final all-paths-hit check reads them
    paths: tuple[tuple[int, ...], ...]
    core_links: frozenset[int]  # petal endpoints adjacent to the core
    # per petal, the (lo, hi) position spans of the targets inside it
    internal: tuple[tuple[tuple[int, int], ...], ...]
    # per target through the core, its (petal, (lo, hi)) fragments in path
    # order; () for a target that is the bare core
    crossing: tuple[tuple[tuple[int, tuple[int, int]], ...], ...]


def make_flower(core, petals, budgets, paths, core_links=None) -> FlowerInstance:
    """Validate and freeze a flower instance, splitting every target at the
    core into per-petal internal spans and core-crossing fragments.

    The petal vertices get slots on one line, petal after petal, with one
    free slot between petals. A target is then checked in bulk: a run of it
    outside the core is a path of the flower exactly when it equals the
    stretch of one petal between the positions of its two ends, read
    forwards or reversed (one tuple comparison), and a step into or out of
    the core must land on a core link. A crossing run thus ends at a petal
    end, so its fragment is a prefix or a suffix.

    When core_links is omitted, every petal endpoint is taken to be adjacent
    to the core (the fully wired flower).
    """
    petals = tuple(tuple(p) for p in petals)
    budgets = tuple(budgets)
    if len(budgets) != len(petals):
        raise ValidationError("one budget per petal required")
    if any(b < 1 for b in budgets):
        raise ValidationError("budgets must be at least 1")
    seen: set[int] = {core}
    for p in petals:
        if not p:
            raise ValidationError("empty petal")
        for v in p:
            if v in seen:
                raise ValidationError(f"vertex {v} appears twice in the flower")
            seen.add(v)
    endpoints = {p[0] for p in petals} | {p[-1] for p in petals}
    if core_links is None:
        core_links = endpoints
    core_links = frozenset(core_links)
    if not core_links <= endpoints:
        raise ValidationError("core link that is not a petal endpoint")

    # petal i's position j sits at slot starts[i] + j
    starts, slot, at = [], {}, 0
    for p in petals:
        starts.append(at)
        for v in p:
            at += 1
            slot[v] = at
        at += 1

    def piece(run) -> Optional[tuple[int, int, int]]:
        """(petal, lo, hi) of a run equal to a petal's stretch either way round, else None."""
        a, b = slot[run[0]], slot[run[-1]]
        lo, hi = min(a, b), max(a, b)
        i = bisect_left(starts, lo) - 1
        lo, hi = lo - starts[i], hi - starts[i]
        if len(run) > 1:
            stretch = petals[i][lo - 1 : hi]
            if run != (stretch if a < b else stretch[::-1]):
                return None
        return i, lo, hi

    frozen = list(map(tuple, paths))
    internal: list[list[tuple[int, int]]] = [[] for _ in petals]
    crossing = []
    for idx, seq in enumerate(frozen, 1):
        if seq == (core,):  # the bare core passes every check
            crossing.append(())
            continue
        if not seq or len(set(seq)) != len(seq):
            raise ValidationError(f"path {idx} is empty or repeats a vertex")
        if not seen.issuperset(seq):
            raise ValidationError(f"path {idx} leaves the flower")
        crosses = core in seq
        if crosses:
            c = seq.index(core)
            near = seq[max(c - 1, 0) : c] + seq[c + 1 : c + 2]  # must be core links
            pieces = list(map(piece, filter(None, (seq[:c], seq[c + 1 :]))))
        else:
            near, pieces = (), [piece(seq)]
        if None in pieces or not core_links.issuperset(near):
            raise ValidationError(f"path {idx} is not a path of the flower")
        if crosses:
            crossing.append(tuple([(i, (lo, hi)) for i, lo, hi in pieces]))
        else:
            internal[pieces[0][0]].append(pieces[0][1:])
    spans = tuple(map(tuple, internal))
    return FlowerInstance(core, petals, budgets, tuple(frozen), core_links, spans, tuple(crossing))


class CanonicalTable(Sequence):
    """canonical_table's result, indexed like a list: slot ell holds the
    canonical solution at index ell or None, slot 0 is unused, and a solution
    is built only when its slot is read. `first` is the smallest defined
    index (0 if none) and `maxima` the rightmost positions of the defined
    solutions in index order."""

    def __init__(self, length: int, budget: int, r: list[int], first: int, maxima: list[int]):
        self.length, self.budget, self.reach = length, budget, r
        self.first, self.maxima = first, maxima

    def __len__(self) -> int:
        return self.length + 1

    def __getitem__(self, ell: int) -> Optional[frozenset[int]]:
        if not 0 <= ell <= self.length:
            raise IndexError(f"slot {ell} out of range")
        j = ell - self.first
        if not 0 <= j < len(self.maxima):
            return None
        chosen = pad(chain(self.reach, ell, self.length), self.length, self.budget)
        if min(chosen) != ell or max(chosen) != self.maxima[j]:
            raise InvariantViolation(
                f"canonical solution {ell} does not run from {ell} to {self.maxima[j]}"
            )
        return frozenset(chosen)


def canonical_table(petal_length: int, internal_paths, budget: int) -> CanonicalTable:
    """Canonical solutions for every index in O(L + |I|), each built only
    when its slot is read.

    The solution at ell is {ell} plus the earliest-right-endpoint greedy
    over the (lo, hi) intervals right of ell, which is chain(r, ell, L) over
    r = reach(L, intervals). It is padded with the highest unused positions
    at or right of ell, and defined only when it then has exactly `budget`
    positions and no interval lies strictly left of ell (ell <= r[1]).
    cnt[p] is the length of the chain from p and end[p] its last pick, so a
    defined solution ends at end[ell] when its chain fills the budget and
    at L when it is padded. The defined indices must be contiguous.
    """
    length = petal_length
    r = reach(length, internal_paths)
    cnt = [0] * (length + 2)
    end = [0] * (length + 2)
    for p in range(length, 0, -1):
        q = r[p + 1]
        cnt[p] = 1 + cnt[q]
        end[p] = end[q] or p
    top = min(r[1], length, length + 1 - budget)  # the last index that can be defined
    maxima: list[int] = []
    for ell in range(1, top + 1):
        c = cnt[ell]
        if c <= budget:
            maxima.append(end[ell] if c == budget else length)
        elif maxima:
            raise InvariantViolation("the canonical indices have gaps")
    return CanonicalTable(length, budget, r, top + 1 - len(maxima) if maxima else 0, maxima)


def fragment_literal(
    petal_index: int, fragment: tuple[int, int], table: CanonicalTable
) -> Optional[tuple[int, str, int]]:
    """The (var, op, bound) literal over the petal's index variable that
    holds exactly when the canonical solution hits the (lo, hi) prefix or
    suffix fragment, which must satisfy 1 <= lo <= hi <= L.

    Prefix [1,c]: hit iff the index is at most c. Suffix [c,L]: hit iff the
    rightmost canonical position reaches c, which by monotonicity happens
    from some smallest index on, found by bisecting the table's maxima.
    Returns None when no well-defined canonical solution hits the fragment.
    """
    lo, hi = fragment
    if not 1 <= lo <= hi <= table.length:
        raise ValidationError(f"fragment [{lo},{hi}] out of range for length {table.length}")
    if lo == 1:
        return petal_index, LE, hi
    if hi != table.length:
        raise ValidationError(f"fragment [{lo},{hi}] is neither prefix nor suffix")
    j = bisect_left(table.maxima, lo)
    return (petal_index, GE, table.first + j) if j < len(table.maxima) else None


def solve_flower(inst: FlowerInstance) -> Solution:
    """Decide the exact-budget hitting problem on a flower.

    Builds the signed 2-CNF over one index variable per petal: unit clauses
    bound each variable to its petal's well-defined canonical range, and
    each core-crossing target contributes a clause over the (at most two)
    petals holding its fragments. A variable ranges over its petal's
    indices (N is the longest petal), and the 2-SAT translation gives it one
    boolean per threshold its literals name. A satisfying assignment is
    decoded back into the union of the selected canonical solutions, one
    table slot read per petal. The answer carries no certificate:
    fpt._finish builds the instance's own.
    """
    n = len(inst.petals)
    if () in inst.crossing:  # a target that is the bare core
        return NO

    tables = []
    clauses: list[tuple[tuple[int, str, int], ...]] = []
    for i, petal in enumerate(inst.petals):
        table = canonical_table(len(petal), inst.internal[i], inst.budgets[i])
        tables.append(table)
        if not table.maxima:
            return NO
        clauses.append(((i + 1, GE, table.first),))
        clauses.append(((i + 1, LE, table.first + len(table.maxima) - 1),))

    seen_clauses = set()
    for frags in inst.crossing:
        lits = [fragment_literal(i + 1, iv, tables[i]) for i, iv in frags]
        lits = [lit for lit in lits if lit is not None]
        if not lits:
            return NO
        key = tuple(sorted(lits))
        if key not in seen_clauses:
            seen_clauses.add(key)
            clauses.append(tuple(lits))

    longest = max(map(len, inst.petals), default=1)
    assignment = solve_tors2sat(SignedFormula(n, longest, tuple(clauses)))
    if assignment is None:
        return NO

    chosen: set[int] = set()
    for i, petal in enumerate(inst.petals):
        sol = tables[i][assignment[i]]
        if sol is None:
            raise InvariantViolation(f"assignment picked an undefined index on petal {i + 1}")
        chosen.update(petal[p - 1] for p in sol)

    # independent verification: budgets exact, core excluded, all paths hit
    if inst.core in chosen:
        raise InvariantViolation("core vertex ended up in the solution")
    for i, petal in enumerate(inst.petals):
        if len(chosen.intersection(petal)) != inst.budgets[i]:
            raise InvariantViolation(f"budget violated on petal {i + 1}")
    if any(map(chosen.isdisjoint, inst.paths)):
        raise InvariantViolation("reconstructed solution misses a path")
    return Solution("YES", frozenset(chosen))
