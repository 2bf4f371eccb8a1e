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

from dataclasses import dataclass
from typing import Optional

from .errors import (
    ContiguityViolation,
    FlowerShapeViolation,
    InvariantViolation,
    ValidationError,
)
from .instance_io import Solution, certificate_for
from .mvsat import GE, LE, SignedFormula, SignedLiteral, solve_tors2sat
from .treecycle import Interval, distinct_intervals, stab_intervals


@dataclass(frozen=True)
class FlowerInstance:
    core: int
    petals: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    core_links: frozenset[int]  # petal endpoints adjacent to the core
    # per petal, the (lo, hi) position spans of the targets inside it
    internal: tuple[tuple[tuple[int, int], ...], ...]
    # per target through the core, its (petal, fragment) pieces in path
    # order; () for a target that is the bare core
    crossing: tuple[tuple[tuple[int, Interval], ...], ...]


def make_flower(core, petals, budgets, paths, core_links=None) -> FlowerInstance:
    """Validate and freeze a flower instance, splitting every target at the
    core into per-petal internal spans and core-crossing fragments.

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

    pos = {}
    for i, p in enumerate(petals):
        for j, v in enumerate(p):
            pos[v] = (i, j + 1)

    def adjacent(u: int, v: int) -> bool:
        if u == core:
            return v in core_links
        if v == core:
            return u in core_links
        (pi, pj), (qi, qj) = pos[u], pos[v]
        return pi == qi and abs(pj - qj) == 1

    def span(run) -> tuple[int, int, int]:
        # a validated run of petal vertices is contiguous on one petal
        (i, a), (_, b) = pos[run[0]], pos[run[-1]]
        return i, min(a, b), max(a, b)

    frozen_paths = []
    internal: list[list[tuple[int, int]]] = [[] for _ in petals]
    crossing = []
    for idx, path in enumerate(paths):
        seq = tuple(path)
        if not seq or len(set(seq)) != len(seq):
            raise ValidationError(f"path {idx + 1} is empty or repeats a vertex")
        if any(v != core and v not in pos for v in seq):
            raise ValidationError(f"path {idx + 1} leaves the flower")
        if any(not adjacent(a, b) for a, b in zip(seq, seq[1:])):
            raise ValidationError(f"path {idx + 1} is not a path of the flower")
        frozen_paths.append(seq)
        if core not in seq:
            i, lo, hi = span(seq)
            internal[i].append((lo, hi))
            continue
        c = seq.index(core)
        frags = []
        for run in (seq[:c], seq[c + 1 :]):
            if run:
                i, lo, hi = span(run)
                if lo != 1 and hi != len(petals[i]):
                    raise FlowerShapeViolation("core-crossing fragment is not a prefix or suffix")
                frags.append((i, Interval(lo, hi)))
        crossing.append(tuple(frags))
    spans = tuple(map(tuple, internal))
    return FlowerInstance(
        core, petals, budgets, tuple(frozen_paths), core_links, spans, tuple(crossing)
    )


def canonical_solution(
    petal_length: int, internal_paths, budget: int, ell: int
) -> Optional[frozenset[int]]:
    """The canonical solution starting at position ell, or None (NIL).

    Start from {ell}, add the earliest-right-endpoint greedy points
    (stab_intervals) of the internal intervals {ell} misses, then pad with
    the highest unused positions at or right of ell. Defined only when the
    result has exactly `budget` positions and no internal interval lies
    strictly left of ell.
    """
    if not (1 <= ell <= petal_length):
        raise ValidationError(f"index {ell} out of range 1..{petal_length}")
    if any(iv.hi < ell for iv in internal_paths):
        return None
    # no interval lies left of ell, so {ell} misses exactly those right of it
    right = [iv for iv in internal_paths if iv.lo > ell]
    chosen = {ell} | stab_intervals(petal_length, right)[1]
    pad = petal_length
    while len(chosen) < budget and pad >= ell:
        chosen.add(pad)
        pad -= 1
    if len(chosen) != budget:
        return None
    if min(chosen) != ell:
        raise InvariantViolation("canonical solution does not start at its index")
    return frozenset(chosen)


def canonical_table(petal_length: int, internal_paths, budget: int) -> list[Optional[frozenset[int]]]:
    """Canonical solutions for every index; slot 0 unused."""
    table: list[Optional[frozenset[int]]] = [None]
    for ell in range(1, petal_length + 1):
        table.append(canonical_solution(petal_length, internal_paths, budget, ell))
    return table


def fragment_literal(
    petal_index: int, fragment: Interval, petal_length: int, table
) -> Optional[SignedLiteral]:
    """Literal over the petal's index variable characterizing when the
    canonical solution hits the given prefix or suffix fragment.

    Prefix [1,c]: hit iff the index is at most c. Suffix [c,L]: hit iff the
    rightmost canonical position reaches c, which by monotonicity happens
    from some smallest index on. Returns None when no well-defined
    canonical solution hits the fragment.
    """
    if fragment.lo == 1:
        return SignedLiteral(petal_index, LE, fragment.hi)
    if fragment.hi != petal_length:
        raise ValidationError(f"fragment [{fragment.lo},{fragment.hi}] is neither prefix nor suffix")
    for ell in range(1, petal_length + 1):
        sol = table[ell]
        if sol is not None and max(sol) >= fragment.lo:
            return SignedLiteral(petal_index, GE, ell)
    return None


def solve_flower(inst: FlowerInstance) -> Solution:
    """Decide the exact-budget hitting problem on a flower.

    Builds the signed 2-CNF over one index variable per petal: unit clauses
    bound each variable to its petal's well-defined canonical range, and
    each core-crossing target contributes a clause over the (at most two)
    petals holding its fragments. A satisfying assignment is decoded back
    into the union of the selected canonical solutions.
    """
    n = len(inst.petals)
    if () in inst.crossing:  # a target that is the bare core
        return Solution("NO")

    tables = []
    clauses: list[tuple[SignedLiteral, ...]] = []
    for i, petal in enumerate(inst.petals):
        # dedupe identical internal intervals; hitting one hits all copies
        ivs = distinct_intervals(inst.internal[i])
        table = canonical_table(len(petal), ivs, inst.budgets[i])
        tables.append(table)
        defined = [ell for ell in range(1, len(petal) + 1) if table[ell] is not None]
        if not defined:
            return Solution("NO")
        if defined != list(range(defined[0], defined[-1] + 1)):
            raise ContiguityViolation(f"petal {i + 1} has gaps in its canonical indices")
        clauses.append((SignedLiteral(i + 1, GE, defined[0]),))
        clauses.append((SignedLiteral(i + 1, LE, defined[-1]),))

    seen_clauses = set()
    for frags in inst.crossing:
        lits = []
        for i, iv in frags:
            lit = fragment_literal(i + 1, iv, len(inst.petals[i]), tables[i])
            if lit is not None:
                lits.append(lit)
        if not lits:
            return Solution("NO")
        key = tuple(sorted((l.var, l.op, l.bound) for l in lits))
        if key not in seen_clauses:
            seen_clauses.add(key)
            clauses.append(tuple(lits))

    num_values = max((len(p) for p in inst.petals), default=1)
    formula = SignedFormula(n, num_values, tuple(clauses))
    assignment = solve_tors2sat(formula)
    if assignment is None:
        return Solution("NO")

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
    cert = certificate_for(inst.paths, chosen)
    if cert is None:
        raise InvariantViolation("reconstructed solution misses a path")
    return Solution("YES", frozenset(chosen), cert)
