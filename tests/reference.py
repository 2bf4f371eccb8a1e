"""Exhaustive reference solvers that the tests check the package against.

Small and slow on purpose: lexicographic enumeration of signed formulas,
exact-budget enumeration for flowers, and naive clique search. The package
itself never calls them.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from hitpaths.errors import CapExceeded, ValidationError
from hitpaths.flower import FlowerInstance
from hitpaths.graph import Graph
from hitpaths.instance_io import Solution, certificate_for
from hitpaths.mvsat import SignedFormula, SignedLiteral
from hitpaths.oracle import default_cap


def enumerate_signed(f: SignedFormula, cap: int = 10**8) -> Optional[tuple[int, ...]]:
    """First satisfying assignment in lexicographic order, or None.

    Scans the full N^n space in lexicographic order but prunes a prefix as
    soon as some clause has all its literals falsified by assigned
    variables; this never skips a satisfying assignment, so the returned
    one is still the lexicographically first.
    """
    n, nvals = f.num_vars, f.num_values
    if nvals**n > cap:
        raise CapExceeded(f"{nvals}^{n} exceeds cap {cap}")
    if any(len(c) == 0 for c in f.clauses):
        return None
    # clause index -> checked once its highest variable is assigned
    by_maxvar: list[list[tuple[SignedLiteral, ...]]] = [[] for _ in range(n + 1)]
    for clause in f.clauses:
        by_maxvar[max(lit.var for lit in clause)].append(clause)

    values = [0] * n  # 0 marks an unassigned variable
    depth = 0
    while depth >= 0:
        if depth == n:
            return tuple(values)
        values[depth] += 1
        if values[depth] > nvals:
            values[depth] = 0
            depth -= 1
        elif all(
            any(lit.holds(values[lit.var - 1]) for lit in clause)
            for clause in by_maxvar[depth + 1]
        ):
            depth += 1
    return None


def flower_bruteforce(inst: FlowerInstance, cap: Optional[int] = None) -> Solution:
    """Enumerate all exact-budget petal subsets; first hit combination wins."""
    if cap is None:
        cap = default_cap()
    work = math.prod(
        math.comb(len(p), b) for p, b in zip(inst.petals, inst.budgets)
    )
    if work > cap:
        raise CapExceeded(f"{work} combinations exceed cap {cap}")
    if any(b > len(p) for p, b in zip(inst.petals, inst.budgets)):
        return Solution("NO")
    pools = [
        list(itertools.combinations(sorted(p), b))
        for p, b in zip(inst.petals, inst.budgets)
    ]
    for combo in itertools.product(*pools):
        chosen = frozenset(v for part in combo for v in part)
        cert = certificate_for(inst.paths, chosen)
        if cert is not None:
            return Solution("YES", chosen, cert)
    return Solution("NO")


def has_k_clique(g: Graph, k: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive scan over k-subsets in lexicographic order."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    for combo in itertools.combinations(g.vertices(), k):
        # combinations keep the ascending order, so each pair is normalized
        if all(e in g.edges for e in itertools.combinations(combo, 2)):
            return True, combo
    return False, None
