"""Totally ordered regular signed CNF and its satisfiability machinery.

Variables x_1..x_n take values in [N]; literals constrain a variable with
x_i >= b or x_i <= b. Width-2 formulas are decided by translation to
classical 2-SAT, with one boolean [x_i >= j] per threshold j that some
literal names, so the translation's size is linear in the formula, not N,
followed by a linear-time implication-graph solver.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, NamedTuple, Optional

from .errors import ClauseTooWide, InvariantViolation, ValidationError

GE = ">="
LE = "<="


class SignedFormula(namedtuple("SignedFormula", "num_vars num_values clauses")):
    """Clauses of (var, op, bound) literal triples over x_1..x_num_vars,
    each taking values 1..num_values; op is GE or LE."""

    __slots__ = ()

    def __new__(cls, num_vars: int, num_values: int, clauses):
        for clause in clauses:
            for var, op, bound in clause:
                if not (1 <= var <= num_vars):
                    raise ValidationError(f"variable x_{var} out of range")
                if not (1 <= bound <= num_values):
                    raise ValidationError(f"bound {bound} out of range 1..{num_values}")
                if op not in (GE, LE):
                    raise ValidationError(f"bad literal op {op!r}")
        return tuple.__new__(cls, (num_vars, num_values, clauses))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class BoolCnf(NamedTuple):
    """Clauses of at most two DIMACS-style int literals (+v / -v)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def satisfies(f: SignedFormula, values) -> bool:
    return all(
        any(values[v - 1] >= b if op == GE else values[v - 1] <= b for v, op, b in clause)
        for clause in f.clauses
    )


def signed_to_classical(f: SignedFormula) -> tuple[BoolCnf, Callable[[list[bool]], tuple[int, ...]]]:
    """Encode a width-<=2 signed formula as classical 2-SAT.

    A variable gets one boolean [x_i >= j] per threshold j that some literal
    names: j = b for x_i >= b, and j = b + 1 for x_i <= b, which maps to the
    negation of [x_i >= b + 1]. The booleans are numbered 1, 2, ... in
    (variable, threshold) order. A literal x_i >= 1 or x_i <= N always holds
    and drops its whole clause. Chain clauses link each variable's
    consecutive named thresholds, so the true ones form a prefix, and the
    decoder reads x_i as its largest named threshold whose boolean is true,
    else 1. The CNF has O(|clauses|) booleans and clauses, whatever N is.
    """
    n, nvals = f.num_vars, f.num_values
    kept = []  # per clause that can fail, its (var, threshold, is >=) literals
    for clause in f.clauses:
        if len(clause) > 2:
            raise ClauseTooWide(f"clause of width {len(clause)} (max 2)")
        lits = [(v, b, True) if op == GE else (v, b + 1, False) for v, op, b in clause]
        for _, j, _ in lits:
            if j == 1 or j > nvals:  # x >= 1 or x <= N: the clause always holds
                break
        else:
            kept.append(lits)
    named = sorted({(var, j) for lits in kept for var, j, _ in lits})
    bvar = {key: b for b, key in enumerate(named, 1)}
    out = [tuple([bvar[var, j] if ge else -bvar[var, j] for var, j, ge in lits]) for lits in kept]
    out += [(-bvar[hi], bvar[lo]) for lo, hi in zip(named, named[1:]) if lo[0] == hi[0]]

    def decode(model: list[bool]) -> tuple[int, ...]:
        values = [1] * n
        for (var, j), b in bvar.items():  # ascending, so the largest true threshold wins
            if model[b]:
                values[var - 1] = j
        return tuple(values)

    return BoolCnf(len(bvar), tuple(out)), decode


def solve_2sat(cnf: BoolCnf) -> Optional[list[bool]]:
    """Deterministic model (1-indexed list, slot 0 unused) or None if UNSAT.

    Literal v is node 2v and -v node 2v + 1, so node x ^ 1 is x's negation.
    A clause wider than two raises ClauseTooWide, and literal 0 or one
    naming a variable outside 1..num_vars raises ValidationError.
    """
    top = 2 * cnf.num_vars + 2
    succ: list[list[int]] = [[] for _ in range(top)]
    for clause in cnf.clauses:
        if len(clause) > 2:
            raise ClauseTooWide(f"clause of width {len(clause)} (max 2)")
        if clause:  # -a implies b, and -b implies a; a unit clause has a = b
            a, b = clause[0], clause[-1]
            a, b = 2 * a if a > 0 else 1 - 2 * a, 2 * b if b > 0 else 1 - 2 * b
            if not (1 < a < top and 1 < b < top):
                raise ValidationError(f"clause {clause} names a variable outside 1..{cnf.num_vars}")
            succ[a ^ 1].append(b)
            if len(clause) == 2:
                succ[b ^ 1].append(a)
    if () in cnf.clauses:
        return None

    # Iterative Tarjan; components are numbered in reverse topological order.
    # A node with an index and no component yet is exactly one on the stack.
    index = [0] * top
    low = [0] * top
    comp = [-1] * top
    stack: list[int] = []
    counter = n_comps = 0
    for root in range(2, top):
        if index[root]:
            continue
        index[root] = low[root] = counter = counter + 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    index[w] = low[w] = counter = counter + 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = n_comps
                    n_comps += 1
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[v])

    if any(comp[x] == comp[x + 1] for x in range(2, top, 2)):
        return None
    return [False] + [comp[x] < comp[x + 1] for x in range(2, top, 2)]


def solve_tors2sat(f: SignedFormula) -> Optional[tuple[int, ...]]:
    """Decide a width-<=2 signed formula; returns a verified assignment or None."""
    cnf, decode = signed_to_classical(f)
    model = solve_2sat(cnf)
    if model is None:
        return None
    values = decode(model)
    if not satisfies(f, values):
        raise InvariantViolation("decoded 2-SAT model does not satisfy the signed formula")
    return values
