"""Totally ordered regular signed CNF and its satisfiability machinery.

Variables x_1..x_n take values in [N]; literals constrain a variable with
x_i >= b or x_i <= b. Width-2 formulas are decided by translation to
classical 2-SAT, with one boolean [x_i >= j] per threshold j that some
literal names, so the translation's size is linear in the formula, not N,
followed by a linear-time implication-graph solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import ClauseTooWide, InvariantViolation, ValidationError

GE = ">="
LE = "<="


class SignedLiteral(NamedTuple):
    var: int
    op: str  # ">=" or "<="
    bound: int

    def holds(self, value: int) -> bool:
        return value >= self.bound if self.op == GE else value <= self.bound


@dataclass(frozen=True)
class SignedFormula:
    num_vars: int
    num_values: int
    clauses: tuple[tuple[SignedLiteral, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            for var, op, bound in clause:
                if not (1 <= var <= self.num_vars):
                    raise ValidationError(f"variable x_{var} out of range")
                if not (1 <= bound <= self.num_values):
                    raise ValidationError(f"bound {bound} out of range 1..{self.num_values}")
                if op not in (GE, LE):
                    raise ValidationError(f"bad literal op {op!r}")


class BoolCnf(NamedTuple):
    """Clauses of at most two DIMACS-style int literals (+v / -v)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def satisfies(f: SignedFormula, values) -> bool:
    return all(any(lit.holds(values[lit.var - 1]) for lit in clause) for clause in f.clauses)


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
    """Deterministic model (1-indexed list, slot 0 unused) or None if UNSAT."""
    nv = cnf.num_vars
    # literal node: positive v -> 2v, negative v -> 2v+1
    succ: list[list[int]] = [[] for _ in range(2 * nv + 2)]

    def node(lit: int) -> int:
        return 2 * lit if lit > 0 else 2 * (-lit) + 1

    def neg(nd: int) -> int:
        return nd ^ 1

    for clause in cnf.clauses:
        if len(clause) == 0:
            return None
        if len(clause) == 1:
            a = node(clause[0])
            succ[neg(a)].append(a)
        else:
            a, b = node(clause[0]), node(clause[1])
            succ[neg(a)].append(b)
            succ[neg(b)].append(a)

    # Iterative Tarjan; components are emitted in reverse topological order.
    index = [0] * (2 * nv + 2)
    low = [0] * (2 * nv + 2)
    comp = [-1] * (2 * nv + 2)
    on_stack = [False] * (2 * nv + 2)
    stack: list[int] = []
    counter = 1
    n_comps = 0
    for root in range(2, 2 * nv + 2):
        if index[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(succ[v]):
                w = succ[v][ei]
                ei += 1
                if not index[w]:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1
            if work:
                p, _ = work[-1]
                low[p] = min(low[p], low[v])

    model = [False] * (nv + 1)
    for v in range(1, nv + 1):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        model[v] = comp[2 * v] < comp[2 * v + 1]
    return model


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
