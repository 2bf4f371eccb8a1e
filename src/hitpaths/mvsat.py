"""Totally ordered regular signed CNF and its satisfiability machinery.

Variables x_1..x_n take values in [N]; literals constrain a variable with
x_i >= b or x_i <= b. Width-2 formulas are decided by translation to
classical 2-SAT (boolean variables B_{i,j} meaning "x_i >= j") followed by
a linear-time implication-graph solver.
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


@dataclass(frozen=True)
class BoolCnf:
    """Clauses of at most two DIMACS-style int literals (+v / -v)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def satisfies(f: SignedFormula, values) -> bool:
    return all(any(lit.holds(values[lit.var - 1]) for lit in clause) for clause in f.clauses)


def signed_to_classical(f: SignedFormula) -> tuple[BoolCnf, Callable[[list[bool]], tuple[int, ...]]]:
    """Encode a width-<=2 signed formula as classical 2-SAT.

    Boolean variable (i-1)*N + j stands for [x_i >= j]. A literal x_i >= b
    maps to that variable; x_i <= b maps to the negation of [x_i >= b+1],
    except that x_i <= N always holds and drops its whole clause. Chain
    clauses enforce monotonicity and units force [x_i >= 1]. The decoder
    reads x_i as the largest j with [x_i >= j] true.
    """
    n, nvals = f.num_vars, f.num_values

    def bvar(i: int, j: int) -> int:
        return (i - 1) * nvals + j

    out: list[tuple[int, ...]] = []
    for clause in f.clauses:
        if len(clause) > 2:
            raise ClauseTooWide(f"clause of width {len(clause)} (max 2)")
        lits = []
        dropped = False
        for var, op, bound in clause:
            if op == GE:
                lits.append(bvar(var, bound))
            elif bound == nvals:
                dropped = True
                break
            else:
                lits.append(-bvar(var, bound + 1))
        if not dropped:
            out.append(tuple(lits))
    for i in range(1, n + 1):
        out.append((bvar(i, 1),))
        for j in range(1, nvals):
            out.append((-bvar(i, j + 1), bvar(i, j)))

    def decode(model: list[bool]) -> tuple[int, ...]:
        values = []
        for i in range(1, n + 1):
            top = max(j for j in range(1, nvals + 1) if model[bvar(i, j)])
            values.append(top)
        return tuple(values)

    return BoolCnf(n * nvals, tuple(out)), decode


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
