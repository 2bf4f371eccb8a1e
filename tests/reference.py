"""Exhaustive reference solvers that the tests check the package against.

Small and slow on purpose: lexicographic enumeration of signed formulas,
exact-budget enumeration for flowers, and naive clique search. Also the
earlier versions of rewritten package code: the dense 2-SAT
encoding with a boolean for every value of every variable, the two-pass
instance parse, the path targets checked one by one, the set-building
target checks, the canonical table that
builds every solution up front, the per-vertex component classification and
the 2-SAT solver with an edge cursor per frame. The package itself never
calls them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from hitpaths.errors import CapExceeded, ClauseTooWide, ParseError, ValidationError
from hitpaths.errors import InvariantViolation
from hitpaths.flower import FlowerInstance
from hitpaths.graph import Graph, path_components, path_in
from hitpaths.instance_io import (
    KIND_PATHS,
    KIND_SUBGRAPHS,
    HitPathsInstance,
    Solution,
    _ints,
    certificate_for,
    make_instance,
)
from hitpaths.mvsat import GE, BoolCnf, SignedFormula
from hitpaths.oracle import default_cap
from hitpaths.treecycle import chain, reach, stab_intervals


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
    by_maxvar: list[list[tuple[tuple[int, str, int], ...]]] = [[] for _ in range(n + 1)]
    for clause in f.clauses:
        by_maxvar[max(var for var, _, _ in clause)].append(clause)

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
            any(values[v - 1] >= b if op == GE else values[v - 1] <= b for v, op, b in clause)
            for clause in by_maxvar[depth + 1]
        ):
            depth += 1
    return None


def dense_signed_to_classical(
    f: SignedFormula,
) -> tuple[BoolCnf, Callable[[list[bool]], tuple[int, ...]]]:
    """The earlier signed_to_classical, with all N threshold booleans of
    every variable: boolean (i-1)*N + j stands for [x_i >= j]. A literal
    x_i >= b maps to that boolean; x_i <= b maps to the negation of
    [x_i >= b+1], except that x_i <= N always holds and drops its whole
    clause. Chain clauses enforce monotonicity and units force [x_i >= 1].
    The decoder reads x_i as the largest j with [x_i >= j] true."""
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


def content_lines_list(text: str) -> list[list[str]]:
    """The token lists of all content lines at once."""
    out = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        out.append(tokens)
    return out


def graph_build_two_pass(n: int, edges) -> Graph:
    """Graph.build validating into a set of pairs, then filling the
    neighbour sets from it."""
    if n < 0:
        raise ValidationError(f"negative vertex count {n}")
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValidationError(f"edge ({u},{v}) out of range 1..{n}")
        e = (u, v) if u < v else (v, u)
        if e in normalized:
            raise ValidationError(f"duplicate edge {e}")
        normalized.add(e)
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in normalized:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, len(normalized), adj)


def make_path_instance_one_by_one(graph: Graph, paths, t: int) -> HitPathsInstance:
    """make_instance of path targets, each checked by path_in on its own
    after make_instance has checked the ids and the budget."""
    make_instance(graph, [], t)
    frozen = []
    for idx, p in enumerate(paths):
        seq = tuple(p)
        if not path_in(graph.adjacency(), seq):
            raise ValidationError(f"target {idx + 1} is not a simple path of the graph")
        frozen.append(seq)
    return HitPathsInstance(graph, tuple(frozen), t)


def parse_instance_two_pass(text: str) -> HitPathsInstance:
    """parse_instance over the list of all content lines and a list of all
    edges, with the adjacency built after the edges are validated."""
    lines = content_lines_list(text)
    if not lines or lines[0][0] != "p":
        raise ParseError("missing 'p' header line")
    header = lines[0]
    if len(header) != 6 or header[1] not in ("hitpaths", "hitsub"):
        raise ParseError(f"bad header {' '.join(header)!r}")
    kind = KIND_PATHS if header[1] == "hitpaths" else KIND_SUBGRAPHS
    n, m, p, t = _ints(header[2:], "header field")
    end_tokens: list[str] = []
    size_tokens: list[str] = []
    vertex_tokens: list[str] = []
    cuts = [0]
    for tokens in lines[1:]:
        tag = tokens[0]
        if tag == "e":
            if len(tokens) != 3:
                raise ParseError(f"bad edge line {' '.join(tokens)!r}")
            end_tokens += tokens[1:]
        elif tag == "s":
            if len(tokens) < 2:
                raise ParseError(f"bad target line {' '.join(tokens)!r}")
            size_tokens.append(tokens[1])
            vertex_tokens += tokens[2:]
            cuts.append(len(vertex_tokens))
        else:
            raise ParseError(f"unknown line tag {tag!r}")
    ends = _ints(end_tokens, "vertex")
    vs = _ints(vertex_tokens, "vertex")
    targets = []
    for k, a, b in zip(_ints(size_tokens, "target size"), cuts, cuts[1:]):
        if k != b - a:
            raise ParseError(f"target line announces {k} vertices, has {b - a}")
        targets.append(tuple(vs[a:b]))
    edges = list(zip(ends[::2], ends[1::2]))
    if len(edges) != m:
        raise ParseError(f"header announces {m} edges, found {len(edges)}")
    if len(targets) != p:
        raise ParseError(f"header announces {p} targets, found {len(targets)}")
    return make_instance(graph_build_two_pass(n, edges), targets, t, kind)


def unhit_targets_sets(inst: HitPathsInstance, chosen) -> list[int]:
    """unhit_targets building one intersection set per target."""
    cs = set(chosen)
    return [i for i, p in enumerate(inst.paths) if not cs.intersection(p)]


def certificate_for_sets(paths, chosen) -> Optional[tuple[int, ...]]:
    """certificate_for building one intersection set per target."""
    cs = set(chosen)
    cert = []
    for p in paths:
        hits = cs.intersection(p)
        if not hits:
            return None
        cert.append(min(hits))
    return tuple(cert)


def eager_canonical_table(petal_length: int, internal_paths, budget: int):
    """The earlier canonical_table, which builds every defined solution up
    front in O(L + |I| + output): (slots, first, maxima), with slot ell the
    solution at index ell or None and slot 0 unused."""
    length = petal_length
    r = reach(length, internal_paths)
    cnt = [0] * (length + 2)
    for p in range(length, 0, -1):
        cnt[p] = 1 + cnt[r[p + 1]]
    slots, first, maxima = [None], 0, []
    for ell in range(1, length + 1):
        if ell > r[1] or not cnt[ell] <= budget <= length - ell + 1:
            slots.append(None)
            continue
        chosen = set(chain(r, ell, length))
        pad = length
        while len(chosen) < budget:
            chosen.add(pad)
            pad -= 1
        if min(chosen) != ell:
            raise InvariantViolation("canonical solution does not start at its index")
        if not maxima:
            first = ell
        maxima.append(max(chosen))
        slots.append(frozenset(chosen))
    return slots, first, maxima


def classifying_component_budgets(g: Graph, s, paths) -> list[tuple]:
    """The earlier component_budgets, which looks up the component of every
    target vertex and counts each component's share with list.count. Per
    component: the component, its opt, its greedy positions and the indices
    of the targets holding all its vertices."""
    comps = path_components(g, set(s))
    comp_of = {}
    where = {}
    for ci, comp in enumerate(comps):
        comp_of.update(dict.fromkeys(comp.vertices, ci))
        where.update(zip(comp.vertices, range(1, len(comp.vertices) + 1)))
    spans: list[list[tuple[int, int]]] = [[] for _ in comps]
    covered_by: list[set[int]] = [set() for _ in comps]
    for i, p in enumerate(paths):
        cids = list(map(comp_of.get, p))
        for ci in set(cids):
            if ci is None:
                continue
            count = cids.count(ci)
            if count == len(cids):
                a, b = where[p[0]], where[p[-1]]
                spans[ci].append((a, b) if a <= b else (b, a))
            if count == len(comps[ci].vertices):
                covered_by[ci].add(i)
    out = []
    for comp, comp_spans, cover in zip(comps, spans, covered_by):
        opt, pts = stab_intervals(len(comp.vertices), comp_spans)
        out.append((comp, opt, pts, frozenset(cover)))
    return out


def cursor_solve_2sat(cnf: BoolCnf) -> Optional[list[bool]]:
    """The earlier solve_2sat, whose iterative Tarjan keeps an on-stack flag
    and an edge cursor per frame. It reads only the first two literals of a
    clause and checks none of them."""
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
