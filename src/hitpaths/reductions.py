"""Hardness constructions as executable instance transformers, plus the
seeded random instance generator.

The three constructions (clique -> signed 3-SAT, signed 3-SAT -> hitting
3-leaf subtrees in a flower, signed 3-SAT -> hitting paths with feedback
vertex set {z, z'}) serve as the project's cross-validating test-corpus
factory rather than as complexity results.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Sequence
from typing import NamedTuple

from .errors import (
    ClauseTooWide,
    InfeasibleConfig,
    InvariantViolation,
    TooFewEdges,
    ValidationError,
)
from .graph import Graph
from .instance_io import KIND_PATHS, KIND_SUBGRAPHS, HitPathsInstance, make_instance
from .mvsat import GE, LE, SignedFormula
from .oracle import SetSystem, exact_min_hitting_set


def clique_to_signed3sat(g: Graph, k: int) -> SignedFormula:
    """Formula satisfiable iff g has a k-clique.

    Variables x_1..x_k pick clique vertices, pair variables pick connecting
    edges (numbered in sorted order). For each pair and edge index, four
    clauses pin the vertex variables to the edge's endpoints whenever the
    pair variable selects that edge. The truth value set is enlarged to
    cover vertex ids when the graph has fewer edges than vertices, with
    unit clauses keeping the pair variables inside the edge range.
    """
    if k < 2:
        raise ValidationError("k must be at least 2")
    edges = sorted(g.edges)
    num_edges = len(edges)
    if num_edges < math.comb(k, 2):
        raise TooFewEdges(f"{num_edges} edges cannot host {math.comb(k, 2)} clique pairs")
    nvals = max(num_edges, g.n)
    pair_var = {}
    nxt = k + 1
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            pair_var[(i, j)] = nxt
            nxt += 1
    clauses: list[tuple[tuple[int, str, int], ...]] = []
    for (i, j), e in pair_var.items():
        if nvals > num_edges:
            clauses.append(((e, LE, num_edges),))
        for ell, (p, q) in enumerate(edges, start=1):
            guard = []
            if ell > 1:
                guard.append((e, LE, ell - 1))
            if ell < num_edges:
                guard.append((e, GE, ell + 1))
            for vertex_var, endpoint in ((i, p), (j, q)):
                clauses.append(tuple(guard + [(vertex_var, LE, endpoint)]))
                clauses.append(tuple(guard + [(vertex_var, GE, endpoint)]))
    return SignedFormula(nxt - 1, nvals, tuple(clauses))


def _simplify_clauses(f: SignedFormula) -> list[tuple[tuple[int, str, int], ...]]:
    """Drop trivially satisfied clauses and absorb same-sign duplicates.

    A clause with x_i <= c1 and x_i >= c2 for c2 <= c1 + 1 always holds.
    Two same-sign literals on one variable collapse to the weaker bound, so
    the remaining fragments on any one petal are disjoint.
    """
    out = []
    for clause in f.clauses:
        if len(clause) > 3:
            raise ClauseTooWide(f"clause of width {len(clause)} (max 3)")
        weakest: dict[tuple[int, str], int] = {}
        for var, op, bound in clause:
            key = (var, op)
            if key not in weakest:
                weakest[key] = bound
            elif op == GE:
                weakest[key] = min(weakest[key], bound)
            else:
                weakest[key] = max(weakest[key], bound)
        trivial = any(
            (var, LE) in weakest
            and (var, GE) in weakest
            and weakest[(var, GE)] <= weakest[(var, LE)] + 1
            for var in {v for v, _ in weakest}
        )
        if trivial:
            continue
        out.append(tuple((v, op, b) for (v, op), b in sorted(weakest.items())))
    return out


def _variable_petals(f: SignedFormula):
    """What both 3-SAT constructions share: petal i is the path of vertices
    (i - 1) * N + 1 .. i * N, one per truth value, and is itself a target;
    each simplified clause becomes the petal fragments of its literals."""
    n, nvals = f.num_vars, f.num_values
    if n < 1:
        raise ValidationError("at least one variable required")
    petals = [range((i - 1) * nvals + 1, i * nvals + 1) for i in range(1, n + 1)]
    edges = [(v, v + 1) for petal in petals for v in petal[:-1]]

    def fragment(lit: tuple[int, str, int]) -> range:
        var, op, bound = lit
        petal = petals[var - 1]
        return petal[:bound] if op == LE else petal[bound - 1 :]

    clause_frags = [list(map(fragment, clause)) for clause in _simplify_clauses(f)]
    return petals, edges, [tuple(petal) for petal in petals], clause_frags


def signed3sat_to_subtree_instance(f: SignedFormula) -> HitPathsInstance:
    """Flower whose 3-leaf subtrees encode clauses; feasible at t = n iff SAT.

    Petal i has one vertex per truth value; a literal's prefix or suffix of
    the petal, joined through the core, forms the clause subgraph. Each full
    petal is also a target, pinning one pick per variable.
    """
    petals, edges, targets, clause_frags = _variable_petals(f)
    z = f.num_vars * f.num_values + 1
    for petal in petals:
        edges += {(z, petal[0]), (z, petal[-1])}
    targets += [tuple(sorted({z}.union(*frags))) for frags in clause_frags]
    return make_instance(Graph.build(z, edges), targets, f.num_vars, KIND_SUBGRAPHS)


def signed3sat_to_fvs2_instance(f: SignedFormula) -> HitPathsInstance:
    """Paths threaded through two universal vertices; feasible at t = n iff SAT.

    Clause fragments are visited in order, separated first by z and then by
    z'; removing {z, z'} leaves the disjoint variable paths, so the output
    has feedback vertex set of size two.
    """
    petals, edges, targets, clause_frags = _variable_petals(f)
    z = f.num_vars * f.num_values + 1
    edges += [(w, v) for w in (z, z + 1) for petal in petals for v in petal]
    for frags in clause_frags:
        walk = list(frags[0]) if frags else [z]
        for separator, frag in zip((z, z + 1), frags[1:]):
            walk += [separator, *frag]
        targets.append(tuple(walk))
    return make_instance(Graph.build(z + 1, edges), targets, f.num_vars, KIND_PATHS)


class GeneratorConfig(NamedTuple):
    seed: int
    k: int
    n: int
    num_paths: int
    max_path_len: int = 6
    t_policy: str = "random"  # random | opt | opt-1 | opt+1


class _NonEdges(Sequence):
    """The sorted pairs (u, v), u < v, that are not edges of a tree on
    1..n, indexed without listing them: row u holds the v above u that
    are not tree neighbours of u. random.sample reads only len and
    indexing, so it draws exactly what it draws from the listed pairs."""

    def __init__(self, n: int, tree_edges) -> None:
        self._above: dict[int, list[int]] = {}  # u -> sorted tree neighbours v > u
        for u, v in sorted(tree_edges):
            self._above.setdefault(u, []).append(v)
        self._starts = [0]  # self._starts[u - 1]: pairs in the rows before u
        for u in range(1, n):
            self._starts.append(self._starts[-1] + n - u - len(self._above.get(u, ())))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self):
            raise IndexError("non-edge index out of range")
        u = bisect.bisect_right(self._starts, i)
        v = u + 1 + i - self._starts[u - 1]
        for w in self._above.get(u, ()):
            if w <= v:
                v += 1
        return u, v


def gen_random_instance(cfg: GeneratorConfig) -> HitPathsInstance:
    """Seeded deterministic instance: random recursive tree plus k extra
    edges, targets from self-avoiding random walks, budget per policy."""
    if cfg.n < 1 or cfg.k < 0 or cfg.num_paths < 0 or cfg.max_path_len < 1:
        raise InfeasibleConfig("counts must be nonnegative and n, lengths positive")
    slack = math.comb(cfg.n, 2) - (cfg.n - 1)
    if cfg.k > slack:
        raise InfeasibleConfig(f"k={cfg.k} exceeds the {slack} available extra edges")
    rng = random.Random(cfg.seed)
    edges = set()
    for v in range(2, cfg.n + 1):
        u = rng.randint(1, v - 1)
        edges.add((u, v))
    edges.update(rng.sample(_NonEdges(cfg.n, edges), cfg.k))
    graph = Graph.build(cfg.n, edges)
    adj = graph.adjacency()

    paths: list[tuple[int, ...]] = []
    seen_paths: set[tuple[int, ...]] = set()
    for _ in range(cfg.num_paths):
        for _attempt in range(50):
            walk = [rng.randint(1, cfg.n)]
            goal = rng.randint(1, cfg.max_path_len)
            while len(walk) < goal:
                options = sorted(set(adj[walk[-1]]) - set(walk))
                if not options:
                    break
                walk.append(rng.choice(options))
            if walk[0] > walk[-1]:
                walk.reverse()
            key = tuple(walk)
            if key not in seen_paths:
                seen_paths.add(key)
                paths.append(key)
                break
        else:
            paths.append(key)  # tiny graphs may force duplicates

    if cfg.t_policy == "random":
        t = rng.randint(0, cfg.n)
    else:
        system = SetSystem.build(cfg.n, [frozenset(p) for p in paths])
        opt, _ = exact_min_hitting_set(system, cfg.n)
        if opt is None:
            raise InvariantViolation("generated targets admit no hitting set")
        if cfg.t_policy == "opt":
            t = opt
        elif cfg.t_policy == "opt-1":
            t = max(opt - 1, 0)
        elif cfg.t_policy == "opt+1":
            t = min(opt + 1, cfg.n)
        else:
            raise InfeasibleConfig(f"unknown t policy {cfg.t_policy!r}")
    return make_instance(graph, paths, t, KIND_PATHS)
