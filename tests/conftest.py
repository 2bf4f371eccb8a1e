"""Shared randomized-test helpers: brute-force baselines and generators."""

from __future__ import annotations

import itertools
import random

from hitpaths import (
    FlowerInstance,
    Graph,
    HitPathsInstance,
    SignedFormula,
    make_flower,
    make_instance,
)
from hitpaths.mvsat import GE, LE
from hitpaths.reductions import GeneratorConfig, gen_random_instance


def brute_min_hitting(n: int, sets) -> int | None:
    """Smallest hitting-set size by exhaustive subset scan, None if unhittable."""
    families = [set(s) for s in sets]
    if any(not s for s in families):
        return None
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            cs = set(combo)
            if all(cs & fam for fam in families):
                return size
    return None


def covers(arc, pos: int, cycle_length: int) -> bool:
    """Whether the (start, size) arc of a cycle of cycle_length positions
    holds pos."""
    start, size = arc
    return (pos - start) % cycle_length < size


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.build(n, edges)


def random_signed_formula(
    rng: random.Random, max_n: int, max_vals: int, max_width: int, max_clauses: int = 6
) -> SignedFormula:
    n = rng.randint(1, max_n)
    nvals = rng.randint(1, max_vals)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, max_width)
        lits = tuple(
            (rng.randint(1, n), rng.choice([GE, LE]), rng.randint(1, nvals))
            for _ in range(width)
        )
        clauses.append(lits)
    return SignedFormula(n, nvals, tuple(clauses))


def random_flower(rng: random.Random, max_petals: int = 5, max_len: int = 7, max_b: int = 3) -> FlowerInstance:
    num_petals = rng.randint(1, max_petals)
    petals = []
    nxt = 1
    for _ in range(num_petals):
        length = rng.randint(1, max_len)
        petals.append(tuple(range(nxt, nxt + length)))
        nxt += length
    core = nxt
    budgets = [rng.randint(1, min(max_b, len(p))) for p in petals]

    paths = []
    for _ in range(rng.randint(0, 6)):
        shape = rng.random()
        i = rng.randrange(num_petals)
        petal = petals[i]
        if shape < 0.5:  # internal interval
            lo = rng.randint(1, len(petal))
            hi = rng.randint(lo, len(petal))
            paths.append(petal[lo - 1 : hi])
        elif shape < 0.65:  # suffix then core
            c = rng.randint(1, len(petal))
            paths.append(petal[c - 1 :] + (core,))
        elif shape < 0.8:  # core then prefix
            d = rng.randint(1, len(petal))
            paths.append((core,) + petal[:d])
        elif shape < 0.95:  # suffix, core, prefix of another petal
            j = rng.randrange(num_petals)
            if j == i:
                c = rng.randint(1, len(petal))
                paths.append(petal[c - 1 :] + (core,))
            else:
                c = rng.randint(1, len(petal))
                d = rng.randint(1, len(petals[j]))
                paths.append(petal[c - 1 :] + (core,) + petals[j][:d])
        else:
            paths.append((core,))
    return make_flower(core, petals, budgets, paths)


def disconnected_instance(rng: random.Random) -> HitPathsInstance:
    """2-4 vertex-disjoint parts under one random relabelling: bare cycles of
    3-8 vertices with 0-3 arc targets, and gen_random_instance parts of k
    0-2 with their own targets. The budget is at most the target count."""
    edges, targets, n = [], [], 0
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            size = rng.randint(3, 8)
            ring = [n + i for i in range(1, size + 1)]
            edges += [(ring[i - 1], ring[i]) for i in range(size)]
            for _ in range(rng.randint(0, 3)):
                start, length = rng.randrange(size), rng.randint(1, size)
                targets.append(tuple(ring[(start + j) % size] for j in range(length)))
        else:
            k = rng.randint(0, 2)
            part = gen_random_instance(GeneratorConfig(
                seed=rng.randrange(10**9), k=k, n=rng.randint(k + 3, 10),
                num_paths=rng.randint(0, 4), max_path_len=rng.randint(1, 5),
            ))
            size = part.graph.n
            edges += [(u + n, w + n) for u, w in part.graph.edges]
            targets += [tuple(v + n for v in p) for p in part.paths]
        n += size
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = [(label[u - 1], label[w - 1]) for u, w in edges]
    targets = [tuple(label[v - 1] for v in p) for p in targets]
    rng.shuffle(targets)
    return make_instance(Graph.build(n, edges), targets, rng.randint(0, min(n, len(targets))))
