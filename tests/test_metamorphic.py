"""Metamorphic and differential checks of the FPT solver.

Each metamorphic check transforms a seeded agreement instance in a way whose
effect on the verdict is known and compares the solver's verdicts. The
differential check compares the solver with the exact hitting-set search on
larger graphs at small budgets.
"""

import random

import pytest

from hitpaths import Graph, make_instance, solve
from hitpaths.bench import _agreement_instance
from hitpaths.instance_io import unhit_targets
from hitpaths.oracle import reference_verdict
from hitpaths.reductions import GeneratorConfig, gen_random_instance

SEEDS = range(100)


def checked_verdict(inst):
    """The solver's verdict, after checking any YES certificate."""
    sol = solve(inst)
    if sol.verdict == "YES":
        assert len(sol.chosen) <= inst.t
        assert not unhit_targets(inst, sol.chosen)
        assert len(sol.certificate) == len(inst.paths)
        assert all(w in sol.chosen and w in p for w, p in zip(sol.certificate, inst.paths))
    return sol.verdict


def relabel(inst, rng):
    perm = list(inst.graph.vertices())
    rng.shuffle(perm)
    new = dict(zip(inst.graph.vertices(), perm))
    graph = Graph.build(inst.graph.n, [(new[u], new[v]) for u, v in inst.graph.edges])
    return make_instance(graph, [tuple(new[v] for v in p) for p in inst.paths], inst.t)


def reverse_targets(inst, rng):
    return make_instance(inst.graph, [p[::-1] for p in inst.paths], inst.t)


def attach_pendant_tree(inst, rng):
    n = inst.graph.n
    size = rng.randint(1, 4)
    edges = set(inst.graph.edges) | {(rng.randint(1, n), n + 1)}
    edges |= {(rng.randint(n + 1, v - 1), v) for v in range(n + 2, n + size + 1)}
    return make_instance(Graph.build(n + size, edges), inst.paths, inst.t)


def duplicate_target(inst, rng):
    if not inst.paths:
        return None
    return make_instance(inst.graph, inst.paths + (rng.choice(inst.paths),), inst.t)


def subdivide_unused_edge(inst, rng):
    used = {tuple(sorted(e)) for p in inst.paths for e in zip(p, p[1:])}
    free = sorted(inst.graph.edges - used)
    if not free:
        return None
    u, v = rng.choice(free)
    w = inst.graph.n + 1
    edges = (inst.graph.edges - {(u, v)}) | {(u, w), (v, w)}
    return make_instance(Graph.build(w, edges), inst.paths, inst.t)


@pytest.mark.parametrize(
    "transform",
    [relabel, reverse_targets, attach_pendant_tree, duplicate_target, subdivide_unused_edge],
)
def test_transform_keeps_the_verdict(transform):
    rng = random.Random(7)
    compared = 0
    for seed in SEEDS:
        inst = _agreement_instance(seed)
        other = transform(inst, rng)
        if other is None:
            continue
        assert checked_verdict(other) == checked_verdict(inst), seed
        compared += 1
    assert compared >= len(SEEDS) // 2


def test_larger_budget_keeps_yes():
    raised = 0
    for seed in SEEDS:
        inst = _agreement_instance(seed)
        if inst.t < inst.graph.n and checked_verdict(inst) == "YES":
            assert checked_verdict(make_instance(inst.graph, inst.paths, inst.t + 1)) == "YES"
            raised += 1
    assert raised > 0


def test_solver_matches_oracle_on_larger_graphs():
    rng = random.Random(71)
    verdicts = set()
    for seed in range(40):
        cfg = GeneratorConfig(
            seed=seed,
            k=seed % 5,
            n=rng.randint(40, 60),
            num_paths=rng.randint(2, 12),
            max_path_len=rng.randint(2, 8),
        )
        generated = gen_random_instance(cfg)
        inst = make_instance(generated.graph, generated.paths, rng.randint(0, 4))
        want = reference_verdict(inst).verdict
        assert checked_verdict(inst) == want, seed
        verdicts.add(want)
    assert verdicts == {"YES", "NO"}
