import math
import random
import time

import pytest

from hitpaths import (
    GE,
    LE,
    Graph,
    InfeasibleConfig,
    SignedFormula,
    TooFewEdges,
    cyclomatic_number,
    high_degree_set,
    make_instance,
    parse_signed_formula,
    write_instance,
    write_signed_formula,
)
from hitpaths.graph import path_components
from hitpaths.oracle import SetSystem, exact_min_hitting_set
from hitpaths import reductions
from hitpaths.reductions import (
    GeneratorConfig,
    _NonEdges,
    clique_to_signed3sat,
    gen_random_instance,
    signed3sat_to_fvs2_instance,
    signed3sat_to_subtree_instance,
)

from conftest import random_graph, random_signed_formula
from reference import enumerate_signed, has_k_clique


def hitting_feasible(inst):
    system = SetSystem.build(inst.graph.n, [frozenset(p) for p in inst.paths])
    size, _ = exact_min_hitting_set(system, inst.t)
    return size is not None


def test_clique_reduction_on_triangle():
    tri = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
    f = clique_to_signed3sat(tri, 3)
    assert f.num_vars == 6  # three vertex picks, three pair picks
    assert enumerate_signed(f) is not None


def test_clique_reduction_needs_edges():
    path = Graph.build(3, [(1, 2), (2, 3)])
    with pytest.raises(TooFewEdges):
        clique_to_signed3sat(path, 3)


def test_clique_reduction_sparse_graph_with_many_vertices():
    # more vertices than edges: the truth value set covers vertex ids
    g = Graph.build(6, [(4, 5), (5, 6), (4, 6)])
    f = clique_to_signed3sat(g, 3)
    assert f.num_values == 6
    assert enumerate_signed(f) is not None
    g2 = Graph.build(6, [(1, 4), (2, 5), (3, 6)])
    assert enumerate_signed(clique_to_signed3sat(g2, 3)) is None


def test_clique_reduction_matches_bruteforce():
    rng = random.Random(79)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 6))
        want, _ = has_k_clique(g, 3)
        try:
            f = clique_to_signed3sat(g, 3)
        except TooFewEdges:
            assert not want
            continue
        assert (enumerate_signed(f) is not None) == want


def sat3_cases():
    rng = random.Random(83)
    cases = [
        SignedFormula(1, 1, ()),
        SignedFormula(1, 2, ((),)),
        SignedFormula(2, 3, (((1, GE, 2), (2, LE, 1)),)),
        # same-sign duplicate literals on one variable
        SignedFormula(1, 4, (((1, GE, 2), (1, GE, 4)),)),
        SignedFormula(
            1, 3, (((1, GE, 3),), ((1, LE, 1),))
        ),
    ]
    cases += [random_signed_formula(rng, 3, 4, 3) for _ in range(80)]
    return cases


@pytest.mark.parametrize("builder", [signed3sat_to_subtree_instance, signed3sat_to_fvs2_instance])
def test_sat3_reductions_preserve_satisfiability(builder):
    for f in sat3_cases():
        inst = builder(f)
        assert inst.t == f.num_vars
        want = enumerate_signed(f) is not None
        assert hitting_feasible(inst) == want


def test_constructions_read_and_write_plain_triples():
    built = SignedFormula(
        3, 4, (((1, GE, 2), (2, LE, 1), (3, GE, 4)), ((1, LE, 3), (1, GE, 2)), ((2, GE, 2),))
    )
    text = "p scnf 3 4 3\n+1:2 -2:1 +3:4 0\n-1:3 +1:2 0\n+2:2 0\n"
    rng = random.Random(89)
    pairs = [(built, parse_signed_formula(text))]
    for f in [random_signed_formula(rng, 3, 4, 3) for _ in range(20)]:
        pairs.append((f, parse_signed_formula(write_signed_formula(f))))
    for f, parsed in pairs:
        for builder in (signed3sat_to_subtree_instance, signed3sat_to_fvs2_instance):
            assert builder(f) == builder(parsed)
    clique = clique_to_signed3sat(Graph.build(4, [(1, 2), (1, 3), (2, 3), (3, 4)]), 3)
    assert all(type(lit) is tuple for clause in clique.clauses for lit in clause)
    assert parse_signed_formula(write_signed_formula(clique)) == clique


def test_fvs2_outputs_have_feedback_pair():
    for f in sat3_cases()[:30]:
        inst = signed3sat_to_fvs2_instance(f)
        z_prime = inst.graph.n
        z = z_prime - 1
        keep = set(range(1, z))
        edges = [(u, v) for u, v in inst.graph.edges if u in keep and v in keep]
        residual = Graph.build(inst.graph.n, edges)
        assert cyclomatic_number(residual) == 0


def test_generator_is_deterministic():
    cfg = GeneratorConfig(seed=1, k=2, n=10, num_paths=8)
    a = write_instance(gen_random_instance(cfg))
    b = write_instance(gen_random_instance(cfg))
    assert a == b


def test_generator_respects_parameters():
    rng = random.Random(89)
    for seed in range(40):
        k = rng.randint(0, 4)
        n = rng.randint(max(3, k + 1), 14)
        while (n * (n - 1)) // 2 - (n - 1) < k:
            n += 1
        cfg = GeneratorConfig(seed=seed, k=k, n=n, num_paths=rng.randint(0, 8))
        inst = gen_random_instance(cfg)
        assert inst.graph.n == n
        assert cyclomatic_number(inst.graph) == k
        assert len(inst.paths) == cfg.num_paths
        assert all(len(p) <= cfg.max_path_len for p in inst.paths)


def test_generator_t_policies():
    for policy, expect in (("opt", "YES"), ("opt+1", "YES"), ("opt-1", None)):
        cfg = GeneratorConfig(seed=5, k=2, n=10, num_paths=6, t_policy=policy)
        inst = gen_random_instance(cfg)
        feasible = hitting_feasible(inst)
        if expect == "YES":
            assert feasible
        else:
            # opt-1 is infeasible unless opt was already 0
            assert feasible == (inst.t == 0 and not inst.paths)


def listed_non_edges(n, tree_edges):
    """The pool the generator drew its extra edges from before: every
    non-edge, listed and sorted, O(n^2)."""
    return sorted(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in tree_edges
    )


def sample_list_limit(k):
    """Largest population random.sample copies into a list for k draws."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def test_non_edges_match_the_listed_pool():
    rng = random.Random(83)
    listed_path = indexed_path = many_draws = 0
    for _ in range(1500):
        n = rng.randint(1, 60)
        tree = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        pool = listed_non_edges(n, tree)
        lazy = _NonEdges(n, tree)
        assert len(lazy) == len(pool) and list(lazy) == pool
        for past in (-1, len(pool)):
            with pytest.raises(IndexError):
                lazy[past]
        k = rng.randint(0, min(30, len(pool)))
        seed = rng.random()
        a, b = random.Random(seed), random.Random(seed)
        assert a.sample(pool, k) == b.sample(lazy, k)
        assert a.random() == b.random()  # the later draws are unchanged too
        listed_path += len(pool) <= sample_list_limit(k)
        indexed_path += len(pool) > sample_list_limit(k)
        many_draws += k > 5
    assert min(listed_path, indexed_path, many_draws) > 200


def test_generator_matches_the_listed_pool(monkeypatch):
    rng = random.Random(97)
    configs = []
    for seed in range(400):
        n = rng.randint(1, 40)
        k = rng.randint(0, min(12, (n * (n - 1)) // 2 - (n - 1)))
        policy = rng.choice(["random", "opt", "opt+1"]) if n <= 16 else "random"
        configs.append(GeneratorConfig(seed, k, n, rng.randint(0, 10), rng.randint(1, 6), policy))
    lazy = [write_instance(gen_random_instance(cfg)) for cfg in configs]
    monkeypatch.setattr(reductions, "_NonEdges", listed_non_edges)
    assert lazy == [write_instance(gen_random_instance(cfg)) for cfg in configs]


def test_generator_is_near_linear():
    t0 = time.perf_counter()
    inst = gen_random_instance(GeneratorConfig(seed=1, k=3, n=4000, num_paths=1200))
    assert time.perf_counter() - t0 < 1.0
    assert cyclomatic_number(inst.graph) == 3


def test_generator_rejects_impossible_configs():
    with pytest.raises(InfeasibleConfig):
        gen_random_instance(GeneratorConfig(seed=0, k=10, n=4, num_paths=0))
    with pytest.raises(InfeasibleConfig):
        gen_random_instance(GeneratorConfig(seed=0, k=0, n=0, num_paths=0))


def test_structural_bounds_on_generated_instances():
    rng = random.Random(97)
    for seed in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(k + 2, 14)
        while (n * (n - 1)) // 2 - (n - 1) < k:
            n += 1
        inst = gen_random_instance(GeneratorConfig(seed=seed, k=k, n=n, num_paths=4))
        from hitpaths import connect_components, preprocess

        pre = preprocess(make_instance(inst.graph, [], 0))
        g = connect_components(pre.graph)
        if g.n == 0:
            continue
        s = high_degree_set(g)
        kk = cyclomatic_number(g)
        if not s:
            continue
        assert len(s) <= 2 * kk - 2
        assert len(path_components(g, set(s))) <= kk + len(s) - 1
