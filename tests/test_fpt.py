import itertools
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from hitpaths import (
    FlowerShapeViolation,
    Graph,
    InvariantViolation,
    SolveStats,
    ValidationError,
    connect_components,
    cyclomatic_number,
    make_instance,
    parse_instance,
    preprocess,
    solve,
)
from hitpaths.bench import scaling_instance
from hitpaths.fpt import (
    PreprocessResult,
    _fill_component,
    _solve_cycle,
    build_flower_branch,
    component_budgets,
)
from hitpaths.flower import FlowerInstance, make_flower, solve_flower
from hitpaths.graph import high_degree_set, path_components
from hitpaths.instance_io import KIND_SUBGRAPHS, unhit_targets
from hitpaths.oracle import SetSystem, exact_min_hitting_set, reference_verdict
from hitpaths.reductions import GeneratorConfig, gen_random_instance

from conftest import disconnected_instance
from reference import classifying_component_budgets

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

TRIANGLE = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
C4_CHORD = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])


def oracle_verdict(inst):
    system = SetSystem.build(inst.graph.n, [frozenset(p) for p in inst.paths])
    size, _ = exact_min_hitting_set(system, inst.t)
    return "YES" if size is not None else "NO"


def check_yes(inst, sol):
    assert sol.verdict == "YES"
    assert len(sol.chosen) <= inst.t
    assert not unhit_targets(inst, sol.chosen)


def test_preprocess_forces_singletons():
    g = Graph.build(3, [(1, 2), (2, 3)])
    pre = preprocess(make_instance(g, [(2,)], 1))
    assert pre.graph.n == 0
    assert pre.forced == frozenset({2}) and pre.t_remaining == 0
    sol = solve(make_instance(g, [(2,)], 1))
    assert sol.verdict == "YES" and sol.chosen == frozenset({2})


def test_preprocess_empty_tree():
    g = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    pre = preprocess(make_instance(g, [], 0))
    assert pre.graph.n == 0 and pre.forced == frozenset()
    assert solve(make_instance(g, [], 0)).verdict == "YES"


def test_preprocess_budget_exhaustion():
    g = Graph.build(2, [(1, 2)])
    inst = make_instance(g, [(1,), (2,)], 1)
    assert preprocess(inst).t_remaining == -1
    assert solve(inst).verdict == "NO"


def test_preprocess_rejects_subgraph_instances():
    inst = make_instance(TRIANGLE, [(1,)], 1, KIND_SUBGRAPHS)
    with pytest.raises(ValidationError):
        preprocess(inst)


def test_preprocess_shaves_target_tails():
    # pendant 4 hangs off a triangle; the target (4, 3) shrinks to (3)
    g = Graph.build(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    pre = preprocess(make_instance(g, [(4, 3)], 1))
    assert pre.graph.n == 3 and list(pre.graph.vertices()) == [1, 2, 3]
    assert pre.paths == ((3,),)


def test_residual_keeps_input_ids_through_a_flower_branch():
    # the chain 1-2 hangs off the core 3 of two petals 4-5-6 and 7-8-9; the
    # residual is 3..9, ids above its 7 vertices, and (1, 2, 3, 4) keeps (3, 4)
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (3, 7), (7, 8), (8, 9), (9, 3)]
    inst = make_instance(Graph.build(9, edges), [(5,), (8,), (1, 2, 3, 4)], 3)
    pre = preprocess(inst)
    assert list(pre.graph.vertices()) == [3, 4, 5, 6, 7, 8, 9] and pre.graph.n == 7
    assert pre.paths == ((5,), (8,), inst.paths[2][2:])
    assert pre.forced == frozenset() and pre.t_remaining == 3
    with pytest.raises(ValidationError, match="1..n"):  # not an instance graph
        make_instance(pre.graph, [], 0)
    stats = SolveStats()
    sol = solve(inst, stats)
    check_yes(inst, sol)
    assert stats.flower_calls >= 1 and sol.chosen == frozenset({4, 5, 8})
    assert sol.certificate == (5, 8, 4)
    assert all(c in sol.chosen and c in p for c, p in zip(sol.certificate, inst.paths))
    assert solve(make_instance(inst.graph, inst.paths, 2)).verdict == "NO"


def test_component_budgets_on_c4_chord():
    s = high_degree_set(C4_CHORD)
    assert s == [1, 3]
    comps = component_budgets(path_components(C4_CHORD, set(s)), s, [(2,)]).comps
    assert [c.vertices for c in comps] == [(2,), (4,)]
    assert [c.opt for c in comps] == [1, 0]


def test_build_flower_branch_shapes():
    s = [1, 3]
    layout = component_budgets(path_components(C4_CHORD, set(s)), s, [(2,), (4,)])
    flower = build_flower_branch(layout, [1, 1], 0, 5)
    assert isinstance(flower, FlowerInstance)
    assert flower.core == 5 and flower.petals == ((2,), (4,))

    # a target inside a zero-budget component would be emptied; solve never
    # builds such a branch, and the flower check refuses it
    with pytest.raises(FlowerShapeViolation):
        build_flower_branch(layout, [1, 0], 0, 5)
    # it is named by its place among the flower's paths, which list the kept
    # petals' internal targets first: here (4,) and (6,), before (7,)
    layout = component_budgets(path_components(THETA, {1, 2}), [1, 2], [(7,), (4,), (6,)])
    with pytest.raises(FlowerShapeViolation, match=r"^path 3 is empty"):
        build_flower_branch(layout, [1, 1, 0], 0, 8)


def test_solve_triangle():
    inst = make_instance(TRIANGLE, [(1, 2)], 1)
    sol = solve(inst)
    check_yes(inst, sol)
    assert sol.chosen == frozenset({1})


def test_solve_c4_chord_threshold():
    paths = [(2,), (4,), (1, 3)]
    assert solve(make_instance(C4_CHORD, paths, 2)).verdict == "NO"
    inst = make_instance(C4_CHORD, paths, 3)
    check_yes(inst, solve(inst))


def test_solve_no_targets():
    inst = make_instance(C4_CHORD, [], 0)
    sol = solve(inst)
    assert sol.verdict == "YES" and sol.chosen == frozenset()


def test_solve_cycle_dispatch():
    c6 = Graph.build(6, [(i, i % 6 + 1) for i in range(1, 7)])
    inst = make_instance(c6, [(1, 2), (4,), (5, 6, 1)], 2)
    sol = solve(inst)
    check_yes(inst, sol)
    assert solve(make_instance(c6, [(1, 2), (3, 4), (5, 6)], 2)).verdict == "NO"


def test_solve_cycle_with_full_coverage_path():
    c4 = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    inst = make_instance(c4, [(1, 2, 3, 4)], 1)
    check_yes(inst, solve(inst))


def test_solve_disconnected_graph():
    g = Graph.build(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    inst = make_instance(g, [(1, 2), (4, 5)], 2)
    check_yes(inst, solve(inst))
    assert solve(make_instance(g, [(1, 2), (4, 5)], 1)).verdict == "NO"


def test_solver_matches_oracle_random():
    rng = random.Random(61)
    for seed in range(150):
        k = seed % 5
        n = rng.randint(max(3, k + 1), 14)
        while (n * (n - 1)) // 2 - (n - 1) < k:
            n += 1
        inst = gen_random_instance(
            GeneratorConfig(
                seed=seed,
                k=k,
                n=n,
                num_paths=rng.randint(0, 10),
                max_path_len=rng.randint(1, 6),
                t_policy=rng.choice(["random", "opt", "opt-1", "opt+1"]),
            )
        )
        stats = SolveStats()
        sol = solve(inst, stats=stats)
        assert sol.verdict == oracle_verdict(inst)
        if sol.verdict == "YES":
            check_yes(inst, sol)
        k_real = cyclomatic_number(inst.graph)
        assert stats.branches_enumerated <= 2 ** (5 * k_real)


def test_preprocess_preserves_oracle_verdict():
    rng = random.Random(67)
    for seed in range(60):
        k = rng.randint(0, 3)
        n = rng.randint(max(3, k + 2), 12)
        while (n * (n - 1)) // 2 - (n - 1) < k:
            n += 1
        inst = gen_random_instance(
            GeneratorConfig(seed=1000 + seed, k=k, n=n,
                            num_paths=rng.randint(0, 8), t_policy="random")
        )
        pre = preprocess(inst)
        before = oracle_verdict(inst)
        if pre.t_remaining < 0:
            assert before == "NO"
            continue
        # the residual keeps the input's ids
        system = SetSystem.build(inst.graph.n, [frozenset(p) for p in pre.paths])
        size, _ = exact_min_hitting_set(system, pre.t_remaining)
        after = "YES" if size is not None else "NO"
        assert before == after


def test_solve_cycle_rejects_a_target_that_is_not_an_arc():
    c4 = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    inst = make_instance(c4, [], 1)
    pre = preprocess(inst)
    for target in [(1, 3), (3, 1), (2, 1, 3)]:
        with pytest.raises(InvariantViolation):
            _solve_cycle(inst, pre, (1, 2, 3, 4), [(1, 2), target])


def quadratic_preprocess(inst):
    """The earlier preprocess, kept as the reference for the peel order: on
    every step it re-sorts the live vertices and rewrites every target."""
    g = inst.graph
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    alive = set(g.vertices())
    paths = [list(p) for p in inst.paths]
    forced = set()
    t = inst.t
    while True:
        low = sorted(v for v in alive if len(adj[v]) <= 1)
        if not low:
            break
        v = low[0]
        if any(p == [v] for p in paths):
            forced.add(v)
            t -= 1
            paths = [p for p in paths if v not in p]
        else:
            paths = [[u for u in p if u != v] for p in paths]
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
        alive.discard(v)
    # the residual keeps the input's ids: build on 1..n, then drop the peeled
    whole = Graph.build(g.n, {(u, w) for u in alive for w in adj[u] if u < w})
    residual = Graph(len(alive), whole.m, {v: whole.neighbours[v] for v in sorted(alive)})
    return PreprocessResult(residual, tuple(map(tuple, paths)), frozenset(forced), t)


def random_peel_instance(rng):
    """Small path instance: a random forest (edgeless or disconnected at
    times) plus a few extra edges and pendant chains, with random-walk
    targets that include singletons, duplicates and chain-end targets."""
    n = rng.randint(1, 14)
    edges = set()
    p_tree = rng.choice([0.0, 0.5, 0.9, 1.0])
    for v in range(2, n + 1):
        if rng.random() < p_tree:
            edges.add((rng.randint(1, v - 1), v))
    for _ in range(rng.randint(0, 3)):
        if n >= 2:
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            edges.add((u, v))
    chains = []
    for _ in range(rng.randint(0, 2)):
        length = rng.randint(1, 4)
        chain = list(range(n + 1, n + length + 1))
        n += length
        edges.add((rng.randint(1, chain[0] - 1), chain[0]))
        edges.update(zip(chain, chain[1:]))
        chains.append(chain)
    g = Graph.build(n, edges)
    adj = g.adjacency()
    targets = []
    for _ in range(rng.randint(0, 8)):
        walk = [rng.randint(1, n)]
        goal = rng.randint(1, 5)
        while len(walk) < goal:
            options = sorted(adj[walk[-1]] - set(walk))
            if not options:
                break
            walk.append(rng.choice(options))
        targets.append(tuple(walk))
    for chain in chains:
        # the far end of a pendant chain, alone or with its neighbour
        targets.append(tuple(chain[-2:][:: rng.choice([1, -1])]))
    if targets:
        targets += rng.choices(targets, k=rng.randint(0, 2))
    rng.shuffle(targets)
    return make_instance(g, targets, rng.randint(0, n))


def test_preprocess_matches_quadratic_reference():
    rng = random.Random(71)
    forced_by_trimming = 0
    for _ in range(1200):
        inst = random_peel_instance(rng)
        got = preprocess(inst)
        assert got == quadratic_preprocess(inst)
        singletons = {p[0] for p in inst.paths if len(p) == 1}
        forced_by_trimming += bool(got.forced - singletons)
    # the peel order decides which vertex a trimmed target forces
    assert forced_by_trimming > 300


def test_k_and_verdict_come_off_the_walk():
    # solve takes k from its one walk of the residual minus S (cycles plus
    # skeleton components); the input's own m - n + c must agree, and so
    # must the oracle's verdict
    rng = random.Random(71)
    insts = [random_peel_instance(rng) for _ in range(1200)]
    trees_beside_a_cycle = 0
    for inst in insts:
        adj = inst.graph.adjacency()
        # a component is a tree iff it has one vertex more than edges
        cyclic = [sum(len(adj[v]) for v in c) // 2 >= len(c) for c in inst.graph.components()]
        trees_beside_a_cycle += any(cyclic) and cyclic.count(False) >= 2
    # peeled-away trees must not count towards k
    assert trees_beside_a_cycle > 20
    rng = random.Random(109)
    insts += [disconnected_instance(rng) for _ in range(300)]
    with_cycle = 0
    for inst in insts:
        stats = SolveStats()
        assert solve(inst, stats).verdict == reference_verdict(inst).verdict
        assert stats.k == cyclomatic_number(inst.graph)
        residual = preprocess(inst).graph
        walk = path_components(residual, set(high_degree_set(residual)))
        with_cycle += any(comp.attach_left is None for comp in walk)
    assert with_cycle > 400, with_cycle


def test_union_find_counts_skeletons_the_walk_does_not_attach():
    # solve counts the skeleton on S with a union-find over the edges inside
    # S and one attachment pair per path; in these residuals S induces
    # edges and whole components lie inside S, so the walk has few or no
    # attachments to lean on, and one path is attached at both ends to the
    # same S-vertex
    k4 = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    graphs = {
        "K4": (4, k4),
        "K3,3": (6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
        "two K4s and a bridge": (8, k4 + [(u + 4, v + 4) for u, v in k4] + [(4, 5)]),
        "K4 beside a cycle": (9, k4 + [(5, 6), (6, 7), (7, 8), (8, 9), (9, 5)]),
        "K4 with a loop path at 1": (6, k4 + [(1, 5), (5, 6), (6, 1)]),
    }
    rng = random.Random(127)
    verdicts = Counter()
    for name, (n, edges) in graphs.items():
        g = Graph.build(n, edges)
        for _ in range(12):
            targets = random_walk_targets(rng, g, rng.randint(0, 6))
            inst = make_instance(g, targets, rng.randint(0, 3))
            stats = SolveStats()
            sol = solve(inst, stats)
            assert stats.k == cyclomatic_number(g), name
            assert sol.verdict == reference_verdict(inst).verdict, name
            if sol.verdict == "YES":
                check_yes(inst, sol)
            verdicts[sol.verdict] += 1
    assert verdicts["YES"] > 10 and verdicts["NO"] > 10, verdicts


def with_adjacency(n, edges, extra=(), missing=()):
    """A graph of len(edges) edges whose neighbour sets have the `extra`
    edges on top of `edges` and lack the one-sided `missing` entries (v
    loses neighbour w)."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in [*edges, *extra]:
        adj[u].add(v)
        adj[v].add(u)
    for v, w in missing:
        adj[v].discard(w)
    return make_instance(Graph(n, len(edges), adj), [], 0)


def test_preprocess_checks_the_residual_edge_count():
    c4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
    # pendant 5 peels; the residual would keep a chord the edges lack
    inst = with_adjacency(5, c4 + [(1, 5)], extra=[(1, 3)])
    with pytest.raises(InvariantViolation, match="unpeeled edges"):
        preprocess(inst)
    # the isolated vertex 5 peels along an edge the graph does not have
    inst = with_adjacency(5, c4, extra=[(1, 5)])
    with pytest.raises(InvariantViolation, match="unpeeled edges"):
        preprocess(inst)


def test_preprocess_checks_each_peeled_degree():
    # 1 does not list its pendant 5, so peeling 5 takes 1 down to degree 1
    # while it still has the live neighbours 2 and 4
    inst = with_adjacency(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)], missing=[(1, 5)])
    with pytest.raises(InvariantViolation, match="degree 2"):
        preprocess(inst)


def test_preprocess_checks_its_peel_on_a_corrupted_adjacency():
    # 2 does not list 1, so the peel runs round the C4 from 2 and strips the
    # target (1, 2, 3) from its middle; some self-check must catch it
    g = with_adjacency(4, [(1, 2), (2, 3), (3, 4), (1, 4)], missing=[(2, 1)]).graph
    with pytest.raises(InvariantViolation):
        preprocess(make_instance(g, [(1, 2, 3)], 1))


def test_preprocess_peels_smallest_id_first():
    # on a lone edge, the smaller end is peeled first and shaves the target
    # down to the other end, which is then forced
    g = Graph.build(2, [(1, 2)])
    for target in ((1, 2), (2, 1)):
        pre = preprocess(make_instance(g, [target], 1))
        assert pre.forced == frozenset({2}) and pre.paths == ()
    # star around 2: once 1 and 3 are gone, the centre 2 (degree 1) comes
    # before the leaf 4, so (4, 2) shrinks to (4) and 4 is forced
    inst = make_instance(Graph.build(4, [(1, 2), (2, 3), (2, 4)]), [(4, 2), (1, 2, 3), (3,)], 2)
    pre = preprocess(inst)
    assert pre == quadratic_preprocess(inst)
    assert pre.forced == frozenset({3, 4}) and pre.t_remaining == 0
    # path 1-5-2-4-3: peeling 1 leaves 5, above the scan, at degree 1 while
    # the smaller leaf 3 waits; the order is 1, 3, 4, 2, 5, so (2, 4) forces
    # 2 (peeling 5 at once would take 2 and 4 before 3, and force 4)
    inst = make_instance(Graph.build(5, [(1, 5), (5, 2), (2, 4), (4, 3)]), [(2, 4)], 1)
    pre = preprocess(inst)
    assert pre == quadratic_preprocess(inst)
    assert pre.forced == frozenset({2}) and pre.paths == ()
    # path 2-1-3 off a triangle: peeling 2 leaves 1, below the scan, at degree
    # 1, so 1 goes before the scan reaches 3; (1, 3) forces 3, which also
    # hits (2, 1, 3, 4), and (4, 5) is kept
    g = Graph.build(6, [(2, 1), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    inst = make_instance(g, [(1, 3), (2, 1, 3, 4), (4, 5)], 2)
    pre = preprocess(inst)
    assert pre == quadratic_preprocess(inst)
    assert pre.forced == frozenset({3}) and pre.t_remaining == 1
    assert pre.paths == ((4, 5),)


def test_edgeless_instance_does_not_hang():
    t0 = time.perf_counter()
    sol = solve(parse_instance("p hitpaths 20000 0 0 0\n"))
    assert sol.verdict == "YES" and sol.chosen == frozenset()
    assert time.perf_counter() - t0 < 2.0


def test_long_pendant_chain_with_far_singleton():
    chain = 10**4
    edges = [(1, 2), (2, 3), (1, 3), (3, 4)] + [(v, v + 1) for v in range(4, chain + 3)]
    g = Graph.build(chain + 3, edges)
    inst = make_instance(g, [(chain + 3,), (1, 2)], 2)
    t0 = time.perf_counter()
    pre = preprocess(inst)
    sol = solve(inst)
    assert time.perf_counter() - t0 < 2.0
    assert pre.forced == frozenset({chain + 3}) and pre.graph.n == 3
    check_yes(inst, sol)
    assert chain + 3 in sol.chosen


def test_long_cycle_solves_in_linear_time():
    # a relabelled 10**4-vertex cycle with 10**4 targets of 1-6 vertices,
    # walked in either direction; the earlier per-vertex cycle solver
    # re-sorted the arcs once per vertex here
    rng = random.Random(79)
    n = 10**4
    label = list(range(1, n + 1))
    rng.shuffle(label)
    g = Graph.build(n, [(label[i], label[(i + 1) % n]) for i in range(n)])
    targets = []
    for _ in range(n):
        start, size = rng.randrange(n), rng.randint(1, 6)
        walk = [label[(start + j) % n] for j in range(size)]
        targets.append(walk[::-1] if rng.random() < 0.5 else walk)
    inst = make_instance(g, targets, n)
    t0 = time.perf_counter()
    sol = solve(inst)
    assert time.perf_counter() - t0 < 2.0
    check_yes(inst, sol)
    tight = make_instance(g, targets, len(sol.chosen) - 1)
    assert solve(tight).verdict == "NO"


def test_solve_cycle_with_whole_cycle_targets():
    c6 = Graph.build(6, [(i, i % 6 + 1) for i in range(1, 7)])
    whole = [(3, 4, 5, 6, 1, 2), (3, 2, 1, 6, 5, 4)]
    # alone: one vertex hits them
    inst = make_instance(c6, whole, 1)
    sol = solve(inst)
    check_yes(inst, sol)
    assert len(sol.chosen) == 1
    assert solve(make_instance(c6, whole, 0)).verdict == "NO"
    # mixed with shorter targets, which alone decide the optimum
    inst = make_instance(c6, whole + [(2, 3)], 1)
    sol = solve(inst)
    check_yes(inst, sol)
    assert sol.chosen <= {2, 3}
    inst = make_instance(c6, [(1, 2)] + whole + [(5, 4)], 2)
    check_yes(inst, solve(inst))
    assert solve(make_instance(c6, [(1, 2)] + whole + [(5, 4)], 1)).verdict == "NO"


def test_solve_leaves_adjacency_untouched():
    insts = [scaling_instance(3), make_instance(C4_CHORD, [(2,), (4,), (1, 3)], 3)]
    rng = random.Random(73)
    insts += [random_peel_instance(rng) for _ in range(50)]
    for inst in insts:
        g = inst.graph
        assert g.adjacency() is g.adjacency()
        before = {v: set(ns) for v, ns in g.adjacency().items()}
        solve(inst)
        assert g.adjacency() == before


def min_degree_two_instances(rng, count):
    """Random residuals (min degree >= 2, at times disconnected) with the
    trimmed targets, rebuilt as instances of their own: a residual keeps the
    input's ids, so its vertices are renumbered 1..n in order."""
    insts = [scaling_instance(3), make_instance(C4_CHORD, [(2,), (4,), (1, 3)], 3)]
    two_triangles = Graph.build(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    insts.append(make_instance(two_triangles, [(1, 2), (6,)], 2))
    while len(insts) < count:
        pre = preprocess(random_peel_instance(rng))
        if pre.graph.n:
            rank = {v: i for i, v in enumerate(pre.graph.vertices(), 1)}
            g = Graph.build(len(rank), [(rank[u], rank[w]) for u, w in pre.graph.edges])
            paths = [tuple(map(rank.__getitem__, p)) for p in pre.paths]
            insts.append(make_instance(g, paths, rng.randint(0, g.n)))
    return insts


def test_preprocess_returns_min_degree_two_input_as_is():
    rng = random.Random(83)
    for inst in min_degree_two_instances(rng, 300):
        pre = preprocess(inst)
        assert pre.graph is inst.graph and pre.paths is inst.paths
        assert pre == quadratic_preprocess(inst)


def test_connected_input_runs_one_component_search(monkeypatch):
    sizes = []  # vertex count of each searched graph
    search = Graph.components

    def counted(self, vs=None):
        sizes.append(self.n)
        return search(self, vs)

    monkeypatch.setattr(Graph, "components", counted)
    rng = random.Random(89)
    insts = min_degree_two_instances(rng, 200)
    insts += [random_peel_instance(rng) for _ in range(600)]
    insts += [disconnected_instance(rng) for _ in range(100)]
    seen = Counter()
    for inst in insts:
        pre = preprocess(inst)
        residual = pre.graph
        sizes.clear()
        solve(inst)
        # the skeleton on S is counted by a union-find, so a connected
        # residual runs no search at all; a NO from the budget alone comes
        # before the bridge
        if len(search(residual)) <= 1 or pre.t_remaining < 0:
            assert sizes == []
            peeled = residual is not inst.graph
            seen["peeled" if peeled else "as is"] += len(search(inst.graph)) == 1
        else:  # the residual once, to bridge it
            assert sizes == [residual.n]
            seen["bridged"] += 1
    assert seen["as is"] > 150 and seen["peeled"] > 250 and seen["bridged"] > 50, seen


def rebuilding_flower_branch(s, comps, budgets, s_prime, paths, core_id):
    """The earlier build_flower_branch, kept as the reference: from the
    walk's components alone, it rebuilds the vertex -> component map per
    branch, tests whole-component cover with a component-sized set per
    (target, touched component), and contracts the core vertex by vertex."""
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp.vertices:
            comp_of[v] = ci
    core_set = set(s) - s_prime
    dead = set()
    for ci, comp in enumerate(comps):
        if budgets[ci] == 0:
            dead.update(comp.vertices)
    surviving = []
    for p in paths:
        pv = set(p)
        if pv & s_prime:
            continue
        touched = {comp_of[v] for v in p if v in comp_of}
        if any(budgets[ci] > 0 and set(comps[ci].vertices) <= pv for ci in touched):
            continue
        surviving.append([v for v in p if v not in dead])
    petals, petal_budgets, links = [], [], set()
    for ci, comp in enumerate(comps):
        if budgets[ci] == 0:
            continue
        petals.append(comp.vertices)
        petal_budgets.append(budgets[ci])
        if comp.attach_left in core_set:
            links.add(comp.vertices[0])
        if comp.attach_right in core_set:
            links.add(comp.vertices[-1])
    flower_paths = []
    for p in surviving:
        seq = []
        for v in p:
            mapped = core_id if v in core_set else v
            if not (seq and seq[-1] == core_id and mapped == core_id):
                seq.append(mapped)
        if seq.count(core_id) > 1:
            raise FlowerShapeViolation("target collapses onto the core more than once")
        flower_paths.append(seq)
    try:
        return make_flower(core_id, petals, petal_budgets, flower_paths, links)
    except ValidationError as exc:
        raise FlowerShapeViolation(str(exc)) from exc


COLLAPSE = "target collapses onto the core more than once"


def branch_outcome(build, *args):
    """The flower with its paths as a multiset, or the error named by cause:
    the builders list a flower's paths in different orders, and an error
    names a target by its place among them."""
    try:
        flower = build(*args)
    except FlowerShapeViolation as exc:
        return re.sub(r"^path \d+ ", "", str(exc))
    return flower._replace(paths=Counter(flower.paths))


def test_flower_branch_matches_rebuilding_reference():
    # every branch solve enumerates, plus per S' one budget vector that
    # zeroes random components (emptying their internal targets), built
    # from the solve's layout and by the reference. At times a target that
    # jumps between two S-vertices over one vertex of G - S is injected: it
    # is not a path of G, so the once-per-solve check rejects it unless that
    # vertex is a whole component attached to both. The branches are
    # compared without a rejected target, and the reference is also run with
    # it, where it collapses onto the core more than once.
    rng = random.Random(103)
    residuals = 0
    outcomes = Counter()
    seed = 0
    while residuals < 500:
        seed += 1
        k = rng.randint(2, 3)
        n = rng.randint(k + 3, 14)
        inst = gen_random_instance(
            GeneratorConfig(seed=5000 + seed, k=k, n=n, num_paths=rng.randint(0, 12),
                            max_path_len=rng.randint(1, 8), t_policy="random")
        )
        pre = preprocess(inst)
        if pre.graph.n == 0:
            continue
        g = connect_components(pre.graph)
        s = high_degree_set(g)
        if not s:
            continue
        residuals += 1
        paths = list(pre.paths)
        inner = [v for v in g.vertices() if v not in s]
        injected = None
        if len(s) > 1 and inner and rng.random() < 0.3:
            a, b = rng.sample(s, 2)
            injected = (a, rng.choice(inner), b)
            paths.insert(rng.randint(0, len(paths)), injected)
        walk = path_components(g, set(s))
        core_id = inst.graph.n + 1  # the residual keeps the input's ids
        rejected = None  # the targets with the one the layout rejects
        try:
            layout = component_budgets(walk, s, paths)
        except FlowerShapeViolation as exc:
            assert "does not run along G - S" in str(exc)
            rejected = list(paths)
            paths.remove(injected)
            layout = component_budgets(walk, s, paths)
            outcomes["rejected before any branch"] += 1
        comps = layout.comps
        for s_mask in range((1 << len(s)) - 1):  # S' must leave a core
            s_prime = {v for i, v in enumerate(s) if s_mask >> i & 1}
            branches = [
                [c.opt + (c_mask >> ci & 1) for ci, c in enumerate(comps)]
                for c_mask in range(1 << len(comps))
            ]
            branches.append([rng.choice([0, c.opt, c.opt + 1]) for c in comps])
            for budgets in branches:
                want = branch_outcome(rebuilding_flower_branch, s, walk, budgets, s_prime, paths,
                                      core_id)
                assert branch_outcome(build_flower_branch, layout, budgets, s_mask, core_id) == want
                if rejected and branch_outcome(rebuilding_flower_branch, s, walk, budgets,
                                               s_prime, rejected, core_id) == COLLAPSE:
                    outcomes[COLLAPSE] += 1
                if isinstance(want, str):
                    outcomes[want] += 1
                else:
                    outcomes["flower"] += 1
    assert outcomes["flower"] > 5000, outcomes
    assert outcomes["rejected before any branch"] > 100, outcomes
    assert outcomes[COLLAPSE] > 100, outcomes
    assert outcomes["is empty or repeats a vertex"] > 100, outcomes


def test_flower_branches_hand_on_the_layouts_internal_targets():
    # internal targets are laid out once per solve: every branch gives a
    # positive-budget petal its component's own spans tuple from the layout,
    # and lists the component's internal paths first, petal by petal
    inst = scaling_instance(3)
    pre = preprocess(inst)
    s = high_degree_set(pre.graph)
    layout = component_budgets(path_components(pre.graph, set(s)), s, pre.paths)
    opts = [c.opt for c in layout.comps]
    flowers = []
    for s_mask, budgets in [(0, opts), (1, [opt + ci % 2 for ci, opt in enumerate(opts)])]:
        flower = build_flower_branch(layout, budgets, s_mask, inst.graph.n + 1)
        kept = [c for c, budget in zip(layout.comps, budgets) if budget]
        assert len(flower.internal) == len(kept) > 1
        assert all(spans is c.spans and spans for spans, c in zip(flower.internal, kept))
        inner = [p for c in kept for p in c.paths]
        assert list(flower.paths[: len(inner)]) == inner
        assert len(flower.paths) == len(inner) + len(flower.crossing)
        flowers.append(flower)
    assert flowers[0] != flowers[1]


def test_flower_branches_share_one_skeleton_per_live_mask():
    # the first branch of a live mask (the components of positive budget)
    # stores the branch-independent part of its flower in the layout, and
    # later branches of that mask reuse it. Branches built on one layout in
    # shuffled S' and budget order must equal builds on a fresh layout and
    # the rebuilding reference: every flower branch of scaling_instance(2)
    # and (3), and of random residuals with opt == 0 components, where a
    # zero budget for such a component makes several live masks recur
    # within one S'
    rng = random.Random(131)
    insts = [scaling_instance(2), scaling_instance(3)]
    seed = 0
    while len(insts) < 60:
        seed += 1
        inst = gen_random_instance(
            GeneratorConfig(seed=11000 + seed, k=rng.randint(2, 3), n=rng.randint(6, 14),
                            num_paths=rng.randint(1, 8), max_path_len=rng.randint(1, 5),
                            t_policy="random")
        )
        pre = preprocess(inst)
        if pre.graph.n == 0 or not high_degree_set(connect_components(pre.graph)):
            continue
        g = connect_components(pre.graph)
        s = high_degree_set(g)
        layout = component_budgets(path_components(g, set(s)), s, pre.paths)
        if any(c.opt == 0 for c in layout.comps):
            insts.append(inst)
    recurring = 0
    for inst in insts:
        pre = preprocess(inst)
        g = connect_components(pre.graph)
        s = high_degree_set(g)
        walk = path_components(g, set(s))
        layout = component_budgets(walk, s, pre.paths)
        core_id = inst.graph.n + 1
        branches = [(s_mask, [c.opt + (c_mask >> ci & 1) for ci, c in enumerate(layout.comps)])
                    for s_mask in range((1 << len(s)) - 1) for c_mask in range(1 << len(walk))]
        branches += [(s_mask, [0 if c.opt == 0 and rng.random() < 0.5 else c.opt + rng.randint(0, 1)
                               for c in layout.comps])
                     for s_mask, _ in branches]
        rng.shuffle(branches)
        shared = {}  # live mask -> the petals tuple of its first branch
        masks = {}  # S' -> the live masks of its branches
        for s_mask, budgets in branches:
            flower = build_flower_branch(layout, budgets, s_mask, core_id)
            fresh = component_budgets(walk, s, pre.paths)
            assert flower == build_flower_branch(fresh, budgets, s_mask, core_id)
            s_prime = {v for i, v in enumerate(s) if s_mask >> i & 1}
            assert flower._replace(paths=Counter(flower.paths)) == branch_outcome(
                rebuilding_flower_branch, s, walk, budgets, s_prime, pre.paths, core_id)
            live = tuple(map(bool, budgets))
            assert flower.petals is shared.setdefault(live, flower.petals)
            masks.setdefault(s_mask, set()).add(live)
        recurring += sum(len(lives) > 1 for lives in masks.values())
    assert recurring > 100, recurring
    # an emptied component is rejected by every call of its live mask, the
    # stored masks of other branches notwithstanding
    layout = component_budgets(path_components(THETA, {1, 2}), [1, 2], [(7,), (4,), (6,)])
    for _ in range(3):
        with pytest.raises(FlowerShapeViolation, match=r"^path 3 is empty"):
            build_flower_branch(layout, [1, 1, 0], 0, 8)
        build_flower_branch(layout, [1, 1, 1], 0, 8)
    assert len(layout.skeletons) == 1  # the emptied mask is not stored


def test_long_flower_branch_is_linear():
    # a core vertex with 4 petals of 5,000 vertices, each wired to the core
    # at both ends, and 20,000 three-vertex targets through the core; the
    # earlier branch builder built a petal-sized set per target here
    length, z = 5000, 1
    petals = [list(range(2 + a * length, 2 + (a + 1) * length)) for a in range(4)]
    edges = [e for p in petals for e in [(z, p[0]), (p[-1], z), *zip(p, p[1:])]]
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    targets = [(petals[a][-1], z, petals[b][0]) for a, b in pairs] * 1250
    inst = make_instance(Graph.build(1 + 4 * length, edges), targets, 4)
    stats = SolveStats()
    t0 = time.perf_counter()
    sol = solve(inst, stats)
    assert time.perf_counter() - t0 < 2.0
    check_yes(inst, sol)
    # the first branch keeps z out and takes one vertex per petal via 2-SAT
    assert stats.flower_calls == 1 and z not in sol.chosen


def test_long_petal_at_opt_plus_one_is_linear():
    # a core joined to both ends of three petals: two of 3 vertices with a
    # singleton target in the middle, one of 8,000 vertices with singleton
    # targets on every other position of its right half; at t = opt + 1 the
    # long petal's canonical solutions hold about 2,000 positions each,
    # which the earlier table built for every index
    z, nxt, edges, targets = 1, 2, [], []
    for length in (3, 3, 8000):
        p = list(range(nxt, nxt + length))
        nxt += length
        edges += [(z, p[0]), *zip(p, p[1:]), (p[-1], z)]
        targets += [(p[j],) for j in range(length // 2, length, 2)]
    inst = make_instance(Graph.build(nxt - 1, edges), targets, len(targets) + 1)
    stats = SolveStats()
    t0 = time.perf_counter()
    sol = solve(inst, stats)
    assert time.perf_counter() - t0 < 0.5
    check_yes(inst, sol)
    assert stats.flower_calls == 1


def random_walk_targets(rng, g, count):
    """Self-avoiding random walks of g, which often leave a component of
    G - S through S and come back into it."""
    adj = g.adjacency()
    targets = []
    vertices = list(g.vertices())  # a residual's ids may skip
    for _ in range(count):
        walk = [rng.choice(vertices)]
        for _ in range(rng.randint(0, g.n)):
            free = sorted(adj[walk[-1]].difference(walk))
            if not free:
                break
            walk.append(rng.choice(free))
        targets.append(tuple(walk))
    return targets


def covered_by(layout, paths):
    """Per component: the indices of the targets holding all its vertices,
    read from its whole internal targets and the through-S cover masks."""
    cover = {target[-1]: target[1] for target in layout.targets}
    return [
        frozenset(i for i, p in enumerate(paths) if p in c.whole or cover.get(p, 0) >> ci & 1)
        for ci, c in enumerate(layout.comps)
    ]


def vertex_layout(comps, s, paths):
    """The layout read vertex by vertex, for targets that run along G - S:
    per component, its vertices, its attachments' S-bits and its internal
    targets (spans and paths of those not holding it whole, then those that
    do); per target through S, its S-mask, cover mask, first and last
    S-index and its maximal runs outside S as (component, (lo, hi))."""
    bit = {v: 1 << i for i, v in enumerate(s)}
    at = {v: (ci, q) for ci, c in enumerate(comps) for q, v in enumerate(c.vertices, 1)}
    inner = [([], [], []) for _ in comps]
    targets = []
    for p in paths:
        runs = []
        for ci, group in itertools.groupby(p, lambda v: at[v][0] if v in at else None):
            if ci is not None:
                q = [at[v][1] for v in group]
                runs.append((ci, (min(q), max(q))))
        sizes = Counter(at[v][0] for v in p if v in at)
        cover = [ci for ci, size in sizes.items() if size == len(comps[ci].vertices)]
        where = [i for i, v in enumerate(p) if v in bit]
        if where:
            smask = sum(bit[p[i]] for i in where)
            targets.append((smask, sum(1 << ci for ci in cover), where[0], where[-1],
                            tuple(runs), p))
        elif cover:
            inner[runs[0][0]][2].append(p)
        else:
            inner[runs[0][0]][0].append(runs[0][1])
            inner[runs[0][0]][1].append(p)
    ends = [(c.vertices, bit[c.attach_left], bit[c.attach_right], *map(tuple, rec))
            for c, rec in zip(comps, inner)]
    return ends, targets


def entries(layout):
    """Per component record of the layout, all but its opt and greedy."""
    return [(c.vertices, c.left, c.right, c.spans, c.paths, c.whole) for c in layout.comps]


def assert_same_budgets(g, s, paths):
    walk = path_components(g, set(s))
    got = component_budgets(walk, s, paths)
    want = classifying_component_budgets(g, s, paths)
    assert [(comp, c.opt, c.greedy, cover)
            for comp, c, cover in zip(walk, got.comps, covered_by(got, paths))] == want
    assert (entries(got), got.targets) == vertex_layout(walk, s, paths)
    return got


# S = {1, 2} (adjacent) joined by the paths 1-3-4-2, 1-5-6-2 and 1-7-2
THETA = Graph.build(7, [(1, 2), (1, 3), (3, 4), (4, 2), (1, 5), (5, 6), (6, 2), (1, 7), (7, 2)])


def test_component_budgets_cuts_targets_at_their_s_vertices():
    s = high_degree_set(THETA)
    assert s == [1, 2]
    a, b, c = (1, 2), (2, 2), (1, 1)  # spans of 2-vertex components; c also (7,)'s
    for target, covers, smask, first, last, runs in [
        # covers: the components the target holds whole; smask: bit 1 for
        # S-vertex 1, bit 2 for 2; first and last: its first and last
        # S-vertex's index; runs: (component, span) in target order
        ((1, 3, 4), {0}, 1, 0, 0, [(0, a)]),  # starts on an S-vertex
        ((5, 6, 2), {1}, 2, 2, 2, [(1, a)]),  # ends on one
        ((1, 3, 4, 2), {0}, 3, 0, 3, [(0, a)]),  # both
        # two adjacent S-vertices: an empty run between them
        ((3, 1, 2, 4), {0}, 3, 1, 2, [(0, c), (0, b)]),
        ((4, 3, 1, 2, 6), {0}, 3, 2, 3, [(0, a), (1, b)]),
        # leaves (3, 4) through S and re-enters it
        ((3, 1, 5, 6, 2, 4), {0, 1}, 3, 1, 4, [(0, c), (1, a), (0, b)]),
        ((3, 1, 7, 2, 4), {0, 2}, 3, 1, 3, [(0, c), (2, c), (0, b)]),
        ((7, 1, 5, 6, 2), {1, 2}, 3, 1, 4, [(2, c), (1, a)]),
        ((3, 1, 7), {2}, 1, 1, 1, [(0, c), (2, c)]),
        ((1, 2), set(), 3, 0, 1, []),  # no run at all
        ((2,), set(), 2, 0, 0, []),
    ]:
        paths = [(4,), target, (5, 6)]
        layout = assert_same_budgets(THETA, s, paths)
        assert [c.vertices for c in layout.comps] == [(3, 4), (5, 6), (7,)]
        cover = covered_by(layout, paths)
        assert {ci for ci, held in enumerate(cover) if 1 in held} == covers, target
        assert layout.targets == [
            (smask, sum(1 << ci for ci in covers), first, last, tuple(runs), target),
        ], target
        # inside one component, no S-vertex: (4,) at position 2 of (3, 4) is a
        # span and a path; (5, 6) holds its component whole
        assert entries(layout) == [
            ((3, 4), 1, 2, (b,), ((4,),), ()),
            ((5, 6), 1, 2, (), (), ((5, 6),)),
            ((7,), 1, 2, (), (), ()),
        ], target
    # the check runs once per solve, before any branch: a run that steps
    # into S from an end not attached to that S-vertex, or not from an end
    # at all, or that is not a stretch of one component
    for target in [(3, 4, 1), (1, 4, 3), (2, 3), (3, 1, 4), (5, 3), (4, 6), (3, 5, 6, 2)]:
        with pytest.raises(FlowerShapeViolation, match="does not run along G - S"):
            component_budgets(path_components(THETA, set(s)), s, [(4,), target])


def test_component_budgets_matches_classifying_reference():
    rng = random.Random(107)
    residuals = reentering = covering = 0
    seed = 0
    while residuals < 300:
        seed += 1
        k = rng.randint(2, 4)
        inst = gen_random_instance(
            GeneratorConfig(seed=7000 + seed, k=k, n=rng.randint(k + 3, 16),
                            num_paths=rng.randint(0, 12), max_path_len=rng.randint(1, 8),
                            t_policy="random")
        )
        pre = preprocess(inst)
        if pre.graph.n == 0:
            continue
        g = connect_components(pre.graph)
        s = high_degree_set(g)
        if not s:
            continue
        residuals += 1
        paths = [*pre.paths, *random_walk_targets(rng, g, 10)]
        layout = assert_same_budgets(g, s, paths)
        comp_of = {v: ci for ci, c in enumerate(layout.comps) for v in c.vertices}
        for p in paths:
            cids = [comp_of.get(v) for v in p]
            runs = [c for c, prev in zip(cids, [None, *cids]) if c is not None and c != prev]
            reentering += len(runs) > len(set(runs))
        covering += sum(map(bool, covered_by(layout, paths)))
    assert reentering > 150 and covering > 100, (reentering, covering)
    for workload in ("scaling", "large", "flower"):
        cases, seed = [], 0
        while len(cases) < 40:
            seed += 1
            cases += workloads.generate(workload, seed)
        for case in cases[:40]:
            pre = preprocess(parse_instance(case.text))
            g = connect_components(pre.graph) if pre.graph.n else pre.graph
            s = high_degree_set(g)
            if s:
                assert_same_budgets(g, s, pre.paths)


def scanning_solve(inst):
    """solve's branch engine with the earlier mask scan, kept as the
    reference: every c_mask from 0 up, its opt bits counted through bin().
    Only for instances whose residual reaches the branch scan."""
    stats = SolveStats()
    pre = preprocess(inst)
    g = connect_components(pre.graph)
    s = high_degree_set(g)
    layout = component_budgets(path_components(g, set(s)), s, pre.paths)
    comps = layout.comps
    total_opt = sum(c.opt for c in comps)
    nc = len(comps)
    must_opt_mask = 0
    for ci, c in enumerate(comps):
        if c.opt + 1 > len(c.vertices):
            must_opt_mask |= 1 << ci
    core_id = inst.graph.n + 1  # above every residual id
    for s_mask in range(1 << len(s)):
        s_prime = {s[i] for i in range(len(s)) if s_mask >> i & 1}
        base_cost = len(s_prime) + total_opt + nc
        for c_mask in range(1 << nc):
            stats.branches_enumerated += 1
            cost = base_cost - bin(c_mask).count("1")
            if cost > pre.t_remaining:
                continue
            if c_mask & must_opt_mask != must_opt_mask:
                continue
            stats.branches_after_filter += 1
            budgets = [c.opt if c_mask >> ci & 1 else c.opt + 1 for ci, c in enumerate(comps)]
            if len(s_prime) == len(s):
                chosen = set(s_prime)
                for c, budget in zip(comps, budgets):
                    if budget > 0:
                        chosen |= _fill_component(c, budget)
            else:
                stats.flower_calls += 1
                branch = build_flower_branch(layout, budgets, s_mask, core_id)
                fsol = solve_flower(branch)
                if fsol.verdict != "YES":
                    continue
                chosen = s_prime | set(fsol.chosen)
            stats.solution_cost = cost
            return stats, pre.forced | chosen
    return stats, None


def petal_instance(rng, petals, crossing):
    """Core vertex 1 and `petals` cycles through it of 2-6 further vertices,
    each holding 1-3 short internal targets, plus `crossing` targets that
    step through the core from one petal's end into another petal."""
    edges, targets, rings, nxt = [], [], [], 2
    for _ in range(petals):
        ring = list(range(nxt, nxt + rng.randint(2, 6)))
        nxt += len(ring)
        edges += [(1, ring[0]), *zip(ring, ring[1:]), (ring[-1], 1)]
        for _ in range(rng.randint(1, 3)):
            lo = rng.randrange(len(ring))
            targets.append(tuple(ring[lo : lo + rng.randint(1, 3)]))
        rings.append(ring)
    for _ in range(crossing):
        a, b = rng.sample(rings, 2)
        targets.append((*a[-rng.randint(1, 2) :], 1, *b[: rng.randint(1, 2)]))
    return Graph.build(nxt - 1, edges), targets


def assert_same_scan(inst):
    stats = SolveStats()
    sol = solve(inst, stats)
    want_stats, want_chosen = scanning_solve(inst)
    assert (stats.branches_enumerated, stats.branches_after_filter, stats.flower_calls,
            stats.solution_cost) == (want_stats.branches_enumerated,
            want_stats.branches_after_filter, want_stats.flower_calls,
            want_stats.solution_cost)
    assert (sol.chosen if sol.verdict == "YES" else None) == want_chosen
    return stats


def test_branch_scan_matches_full_mask_reference():
    rng = random.Random(211)
    verdicts = Counter()
    for _ in range(12):
        g, targets = petal_instance(rng, rng.randint(8, 12), rng.randint(0, 4))
        sets = SetSystem.build(g.n, [frozenset(p) for p in targets])
        opt, _ = exact_min_hitting_set(sets, g.n)
        for t in (opt - 1, opt, opt + 1, opt + 2):
            stats = assert_same_scan(make_instance(g, targets, t))
            verdicts[stats.solution_cost is not None] += 1
    assert verdicts[False] == 12 and verdicts[True] == 36
    residuals = 0
    seed = 0
    while residuals < 300:
        seed += 1
        k = rng.randint(2, 4)
        inst = gen_random_instance(
            GeneratorConfig(seed=9000 + seed, k=k, n=rng.randint(k + 3, 16),
                            num_paths=rng.randint(0, 12), max_path_len=rng.randint(1, 6),
                            t_policy=rng.choice(["random", "opt", "opt-1", "opt+1"]))
        )
        pre = preprocess(inst)
        if pre.t_remaining < 0 or not high_degree_set(connect_components(pre.graph)):
            continue  # solve answers before the branch scan
        residuals += 1
        verdicts[assert_same_scan(inst).solution_cost is not None] += 1
    assert verdicts[False] > 50 and verdicts[True] > 100, verdicts


def test_twelve_petal_flower_scans_one_all_opt_mask():
    # no crossing target, so some optimum leaves the core out: at t = opt
    # the scan reaches the all-opt mask of S' = {} as its only branch
    g, targets = petal_instance(random.Random(5), 12, 0)
    sets = SetSystem.build(g.n, [frozenset(p) for p in targets])
    opt, _ = exact_min_hitting_set(sets, g.n)
    stats = assert_same_scan(make_instance(g, targets, opt))
    assert stats.branches_enumerated == 4096 and stats.branches_after_filter == 1


def test_wide_flower_scan_visits_only_admitted_masks():
    # a core joined to both ends of 28 petals of 30 vertices, each petal
    # with targets on positions 6-8 and 21-23, and two crossing targets from
    # one petal's end through the core into another petal: the optimum is
    # 2 * 28 + 1 = 57, and at t = 57 the filters admit 29 masks of S' = {}
    # (one petal at opt + 1, or none) and the all-opt mask of S' = {core}
    # out of 2 * 2^28; a scan over every mask took seconds at 26 petals
    z, length = 1, 30
    petals = [list(range(2 + a * length, 2 + (a + 1) * length)) for a in range(28)]
    edges = [e for p in petals for e in [(z, p[0]), *zip(p, p[1:]), (p[-1], z)]]
    targets = [tuple(p[lo - 1 : lo + 2]) for p in petals for lo in (6, 21)]
    targets += [(petals[0][-1], z, petals[1][0]), (petals[2][-1], z, petals[3][0])]
    g = Graph.build(1 + 28 * length, edges)
    inst = make_instance(g, targets, 57)
    stats = SolveStats()
    t0 = time.perf_counter()
    sol = solve(inst, stats)
    assert time.perf_counter() - t0 < 1.0
    check_yes(inst, sol)
    assert z in sol.chosen
    assert (stats.branches_enumerated, stats.branches_after_filter, stats.flower_calls) == (
        2 * 2**28, 30, 29)
    assert solve(make_instance(g, targets, 56)).verdict == "NO"
