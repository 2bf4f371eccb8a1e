import random
from collections import Counter

import pytest

from hitpaths import (
    Graph,
    InvariantViolation,
    NotAPath,
    PathComponent,
    ValidationError,
    connect_components,
    cyclomatic_number,
    high_degree_set,
    path_components,
    preprocess,
)
from hitpaths.graph import path_in
from hitpaths.reductions import GeneratorConfig, gen_random_instance

from conftest import disconnected_instance


def cycle(n):
    return Graph.build(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_build_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph.build(3, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph.build(3, [(1, 4)])
    with pytest.raises(ValidationError):
        Graph.build(3, [(1, 2), (2, 1)])


def test_cyclomatic_number_basics():
    path4 = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    assert cyclomatic_number(path4) == 0
    assert cyclomatic_number(cycle(4)) == 1
    k4 = Graph.build(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert cyclomatic_number(k4) == 3
    # isolated vertices count as components
    assert cyclomatic_number(Graph.build(3, [])) == 0


def test_high_degree_set():
    assert high_degree_set(cycle(4)) == []
    chord = Graph.build(4, list(cycle(4).edges) + [(1, 3)])
    assert high_degree_set(chord) == [1, 3]
    bowtie = Graph.build(5, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])
    assert high_degree_set(bowtie) == [1]


def test_path_components_of_c4():
    comps = path_components(cycle(4), {1, 3})
    assert [c.vertices for c in comps] == [(2,), (4,)]
    assert comps[0].attach_left == 1 and comps[0].attach_right == 3


def test_path_components_of_c6_single_cut():
    comps = path_components(cycle(6), {1})
    assert [c.vertices for c in comps] == [(2, 3, 4, 5, 6)]
    assert comps[0].attach_left == 1 and comps[0].attach_right == 1


def test_path_components_count_bound():
    chord = Graph.build(4, list(cycle(4).edges) + [(1, 3)])
    s = high_degree_set(chord)
    comps = path_components(chord, set(s))
    k = cyclomatic_number(chord)
    assert len(comps) == 2
    assert len(comps) <= k + len(s) - 1


def test_path_components_rejects_branching():
    star = Graph.build(4, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(NotAPath):
        path_components(star, set())


def test_connect_components_preserves_k():
    two_triangles = Graph.build(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    g2 = connect_components(two_triangles)
    assert len(g2.components()) == 1
    assert cyclomatic_number(g2) == 2
    assert connect_components(cycle(4)) == cycle(4)
    dust = connect_components(Graph.build(3, []))
    assert len(dust.components()) == 1 and cyclomatic_number(dust) == 0


def test_connect_components_matches_a_rebuild_with_the_bridges():
    # the bridged graph copies the validated neighbour sets; it must equal
    # a Graph.build of the input's edges plus the bridges
    rng = random.Random(113)
    bridged = 0
    for _ in range(300):
        inst = disconnected_instance(rng)
        for g in (inst.graph, preprocess(inst).graph):
            comps = g.components()
            bridges = [(comps[0][0], c[0]) for c in comps[1:]]
            got = connect_components(g)
            # a residual keeps the input's ids: build on 1..n, keep g's ids
            whole = Graph.build(inst.graph.n, [*g.edges, *bridges])
            kept = {v: whole.neighbours[v] for v in g.vertices()}
            assert got == Graph(g.n, whole.m, kept)
            assert list(got.vertices()) == list(g.vertices())
            bridged += bool(bridges)
    assert bridged > 400, bridged
    g = Graph.build(3, [(1, 2)])
    assert connect_components(g) == Graph.build(3, [(1, 2), (1, 3)])
    assert g == Graph.build(3, [(1, 2)])  # the input keeps its sets


def test_connect_components_rejects_a_bridge_between_adjacent_vertices():
    # a one-sided adjacency puts 3 in a component of its own, though its
    # set already lists 1, so the bridge (1, 3) would join adjacent vertices
    broken = Graph(3, 1, {1: set(), 2: set(), 3: {1}})
    with pytest.raises(InvariantViolation):
        connect_components(broken)


def test_is_simple_path():
    adj = Graph.build(3, [(1, 2), (2, 3)]).adjacency()
    assert path_in(adj, (1, 2, 3))
    assert path_in(adj, (2,))
    assert not path_in(adj, (1, 3))
    assert not path_in(adj, (1, 2, 1))
    assert not path_in(adj, ())


def components_then_walk(g, s):
    """The earlier path_components, kept as the reference: one component
    search over g - s, then a walk from each component's smaller end over
    sorted sub-adjacency lists, or round a cycle of g from its smallest
    vertex towards that vertex's smaller neighbour."""
    adj = g.adjacency()
    rest = [v for v in g.vertices() if v not in s]
    sub_adj = {v: sorted(w for w in adj[v] if w not in s) for v in rest}
    comps = []
    for comp in g.components(rest):
        n_edges = sum(len(sub_adj[v]) for v in comp) // 2
        if n_edges == len(comp) and all(len(adj[v]) == 2 for v in comp):
            order = [comp[0], sub_adj[comp[0]][0]]
            while len(order) < len(comp):
                a, b = sub_adj[order[-1]]
                order.append(b if a == order[-2] else a)
            comps.append(PathComponent(tuple(order), None, None))
            continue
        if n_edges != len(comp) - 1 or any(len(sub_adj[v]) > 2 for v in comp):
            raise NotAPath(f"component containing {min(comp)} is not an induced path")
        if len(comp) == 1:
            v = comp[0]
            s_nbrs = sorted(w for w in adj[v] if w in s)
            left = s_nbrs[0] if s_nbrs else None
            right = s_nbrs[-1] if s_nbrs else None
            comps.append(PathComponent((v,), left, right))
        else:
            first = min(v for v in comp if len(sub_adj[v]) <= 1)
            order = [first]
            prev, cur = None, first
            while len(order) < len(comp):
                nxt = [w for w in sub_adj[cur] if w != prev]
                prev, cur = cur, nxt[0]
                order.append(cur)
            left_nbrs = sorted(w for w in adj[order[0]] if w in s)
            right_nbrs = sorted(w for w in adj[order[-1]] if w in s)
            comps.append(
                PathComponent(
                    tuple(order),
                    left_nbrs[0] if left_nbrs else None,
                    right_nbrs[0] if right_nbrs else None,
                )
            )
    return comps


def outcome(fn, g, s):
    try:
        return fn(g, s)
    except NotAPath:
        return NotAPath


def test_path_components_matches_reference_on_residuals():
    rng = random.Random(79)
    compared = multi = 0
    while compared < 1500:
        k = rng.randint(0, 5)
        cfg = GeneratorConfig(
            seed=rng.randrange(10**9), k=k, n=rng.randint(k + 3, 60),
            num_paths=rng.randint(0, 4),
        )
        g = preprocess(gen_random_instance(cfg)).graph
        if g.n == 0:
            continue
        g = connect_components(g)
        s = set(high_degree_set(g))
        got = outcome(path_components, g, s)
        assert got == outcome(components_then_walk, g, s)
        compared += 1
        multi += len(got) > 1
    assert multi > 500
    # residuals left unbridged, at times with cycles beside other parts
    cycles = Counter()
    for _ in range(500):
        g = preprocess(disconnected_instance(rng)).graph
        s = set(high_degree_set(g))
        got = path_components(g, s)
        assert got == components_then_walk(g, s)
        rings = sum(comp.attach_left is None for comp in got)
        cycles[min(rings, 2), bool(s)] += 1
    # one or more cycles beside a part with S, and two or more cycles alone
    assert cycles[1, True] + cycles[2, True] > 100 and cycles[2, False] > 100, cycles
    # random sets s: the walk raises exactly when a vertex outside s does
    # not have degree 2, and otherwise matches the reference
    held = Counter()
    for _ in range(1500):
        k = rng.randint(1, 4)
        cfg = GeneratorConfig(seed=rng.randrange(10**9), k=k, n=rng.randint(k + 3, 30),
                              num_paths=0)
        g = connect_components(preprocess(gen_random_instance(cfg)).graph)
        s = {v for v in g.vertices() if rng.random() < 0.3}
        adj = g.adjacency()
        holds = all(len(adj[v]) == 2 for v in g.vertices() if v not in s)
        got = outcome(path_components, g, s)
        assert got == (components_then_walk(g, s) if holds else NotAPath)
        held[holds] += 1
    assert held[True] > 100 and held[False] > 100, held


def test_path_components_rejects_a_vertex_outside_s_of_degree_other_than_2():
    # a dangling path would come back with no attachment, like a cycle
    with pytest.raises(NotAPath):
        path_components(Graph.build(3, [(1, 2), (2, 3)]), set())
    # in K4, 1 and 4 have degree 3 although they form a path of G - {2, 3}
    k4 = Graph.build(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    with pytest.raises(NotAPath):
        path_components(k4, {2, 3})


def test_path_components_rejects_cycles_and_branching():
    # a cycle that S misses is a component of its own
    for fn in (path_components, components_then_walk):
        assert fn(cycle(5), set()) == [PathComponent((1, 2, 3, 4, 5), None, None)]
    # triangle 2-3-4 left in G - S once its only link 1 is removed
    hanging_triangle = Graph.build(4, [(1, 2), (2, 3), (3, 4), (2, 4), (1, 3)])
    # theta graph: 1 and 2 joined by three paths; 2 left out of S
    theta = Graph.build(6, [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)])
    for g, s in ((hanging_triangle, {1}), (theta, {1})):
        for fn in (path_components, components_then_walk):
            with pytest.raises(NotAPath):
                fn(g, s)


def dfs_components(g, vs=None):
    """The earlier Graph.components, kept as the reference: a membership
    test against a set of all vertices when vs is omitted."""
    adj = g.adjacency()
    inside = set(g.vertices() if vs is None else vs)
    seen = set()
    comps = []
    for start in sorted(inside):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def test_components_match_dfs_reference():
    rng = random.Random(31)
    several = isolated = 0
    for _ in range(1200):
        n = rng.randint(0, 40)
        # a few random trees over shuffled vertices, plus a few extra edges
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = set()
        for v in range(1, n):
            if rng.random() < 0.8:
                u = perm[rng.randrange(v)]
                edges.add((min(u, perm[v]), max(u, perm[v])))
        for _ in range(rng.randint(0, 4)):
            u, v = rng.sample(range(1, n + 1), 2) if n >= 2 else (0, 0)
            if u:
                edges.add((min(u, v), max(u, v)))
        g = Graph.build(n, edges)
        want = dfs_components(g)
        assert g.components() == want
        several += len(want) > 2
        isolated += any(len(c) == 1 for c in want)
        for _ in range(2):
            vs = [v for v in g.vertices() if rng.random() < 0.6]
            rng.shuffle(vs)
            assert g.components(vs) == dfs_components(g, vs)
    assert several > 300 and isolated > 300
