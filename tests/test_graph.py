import pytest

from hitpaths import (
    Graph,
    NotAPath,
    ValidationError,
    connect_components,
    cyclomatic_number,
    high_degree_set,
    is_simple_path,
    path_components,
)


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


def test_is_simple_path():
    p3 = Graph.build(3, [(1, 2), (2, 3)])
    assert is_simple_path(p3, (1, 2, 3))
    assert is_simple_path(p3, (2,))
    assert not is_simple_path(p3, (1, 3))
    assert not is_simple_path(p3, (1, 2, 1))
    assert not is_simple_path(p3, ())
