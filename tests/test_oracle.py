import random

import pytest

from hitpaths import CapExceeded, Graph, ValidationError, make_flower
from hitpaths.oracle import SetSystem, default_cap, exact_min_hitting_set

from conftest import brute_min_hitting, random_graph
from reference import flower_bruteforce, has_k_clique


def test_hitting_set_examples():
    sys3 = SetSystem.build(3, [{1, 2}, {2, 3}, {1, 3}])
    size, witness = exact_min_hitting_set(sys3, 2)
    assert size == 2 and all(witness & s for s in sys3.sets)
    assert exact_min_hitting_set(SetSystem.build(3, []), 3) == (0, frozenset())
    assert exact_min_hitting_set(SetSystem.build(2, [{1}, {2}]), 1) == (None, None)


def test_hitting_set_empty_target_unhittable():
    assert exact_min_hitting_set(SetSystem.build(2, [set()]), 2) == (None, None)


def test_hitting_set_validation():
    with pytest.raises(ValidationError):
        SetSystem.build(2, [{3}])
    with pytest.raises(ValidationError):
        exact_min_hitting_set(SetSystem.build(1, []), -1)


def test_hitting_set_matches_bruteforce_random():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 8)
        sets = [
            {rng.randint(1, n) for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(0, 6))
        ]
        size, witness = exact_min_hitting_set(SetSystem.build(n, sets), n)
        assert size == brute_min_hitting(n, sets)
        if witness is not None:
            assert all(witness & s for s in sets) and len(witness) == size


def test_flower_bruteforce_basics():
    inst = make_flower(7, [(1, 2, 3), (4, 5, 6)], [1, 1], [(2,), (3, 7, 4)])
    sol = flower_bruteforce(inst)
    assert sol.verdict == "YES" and sol.chosen == frozenset({2, 4})
    assert flower_bruteforce(make_flower(3, [(1, 2)], [1], [(3,)])).verdict == "NO"


def test_flower_bruteforce_cap(monkeypatch):
    petals = [tuple(range(i * 20 + 1, i * 20 + 21)) for i in range(5)]
    big = make_flower(101, petals, [10] * 5, [])
    with pytest.raises(CapExceeded):
        flower_bruteforce(big)
    monkeypatch.setenv("HITPATHS_CAP", "123")
    assert default_cap() == 123


def test_has_k_clique():
    tri = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
    found, witness = has_k_clique(tri, 3)
    assert found and witness == (1, 2, 3)
    path = Graph.build(3, [(1, 2), (2, 3)])
    assert has_k_clique(path, 3) == (False, None)
    assert has_k_clique(path, 1)[0]
    with pytest.raises(ValidationError):
        has_k_clique(path, 0)


def test_has_k_clique_random_consistency():
    rng = random.Random(73)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 7))
        found, witness = has_k_clique(g, 3)
        if found:
            a, b, c = witness
            assert {(a, b), (b, c), (a, c)} <= g.edges


def test_hitting_set_search_has_no_depth_limit():
    singletons = SetSystem.build(1200, [{v} for v in range(1, 1201)])
    size, witness = exact_min_hitting_set(singletons, 1200)
    assert size == 1200 and witness == frozenset(range(1, 1201))


def test_hitting_set_search_respects_node_cap(monkeypatch):
    pairs = SetSystem.build(12, [{2 * i - 1, 2 * i} for i in range(1, 7)])
    assert exact_min_hitting_set(pairs, 6)[0] == 6
    monkeypatch.setenv("HITPATHS_CAP", "20")
    with pytest.raises(CapExceeded):
        exact_min_hitting_set(pairs, 6)
