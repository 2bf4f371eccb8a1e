import random

import pytest

from hitpaths import (
    GE,
    LE,
    Interval,
    SignedLiteral,
    ValidationError,
    canonical_solution,
    canonical_table,
    fragment_literal,
    make_flower,
    solve_flower,
)
from hitpaths.oracle import flower_bruteforce

from conftest import random_flower

PETAL = [Interval(2, 3), Interval(5, 5)]  # on a petal of length 5, budget 2


def defined_indices(table):
    return [ell for ell in range(1, len(table)) if table[ell] is not None]


def test_canonical_solution_worked_example():
    assert canonical_solution(5, PETAL, 2, 2) == frozenset({2, 5})
    assert canonical_solution(5, PETAL, 2, 1) is None  # builds {1,3,5}, too big
    assert canonical_solution(5, PETAL, 2, 4) is None  # interval [2,3] left behind
    assert defined_indices(canonical_table(5, PETAL, 2)) == [2, 3]


def test_canonical_range_trivia():
    assert defined_indices(canonical_table(4, [], 1)) == [1, 2, 3, 4]
    assert defined_indices(canonical_table(4, [], 5)) == []
    with pytest.raises(ValidationError):
        canonical_solution(4, [], 1, 5)


def test_canonical_laws_random():
    rng = random.Random(47)
    for _ in range(400):
        length = rng.randint(1, 10)
        ivs = [
            Interval(lo, rng.randint(lo, length))
            for lo in (rng.randint(1, length) for _ in range(rng.randint(0, 6)))
        ]
        b = rng.randint(1, 4)
        table = canonical_table(length, ivs, b)
        defined = [ell for ell in range(1, length + 1) if table[ell] is not None]
        for ell in defined:
            sol = table[ell]
            assert min(sol) == ell and len(sol) == b
            assert all(any(iv.contains(p) for p in sol) for iv in ivs)
        # defined indices are contiguous
        if defined:
            assert defined == list(range(defined[0], defined[-1] + 1))
        # rightmost positions grow with the index
        maxima = [max(table[ell]) for ell in defined]
        assert maxima == sorted(maxima)


def test_fragment_literals():
    table = canonical_table(5, PETAL, 2)
    assert fragment_literal(1, Interval(1, 3), 5, table) == SignedLiteral(1, LE, 3)
    assert fragment_literal(1, Interval(5, 5), 5, table) == SignedLiteral(1, GE, 2)
    short = canonical_table(3, [Interval(2, 2)], 1)
    assert fragment_literal(2, Interval(3, 3), 3, short) is None
    with pytest.raises(ValidationError):
        fragment_literal(1, Interval(2, 3), 5, table)


def test_make_flower_validation():
    with pytest.raises(ValidationError):
        make_flower(7, [(1, 2), (2, 3)], [1, 1], [])  # vertex reuse
    with pytest.raises(ValidationError):
        make_flower(7, [(1, 2)], [0], [])
    with pytest.raises(ValidationError):
        make_flower(7, [(1, 2), (3, 4)], [1, 1], [(2, 3)])  # not adjacent
    with pytest.raises(ValidationError):
        make_flower(7, [(1, 2)], [1], [], core_links={2, 3})


def test_solve_flower_worked_example():
    inst = make_flower(7, [(1, 2, 3), (4, 5, 6)], [1, 1], [(2,), (3, 7, 4)])
    sol = solve_flower(inst)
    assert sol.verdict == "YES" and sol.chosen == frozenset({2, 4})


def test_solve_flower_core_singleton_is_no():
    inst = make_flower(3, [(1, 2)], [1], [(3,)])
    assert solve_flower(inst).verdict == "NO"


def test_solve_flower_no_paths():
    inst = make_flower(3, [(1, 2)], [1], [])
    sol = solve_flower(inst)
    assert sol.verdict == "YES" and sol.chosen == frozenset({1})


def test_solve_flower_respects_partial_core_links():
    # petal (1,2) wired to the core only at vertex 1
    inst = make_flower(3, [(1, 2)], [1], [(3, 1)], core_links={1})
    assert solve_flower(inst).verdict == "YES"
    with pytest.raises(ValidationError):
        make_flower(3, [(1, 2)], [1], [(2, 3)], core_links={1})


def test_solve_flower_matches_bruteforce_random():
    rng = random.Random(53)
    for _ in range(300):
        inst = random_flower(rng)
        fast = solve_flower(inst)
        slow = flower_bruteforce(inst)
        assert fast.verdict == slow.verdict
        if fast.verdict == "YES":
            assert inst.core not in fast.chosen
            for petal, b in zip(inst.petals, inst.budgets):
                assert len(fast.chosen.intersection(petal)) == b
            assert all(fast.chosen.intersection(p) for p in inst.paths)
