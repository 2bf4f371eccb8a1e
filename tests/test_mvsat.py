import itertools
import random

import pytest

from hitpaths import (
    GE,
    LE,
    BoolCnf,
    CapExceeded,
    ClauseTooWide,
    SignedFormula,
    SignedLiteral,
    signed_to_classical,
    solve_2sat,
    solve_tors2sat,
)
from hitpaths.mvsat import satisfies

from conftest import random_signed_formula
from reference import enumerate_signed


def truth_table_2sat(cnf: BoolCnf):
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        model = [False] + list(bits)
        if all(
            any(model[l] if l > 0 else not model[-l] for l in clause)
            for clause in cnf.clauses
        ):
            return model
    return None


def test_solve_2sat_examples():
    sat = solve_2sat(BoolCnf(2, ((1, 2), (-1, 2))))
    assert sat is not None and sat[2] is True
    assert solve_2sat(BoolCnf(1, ((1,), (-1,)))) is None
    model = solve_2sat(BoolCnf(2, ((1, 2), (-1, -2), (1, -2))))
    assert model is not None and model[1] is True and model[2] is False
    assert solve_2sat(BoolCnf(1, ((),))) is None


def test_solve_2sat_matches_truth_table():
    rng = random.Random(23)
    for _ in range(300):
        nv = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(0, 12)):
            width = rng.randint(1, 2)
            clauses.append(
                tuple(rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(width))
            )
        cnf = BoolCnf(nv, tuple(clauses))
        got = solve_2sat(cnf)
        want = truth_table_2sat(cnf)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(
                any(got[l] if l > 0 else not got[-l] for l in clause)
                for clause in cnf.clauses
            )


def test_encoding_single_ge_clause():
    f = SignedFormula(1, 3, ((SignedLiteral(1, GE, 2),),))
    cnf, _ = signed_to_classical(f)
    # literal clause, two monotone chain clauses, one unit for level 1
    assert (2,) in cnf.clauses and (1,) in cnf.clauses
    assert (-2, 1) in cnf.clauses and (-3, 2) in cnf.clauses
    assert len(cnf.clauses) == 4


def test_encoding_drops_trivial_le():
    f = SignedFormula(1, 3, ((SignedLiteral(1, LE, 3),),))
    cnf, _ = signed_to_classical(f)
    assert all(len(c) > 0 for c in cnf.clauses)
    assert len(cnf.clauses) == 3  # chains and unit only


def test_encoding_propagates_empty_clause():
    f = SignedFormula(1, 2, ((),))
    cnf, _ = signed_to_classical(f)
    assert () in cnf.clauses
    assert solve_tors2sat(f) is None


def test_encoding_rejects_wide_clauses():
    wide = SignedFormula(1, 2, ((SignedLiteral(1, GE, 1),) * 3,))
    with pytest.raises(ClauseTooWide):
        signed_to_classical(wide)


def test_tors2sat_examples():
    f = SignedFormula(2, 3, ((SignedLiteral(1, GE, 2), SignedLiteral(2, LE, 1)),))
    assert solve_tors2sat(f) is not None
    contradiction = SignedFormula(
        1, 3, ((SignedLiteral(1, GE, 2),), (SignedLiteral(1, LE, 1),))
    )
    assert solve_tors2sat(contradiction) is None
    empty = SignedFormula(3, 4, ())
    assert solve_tors2sat(empty) == (1, 1, 1)  # decoder floor


def test_decoded_models_are_monotone():
    rng = random.Random(31)
    for _ in range(200):
        f = random_signed_formula(rng, 4, 6, 2)
        cnf, _ = signed_to_classical(f)
        model = solve_2sat(cnf)
        if model is None:
            continue
        nvals = f.num_values
        for i in range(1, f.num_vars + 1):
            for j in range(1, nvals):
                assert not model[(i - 1) * nvals + j + 1] or model[(i - 1) * nvals + j]


def test_enumerate_examples():
    f = SignedFormula(1, 2, ((SignedLiteral(1, GE, 2), SignedLiteral(1, LE, 1)),))
    assert enumerate_signed(f) == (1,)
    unsat = SignedFormula(
        2,
        2,
        (
            (SignedLiteral(1, GE, 2),),
            (SignedLiteral(2, GE, 2),),
            (SignedLiteral(1, LE, 1), SignedLiteral(2, LE, 1)),
        ),
    )
    assert enumerate_signed(unsat) is None
    assert enumerate_signed(SignedFormula(0, 3, ())) == ()


def test_enumerate_is_lexicographically_first():
    rng = random.Random(37)
    for _ in range(100):
        f = random_signed_formula(rng, 3, 4, 3)
        got = enumerate_signed(f)
        want = next(
            (
                vals
                for vals in itertools.product(range(1, f.num_values + 1), repeat=f.num_vars)
                if satisfies(f, vals)
            ),
            None,
        )
        assert got == want


def test_enumerate_cap():
    f = SignedFormula(10, 10, ())
    with pytest.raises(CapExceeded):
        enumerate_signed(f, cap=10**6)


def test_tors2sat_agrees_with_enumeration():
    rng = random.Random(41)
    for _ in range(300):
        f = random_signed_formula(rng, 4, 6, 2)
        fast = solve_tors2sat(f)
        slow = enumerate_signed(f)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert satisfies(f, fast)


def test_enumerate_has_no_depth_limit():
    assert enumerate_signed(SignedFormula(3000, 1, ())) == (1,) * 3000
