import itertools
import random
import re
import time
from collections import Counter

import pytest

from hitpaths import (
    GE,
    LE,
    BoolCnf,
    CapExceeded,
    ClauseTooWide,
    SignedFormula,
    ValidationError,
    signed_to_classical,
    solve_2sat,
    solve_tors2sat,
)
from hitpaths.mvsat import satisfies

from conftest import random_signed_formula
from reference import cursor_solve_2sat, dense_signed_to_classical, enumerate_signed


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


def test_solve_2sat_checks_its_clauses():
    # x_3 = True satisfies this; a solver reading two literals per clause says UNSAT
    with pytest.raises(ClauseTooWide):
        solve_2sat(BoolCnf(3, ((1, 2, 3), (-1,), (-2,))))
    for clause in ((1, 5), (0,), (-2,), (1, 0)):
        with pytest.raises(ValidationError):
            solve_2sat(BoolCnf(1, (clause,)))
    with pytest.raises(ValidationError):  # checked also after an empty clause
        solve_2sat(BoolCnf(1, ((), (2,))))


def test_solve_2sat_models_match_cursor_reference():
    rng = random.Random(47)
    verdicts = Counter()
    for _ in range(400):
        nv = rng.randint(0, 12)
        clauses = []
        for _ in range(rng.randint(0, 3 * nv)):
            lit = rng.choice([1, -1]) * rng.randint(1, nv)
            shape = rng.random()
            if shape < 0.2:
                clauses.append((lit,))
            elif shape < 0.3:
                clauses.append((lit, lit))
            else:
                clauses.append((lit, rng.choice([1, -1]) * rng.randint(1, nv)))
            if rng.random() < 0.1:
                clauses.append(clauses[rng.randrange(len(clauses))])
        if rng.random() < 0.05:
            clauses.insert(rng.randint(0, len(clauses)), ())
        cnf = BoolCnf(nv, tuple(clauses))
        model = solve_2sat(cnf)
        assert model == cursor_solve_2sat(cnf), cnf
        verdicts[model is None] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_encoding_single_ge_clause():
    f = SignedFormula(1, 3, (((1, GE, 2),),))
    cnf, decode = signed_to_classical(f)
    # one boolean, for the one named threshold: no chain and no unit for x_1 >= 1
    assert cnf == BoolCnf(1, ((1,),))
    assert decode([False, True]) == (2,)
    assert decode([False, False]) == (1,)
    two = SignedFormula(1, 3, (((1, GE, 3),), ((1, LE, 1),)))
    cnf, decode = signed_to_classical(two)
    # [x_1 >= 2] is boolean 1 and [x_1 >= 3] boolean 2, linked by one chain clause
    assert cnf == BoolCnf(2, ((2,), (-1,), (-2, 1)))
    assert decode([False, True, True]) == (3,)


def test_encoding_drops_trivial_le():
    f = SignedFormula(
        2,
        3,
        (
            ((1, LE, 3),),
            ((1, GE, 2), (2, GE, 1)),
        ),
    )
    cnf, decode = signed_to_classical(f)
    # both clauses always hold, so nothing names a threshold
    assert cnf == BoolCnf(0, ())
    assert decode([False]) == (1, 1)


def test_encoding_propagates_empty_clause():
    f = SignedFormula(1, 2, ((),))
    cnf, _ = signed_to_classical(f)
    assert () in cnf.clauses
    assert solve_tors2sat(f) is None


def test_encoding_rejects_wide_clauses():
    wide = SignedFormula(1, 2, (((1, GE, 1),) * 3,))
    with pytest.raises(ClauseTooWide):
        signed_to_classical(wide)


def test_tors2sat_examples():
    f = SignedFormula(2, 3, (((1, GE, 2), (2, LE, 1)),))
    assert solve_tors2sat(f) is not None
    contradiction = SignedFormula(
        1, 3, (((1, GE, 2),), ((1, LE, 1),))
    )
    assert solve_tors2sat(contradiction) is None
    empty = SignedFormula(3, 4, ())
    assert solve_tors2sat(empty) == (1, 1, 1)  # decoder floor


def test_tors2sat_takes_plain_triples():
    # SignedFormula accepts plain (var, op, bound) literals, so every reader unpacks them
    f = SignedFormula(1, 3, (((1, ">=", 2),),))
    assert solve_tors2sat(f) == (2,) == enumerate_signed(f)
    g = SignedFormula(2, 3, (((1, LE, 1), (2, GE, 3)), ((1, GE, 2),)))
    assert solve_tors2sat(g) == (2, 3) == enumerate_signed(g)
    assert satisfies(g, (2, 3)) and not satisfies(g, (3, 2)) and not satisfies(g, (1, 3))


def test_signed_formula_rejects_each_bad_literal():
    for lit in [(1, GE, 1), (2, LE, 3), (2, GE, 3)]:  # the extremes are in range
        assert SignedFormula(2, 3, ((lit,),)).clauses == ((lit,),)
    for lit, message in [
        ((0, GE, 1), "variable x_0 out of range"),
        ((3, LE, 2), "variable x_3 out of range"),
        ((1, GE, 0), "bound 0 out of range 1..3"),
        ((2, LE, 4), "bound 4 out of range 1..3"),
        ((1, "==", 2), "bad literal op '=='"),
        ((1, ">", 2), "bad literal op '>'"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            SignedFormula(2, 3, (((1, GE, 2), lit),))


def test_signed_formula_replace_and_make_run_the_checks():
    f = SignedFormula(1, 3, ())
    with pytest.raises(ValidationError, match=re.escape("variable x_5 out of range")):
        f._replace(clauses=(((5, GE, 1),),))
    with pytest.raises(ValidationError, match=re.escape("bound 3 out of range 1..2")):
        SignedFormula(1, 3, (((1, LE, 3),),))._replace(num_values=2)
    with pytest.raises(ValidationError, match=re.escape("bad literal op '=='")):
        SignedFormula._make((1, 3, (((1, "==", 2),),)))
    assert f._replace(num_vars=2, clauses=(((2, GE, 3),),)) == (2, 3, (((2, GE, 3),),))
    assert type(SignedFormula._make([1, 3, ()])) is SignedFormula


def named_thresholds(f: SignedFormula) -> list[tuple[int, int]]:
    """The (variable, threshold) pairs the clauses that can fail name, in
    the encoder's boolean order: b for x >= b and b + 1 for x <= b."""
    named = set()
    for clause in f.clauses:
        pairs = [(var, b if op == GE else b + 1) for var, op, b in clause]
        if all(1 < j <= f.num_values for _, j in pairs):
            named.update(pairs)
    return sorted(named)


def test_decoded_models_are_monotone():
    rng = random.Random(31)
    for _ in range(200):
        f = random_signed_formula(rng, 4, 6, 2)
        cnf, decode = signed_to_classical(f)
        model = solve_2sat(cnf)
        if model is None:
            continue
        named = named_thresholds(f)
        for b, ((var, _), (nxt_var, _)) in enumerate(zip(named, named[1:]), 1):
            if var == nxt_var:
                assert not model[b + 1] or model[b]
        values = decode(model)
        for b, (var, j) in enumerate(named, 1):
            assert model[b] == (values[var - 1] >= j)


def test_encoding_matches_dense_reference():
    rng = random.Random(43)
    verdicts = Counter()
    for _ in range(2500):
        f = random_signed_formula(rng, 5, 8, 2, max_clauses=10)
        cnf, decode = signed_to_classical(f)
        assert cnf.num_vars == len(named_thresholds(f))
        model = solve_2sat(cnf)
        want = solve_2sat(dense_signed_to_classical(f)[0])
        assert (model is None) == (want is None)
        if model is not None:
            assert satisfies(f, decode(model))
        verdicts[model is None] += 1
    assert min(verdicts.values()) > 500, verdicts


def test_wide_domain_encoding_is_linear_in_the_formula():
    f = SignedFormula(
        3,
        10**5,
        (
            ((1, GE, 50000), (2, LE, 10)),
            ((2, GE, 11),),
            ((3, LE, 7), (1, LE, 3)),
        ),
    )
    t0 = time.perf_counter()
    values = solve_tors2sat(f)
    assert time.perf_counter() - t0 < 0.2
    assert values is not None and satisfies(f, values)
    assert signed_to_classical(f)[0].num_vars == 4


def test_enumerate_examples():
    f = SignedFormula(1, 2, (((1, GE, 2), (1, LE, 1)),))
    assert enumerate_signed(f) == (1,)
    unsat = SignedFormula(
        2,
        2,
        (
            ((1, GE, 2),),
            ((2, GE, 2),),
            ((1, LE, 1), (2, LE, 1)),
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
