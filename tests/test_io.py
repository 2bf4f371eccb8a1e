import random
import re
import time

import pytest

from hitpaths import (
    GE,
    KIND_SUBGRAPHS,
    LE,
    Graph,
    ParseError,
    SignedLiteral,
    Solution,
    ValidationError,
    make_instance,
    parse_instance,
    parse_signed_formula,
    parse_solution,
    write_instance,
    write_signed_formula,
    write_solution,
)
from hitpaths.reductions import GeneratorConfig, gen_random_instance

from conftest import random_signed_formula

TRIANGLE = "p hitpaths 3 3 1 1\ne 1 2\ne 2 3\ne 1 3\ns 2 1 2\n"


def test_parse_triangle():
    inst = parse_instance(TRIANGLE)
    assert inst.graph.n == 3 and inst.graph.m == 3
    assert inst.paths == ((1, 2),) and inst.t == 1


def test_parse_rejects_non_path_target():
    text = "p hitpaths 3 2 1 1\ne 1 2\ne 2 3\ns 2 1 3\n"
    with pytest.raises(ValidationError):
        parse_instance(text)


def test_parse_rejects_disconnected_subgraph_target():
    text = "p hitsub 3 2 1 1\ne 1 2\ne 2 3\ns 2 1 3\n"
    with pytest.raises(ValidationError):
        parse_instance(text)


def test_parse_rejects_count_mismatches():
    with pytest.raises(ParseError):
        parse_instance("p hitpaths 3 2 0 0\ne 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("p hitpaths 3 1 1 0\ne 1 2\ns 3 1 2\n")
    with pytest.raises(ParseError):
        parse_instance("q hitpaths 3 0 0 0\n")


def test_comments_and_blank_lines_ignored():
    text = "c a triangle\n\n" + TRIANGLE
    assert parse_instance(text) == parse_instance(TRIANGLE)


def test_instance_roundtrip_random():
    for seed in range(30):
        rng = random.Random(seed)
        cfg = GeneratorConfig(
            seed=seed,
            k=rng.randint(0, 3),
            n=rng.randint(4, 12),
            num_paths=rng.randint(0, 8),
        )
        inst = gen_random_instance(cfg)
        assert parse_instance(write_instance(inst)) == inst


def test_subgraph_instance_roundtrip():
    g = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    inst = make_instance(g, [(1, 2, 3), (4,)], 2, KIND_SUBGRAPHS)
    assert parse_instance(write_instance(inst)) == inst


def test_parse_formula():
    f = parse_signed_formula("p scnf 2 3 1\n+1:2 -2:1 0\n")
    assert f.num_vars == 2 and f.num_values == 3
    assert f.clauses == ((SignedLiteral(1, GE, 2), SignedLiteral(2, LE, 1)),)


def test_parse_formula_errors():
    with pytest.raises(ValidationError):
        parse_signed_formula("p scnf 1 3 1\n+1:4 0\n")
    with pytest.raises(ValidationError):
        parse_signed_formula("p scnf 1 3 1\n+2:1 0\n")
    with pytest.raises(ParseError):
        parse_signed_formula("p scnf 1 3 1\n+1:2\n")
    with pytest.raises(ParseError):
        parse_signed_formula("p scnf 1 3 1\nx1>=2 0\n")


def test_parse_formula_accepts_empty_clause():
    f = parse_signed_formula("p scnf 1 3 1\n0\n")
    assert f.clauses == ((),)


def test_formula_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        f = random_signed_formula(rng, 4, 6, 3)
        assert parse_signed_formula(write_signed_formula(f)) == f


def test_solution_roundtrip():
    assert write_solution(Solution("YES", frozenset({2, 4}))) == "s 2 2 4\n"
    assert write_solution(Solution("NO")) == "s -1\n"
    assert write_solution(Solution("YES", frozenset())) == "s 0\n"
    for sol in (Solution("YES", frozenset({1, 5, 3})), Solution("NO"), Solution("YES")):
        back = parse_solution(write_solution(sol))
        assert back.verdict == sol.verdict and back.chosen == sol.chosen


def test_parse_solution_errors():
    with pytest.raises(ParseError):
        parse_solution("s 2 1\n")
    with pytest.raises(ValidationError):
        parse_solution("s 2 1 1\n")
    with pytest.raises(ParseError):
        parse_solution("s -1 3\n")


def test_fuzzed_bytes_error_cleanly():
    rng = random.Random(99)
    for _ in range(200):
        junk = "".join(rng.choice("ps echitab 0123456789-+:\n ") for _ in range(40))
        try:
            parse_instance(junk)
        except (ParseError, ValidationError):
            pass


def test_hitsub_parse_is_fast_on_many_targets():
    # each target's connectivity check reuses the graph's adjacency
    n = 4000
    lines = [f"p hitsub {n} {n - 1} {n} 1"]
    lines += [f"e {v} {v + 1}" for v in range(1, n)]
    lines += [f"s 2 {v} {v + 1}" for v in range(1, n)] + ["s 2 1 2"]
    t0 = time.perf_counter()
    inst = parse_instance("\n".join(lines) + "\n")
    assert time.perf_counter() - t0 < 2.0
    assert inst.kind == KIND_SUBGRAPHS and len(inst.paths) == n


def test_bad_target_vertex_token_is_named():
    for word in ("hitpaths", "hitsub"):
        for bad in ("x", "2.0", "1e3", "--1"):
            text = f"p {word} 3 2 1 1\ne 1 2\ne 2 3\ns 3 1 {bad} 3\n"
            with pytest.raises(ParseError, match=f"bad vertex token '{re.escape(bad)}'"):
                parse_instance(text)
    # edge and header tokens are named the same way
    with pytest.raises(ParseError, match="bad vertex token 'y'"):
        parse_instance("p hitpaths 3 2 0 0\ne 1 2\ne y 3\n")
    with pytest.raises(ParseError, match="bad header field token '1.5'"):
        parse_instance("p hitpaths 3 1.5 0 0\n")
    # tokens int() accepts still parse as before
    inst = parse_instance("p hitpaths 3 2 1 1\ne 1 2\ne 2 3\ns 3 +1 02 3\n")
    assert inst.paths == ((1, 2, 3),)


def test_integers_are_ascii_decimals_only():
    # int() alone takes digit-group underscores and any Unicode digit
    for bad in ("1_0", "٣", "３", "²", "+_1", "1__0"):
        with pytest.raises(ParseError, match=f"bad header field token '{re.escape(bad)}'"):
            parse_instance(f"p hitpaths {bad} 0 0 0\n")
        with pytest.raises(ParseError, match=f"bad vertex token '{re.escape(bad)}'"):
            parse_instance(f"p hitpaths 12 1 0 0\ne 1 {bad}\n")
        with pytest.raises(ParseError, match=f"bad target size token '{re.escape(bad)}'"):
            parse_instance(f"p hitpaths 12 0 1 0\ns {bad} 1\n")
        with pytest.raises(ParseError, match=f"bad vertex token '{re.escape(bad)}'"):
            parse_instance(f"p hitsub 12 0 1 0\ns 2 1 {bad}\n")
        with pytest.raises(ParseError, match="bad (variable index|bound) token"):
            parse_signed_formula(f"p scnf 12 12 1\n+{bad}:1 -1:{bad} 0\n")
        with pytest.raises(ParseError, match="bad (solution size|vertex) token"):
            parse_solution(f"s {bad} 1\n")
        with pytest.raises(ParseError, match=f"bad vertex token '{re.escape(bad)}'"):
            parse_solution(f"s 2 1 {bad}\n")
    with pytest.raises(ParseError, match="bad vertex token '1_0'"):
        parse_instance("p hitpaths 10 0 1 0\ns 1 1_0\n")
    # signs, leading zeros and comments in any script still parse
    text = "c résumé of a_b\np hitpaths 3 2 1 -0\ne 1 2\ne +2 03\ns 3 +1 02 3\n"
    inst = parse_instance(text)
    assert inst.paths == ((1, 2, 3),) and inst.t == 0
    assert parse_solution("s 2 +4 007\n").chosen == frozenset({4, 7})
    assert parse_signed_formula("p scnf 2 3 1\n+01:2 -2:+1 0\n").clauses == (
        (SignedLiteral(1, GE, 2), SignedLiteral(2, LE, 1)),
    )
