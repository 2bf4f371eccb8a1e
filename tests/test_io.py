import random
import re
import time
from collections import Counter
from functools import partial

import pytest

from hitpaths import (
    GE,
    KIND_SUBGRAPHS,
    LE,
    Graph,
    HitPathsInstance,
    ParseError,
    SignedFormula,
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
from hitpaths import instance_io
from hitpaths.instance_io import certificate_for, unhit_targets
from hitpaths.reductions import GeneratorConfig, gen_random_instance

from conftest import random_graph, random_signed_formula
from reference import (
    certificate_for_sets,
    graph_build_two_pass,
    make_path_instance_one_by_one,
    parse_instance_two_pass,
    unhit_targets_sets,
)

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
    assert f.clauses == (((1, GE, 2), (2, LE, 1)),)


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


def test_write_signed_formula_of_plain_triples_roundtrips():
    f = SignedFormula(3, 4, (((1, GE, 2), (2, LE, 1)), ((3, LE, 4),), ()))
    text = write_signed_formula(f)
    assert text == "p scnf 3 4 3\n+1:2 -2:1 0\n-3:4 0\n0\n"
    assert parse_signed_formula(text) == f


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
        ((1, GE, 2), (2, LE, 1)),
    )


def _respell(rng, text, tags):
    """text with about half the vertex tokens of the lines tagged in tags
    spelled as int() reads them but str() never writes them: '+5', '05',
    '007'."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] in tags:
            first = 1 if tokens[0] == "e" else 2  # past the tag, and a target's size
            tokens[first:] = [
                rng.choice(("+", "0", "00")) + tok if rng.random() < 0.5 else tok
                for tok in tokens[first:]
            ]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def test_ids_in_other_spellings_parse_as_canonical_ones():
    # such a token is not in the id table, so its list goes through int()
    assert parse_instance("p hitpaths 7 1 1 0\ne +5 007\ns 2 5 7\n") == parse_instance(
        "p hitpaths 7 1 1 0\ne 5 7\ns 2 +5 007\n"
    )
    respelt = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        cfg = GeneratorConfig(
            seed=seed, k=rng.randint(0, 3), n=rng.randint(4, 12), num_paths=rng.randint(1, 8)
        )
        text = write_instance(gen_random_instance(cfg))
        want = parse_instance(text)
        for tags in ("e", "s", "es"):  # edge lines only, target lines only, both
            other = _respell(rng, text, tags)
            assert parse_instance(other) == want, other
            respelt[tags] += other != text
    assert min(respelt.values()) > 150, respelt


def test_id_table_holds_at_most_one_entry_per_token(monkeypatch):
    tables = []
    convert = instance_io._ints

    def spy(tokens, what, ids=None):
        if ids is not None:
            tables.append(ids)
        return convert(tokens, what, ids)

    monkeypatch.setattr(instance_io, "_ints", spy)
    parse_instance("p hitpaths 20000 1 1 0\ne 1 2\ns 1 2\n")  # 3 id tokens
    assert tables == [{"1": 1, "2": 2, "3": 3}] * 2
    tables.clear()
    t0 = time.perf_counter()
    parse_instance("p hitpaths 20000 0 0 0\n")
    assert time.perf_counter() - t0 < 2.0
    assert tables == [{}] * 2
    tables.clear()
    parse_instance(TRIANGLE)  # n = 3 below the 6 id tokens
    assert tables == [{"1": 1, "2": 2, "3": 3}] * 2


def _edit_instance_text(rng, text):
    """A valid instance text with 0 to 2 random edits from the ways a file
    can go wrong: comment and blank lines, a moved or repeated header, short,
    long or extra-token lines, self-loops, out-of-range ends, duplicate
    edges in either orientation, and miscounted headers."""
    lines = text.splitlines()
    n = int(lines[0].split()[2])
    for _ in range(rng.choice((0, 1, 1, 2))):
        at = rng.randint(1, len(lines))
        edges = [i for i, line in enumerate(lines) if line.startswith("e ") and len(line.split()) == 3]
        headers = [i for i, line in enumerate(lines) if line.startswith("p ")]
        edit = rng.randrange(12)
        if edit == 0:
            lines.insert(rng.randint(0, len(lines)), rng.choice(("", "   ", "c", "c e 1 1", "\t")))
        elif edit == 1:  # the header moves down or appears twice
            lines.insert(at, lines[0] if rng.random() < 0.5 else lines.pop(0))
        elif edit == 2:
            lines.insert(at, rng.choice(("e 1", "e", "e 1 2 3", "s", "s 2 1", "s 1 1 2", "x 1 2")))
        elif edit in (3, 4, 5):  # an edge line added, or one replaced to keep the count
            if edit == 3:
                v = rng.randint(1, n)
                ends = [v, v]
            elif edit == 4:
                ends = [rng.choice((0, -1, n + 1, n + 2)), rng.randint(1, n)]
            else:  # a duplicate edge, as written or reversed
                ends = lines[rng.choice(edges)].split()[1:] if edges else [1, 2]
            rng.shuffle(ends)
            if edges and rng.random() < 0.7:
                lines[rng.choice(edges)] = "e {} {}".format(*ends)
            else:
                lines.insert(at, "e {} {}".format(*ends))
        elif edit == 6 and edges:  # an edge written in the other orientation
            row = rng.choice(edges)
            _, u, v = lines[row].split()
            lines[row] = f"e {v} {u}"
        elif edit == 7 and headers:  # a header field off by one
            fields = lines[headers[0]].split()
            f = rng.randint(2, len(fields) - 1)
            fields[f] = str(int(fields[f]) + rng.choice((-1, 1)))
            lines[headers[0]] = " ".join(fields)
        elif edit == 8 and len(lines) > 1:  # a line lost
            del lines[rng.randint(1, len(lines) - 1)]
        elif edit == 9:
            lines.insert(at, f"s 2 {rng.randint(1, n)} {rng.randint(1, n)} {rng.randint(1, n)}")
        elif edit == 10:
            lines.insert(0, rng.choice(("p hitpaths 3 0 0", "p hitsub 2 0 0 0 0", "p other 1 0 0 0")))
        elif edit == 11:
            lines[0] = lines[0].replace("hitpaths", "hitsub")
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n"))


def _adjacency_from_edges(g):
    adj = {v: set() for v in g.vertices()}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def test_streaming_parse_matches_the_two_pass_reference():
    kinds = {}
    for seed in range(600):
        rng = random.Random(seed)
        cfg = GeneratorConfig(
            seed=seed, k=rng.randint(0, 3), n=rng.randint(4, 12), num_paths=rng.randint(0, 8)
        )
        text = _edit_instance_text(rng, write_instance(gen_random_instance(cfg)))
        got = _outcome(parse_instance, text)
        assert got == _outcome(parse_instance_two_pass, text), text
        kind = "ok" if isinstance(got, HitPathsInstance) else got[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "ok":
            assert got.graph.adjacency() == _adjacency_from_edges(got.graph)
    # the corpus reaches valid files and both kinds of error
    assert min(kinds.values()) >= 50 and set(kinds) == {"ok", ParseError, ValidationError}


def test_graph_build_stores_the_adjacency_of_its_edges():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert g.adjacency() is g.neighbours  # stored by build, not rebuilt per call
        assert g.adjacency() == _adjacency_from_edges(g) and g.m == len(g.edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        if edges and rng.random() < 0.5:
            edges.insert(rng.randint(0, len(edges)), rng.choice(edges)[::-1])
        expected = _outcome(partial(graph_build_two_pass, g.n), edges)
        assert _outcome(partial(Graph.build, g.n), edges) == expected


def _sparse_edges(rng, n):
    """A random tree on 1..n plus up to three more edges, shuffled, each
    written in a random orientation."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for _ in range(rng.randint(0, 3) if n > 2 else 0):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in sorted(edges)]
    rng.shuffle(edges)
    return edges


def _size(rng):
    """n from 0 to about 2,000: small graphs, and ones at benchmark size."""
    return rng.choice((rng.randint(0, 12), rng.randint(13, 2000)))


def test_bulk_graph_build_matches_the_two_pass_reference():
    faults = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        n = _size(rng)
        edges = _sparse_edges(rng, n)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            fault = rng.choice(("self-loop", "off the graph", "duplicate"))
            if fault == "self-loop" and n:
                v = rng.randint(1, n)
                edge = (v, v)
            elif fault == "off the graph":
                edge = (rng.choice((0, n + 1)), rng.randint(1, max(n, 1)))
                edge = edge[::-1] if rng.random() < 0.5 else edge
            elif edges:  # a duplicate, as written or reversed
                edge = rng.choice(edges)
                edge = edge[::-1] if rng.random() < 0.5 else edge
            else:
                continue
            edges.insert(rng.randint(0, len(edges)), edge)
            faults[fault] += 1
        want = _outcome(partial(graph_build_two_pass, n), edges)
        assert _outcome(partial(Graph.build, n), edges) == want
        assert _outcome(partial(Graph.build, n), iter(edges)) == want  # read once
        us, ws = [u for u, _ in edges], [w for _, w in edges]
        assert _outcome(lambda _: Graph.from_ends(n, us, ws), None) == want
        faults["valid" if isinstance(want, Graph) else want[0].__name__] += 1
    assert min(faults.values()) >= 20, faults


def test_graph_build_reads_each_edge_as_a_pair():
    # an edge that is not a pair fails to unpack as in any loop over pairs,
    # and one of any iterable type of two ends is read as a pair
    for edges in ([(1, 2, 3)], [(1, 2), (3,)], [(1, 2), (2, 3, 1)], [(1, 2), 3]):
        with pytest.raises((ValueError, TypeError)):
            Graph.build(3, edges)
    want = Graph.build(3, [(1, 2), (2, 3)])
    ones = (zip((1, 3), (2, 2)), ((u, u + 1) for u in (1, 2)), {(1, 2), (2, 3)}, [iter((1, 2)), [3, 2]])
    for edges in ones:
        assert Graph.build(3, edges) == want


def _simple_path(rng, adj, n):
    """A random simple path of 1 to 8 vertices, grown from a random start."""
    path = [rng.randint(1, n)]
    while len(path) < rng.randint(1, 8):
        steps = sorted(adj[path[-1]].difference(path))
        if not steps:
            break
        path.append(rng.choice(steps))
    return tuple(path)


def test_bulk_target_checks_match_the_one_by_one_reference():
    faults = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        n = max(_size(rng), 2)
        g = Graph.build(n, _sparse_edges(rng, n))
        adj = g.adjacency()
        targets = [_simple_path(rng, adj, n) for _ in range(rng.randint(0, n // 3 + 2))]
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            p = _simple_path(rng, adj, n)
            fault = rng.choice(("empty", "repeat", "non-edge", "off", "last", "lone off"))
            if fault == "empty":
                p = ()
            elif fault == "repeat":  # the walk steps back along an edge
                p = p + p[-2:-1] if len(p) > 1 else (p[0], p[0])
            elif fault in ("non-edge", "last"):
                u = rng.randint(1, n)
                w = rng.choice([x for x in range(1, n + 1) if x != u and x not in adj[u]] or [u])
                at = rng.randint(0, len(p))
                p = p[:at] + (u, w) + p[at:] if w != u else ()
            elif fault == "off":
                p = (0,) + p if rng.random() < 0.5 else p + (n + 1,)
            else:
                p = (rng.choice((0, -1, n + 1)),)
            at = len(targets) if fault == "last" else rng.randint(0, len(targets))
            targets.insert(at, p)
            faults[fault] += 1
        t = rng.randint(0, n)
        want = _outcome(lambda ps: make_path_instance_one_by_one(g, ps, t), targets)
        assert _outcome(lambda ps: make_instance(g, ps, t), targets) == want
        assert _outcome(lambda ps: make_instance(g, iter(map(list, ps)), t), targets) == want
        faults["valid" if isinstance(want, HitPathsInstance) else "rejected"] += 1
    assert min(faults.values()) >= 15, faults


def test_target_checks_match_the_set_building_reference():
    for seed in range(300):
        rng = random.Random(seed)
        cfg = GeneratorConfig(
            seed=seed, k=rng.randint(0, 3), n=rng.randint(4, 12), num_paths=rng.randint(0, 8)
        )
        inst = gen_random_instance(cfg)
        chosen = rng.sample(range(1, cfg.n + 1), rng.randint(0, cfg.n))
        assert unhit_targets(inst, chosen) == unhit_targets_sets(inst, chosen)
        assert certificate_for(inst.paths, chosen) == certificate_for_sets(inst.paths, chosen)
        full = range(1, cfg.n + 1)
        assert certificate_for(inst.paths, full) == certificate_for_sets(inst.paths, full)


def test_make_instance_rejects_ids_other_than_1_to_n():
    # the last id is n, but id 1 is missing: solve used to fail in preprocess
    with pytest.raises(ValidationError, match="1..n"):
        make_instance(Graph(3, 1, {2: {3}, 3: {2}}), [(2, 3)], 1)
    with pytest.raises(ValidationError, match="1..n"):  # first and last fit, one id short
        make_instance(Graph(3, 1, {1: {3}, 3: {1}}), [(1, 3)], 1)
    with pytest.raises(ValidationError, match="1..n"):  # an id but n = 0
        make_instance(Graph(0, 0, {1: set()}), [], 0)
    assert make_instance(Graph(0, 0, {}), [], 0).graph.n == 0
