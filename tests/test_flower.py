import random
from collections import Counter

import pytest

from hitpaths import (
    GE,
    LE,
    SignedFormula,
    ValidationError,
    canonical_table,
    fragment_literal,
    make_flower,
    solve_2sat,
    solve_flower,
    stab_intervals,
)
from hitpaths.flower import FlowerInstance

from conftest import random_flower
from reference import dense_signed_to_classical, eager_canonical_table, flower_bruteforce

PETAL = [(2, 3), (5, 5)]  # on a petal of length 5, budget 2


def defined_indices(table):
    return [ell for ell in range(1, len(table)) if table[ell] is not None]


def test_canonical_solution_worked_example():
    table = canonical_table(5, PETAL, 2)
    assert table[2] == frozenset({2, 5})
    assert table[1] is None  # builds {1,3,5}, too big
    assert table[4] is None  # interval [2,3] left behind
    assert defined_indices(table) == [2, 3]


def test_canonical_range_trivia():
    assert defined_indices(canonical_table(4, [], 1)) == [1, 2, 3, 4]
    assert defined_indices(canonical_table(4, [], 5)) == []


def test_canonical_laws_random():
    rng = random.Random(47)
    for _ in range(400):
        length = rng.randint(1, 10)
        ivs = [
            (lo, rng.randint(lo, length))
            for lo in (rng.randint(1, length) for _ in range(rng.randint(0, 6)))
        ]
        b = rng.randint(1, 4)
        table = canonical_table(length, ivs, b)
        defined = [ell for ell in range(1, length + 1) if table[ell] is not None]
        for ell in defined:
            sol = table[ell]
            assert min(sol) == ell and len(sol) == b
            assert all(any(lo <= p <= hi for p in sol) for lo, hi in ivs)
        # defined indices are contiguous
        if defined:
            assert defined == list(range(defined[0], defined[-1] + 1))
        # rightmost positions grow with the index
        maxima = [max(table[ell]) for ell in defined]
        assert maxima == sorted(maxima)


def test_fragment_literals():
    table = canonical_table(5, PETAL, 2)
    assert fragment_literal(1, (1, 3), table) == (1, LE, 3)
    assert fragment_literal(1, (5, 5), table) == (1, GE, 2)
    short = canonical_table(3, [(2, 2)], 1)
    assert fragment_literal(2, (3, 3), short) is None
    with pytest.raises(ValidationError):
        fragment_literal(1, (2, 3), table)


def test_fragment_literal_rejects_out_of_range():
    # a fragment must lie on the petal: 1 <= lo <= hi <= L
    table = canonical_table(5, PETAL, 2)
    for bad in [(0, 5), (-3, 5), (1, 9), (3, 2), (1, 0), (6, 6)]:
        with pytest.raises(ValidationError, match="out of range"):
            fragment_literal(1, bad, table)
    assert fragment_literal(1, (1, 5), table) == (1, LE, 5)


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


def rescanning_canonical_solution(petal_length, internal_paths, budget, ell):
    """The earlier canonical_solution, kept as the reference: it rescans
    every interval against every chosen point until all are hit."""
    if any(hi < ell for _, hi in internal_paths):
        return None
    chosen = {ell}
    while True:
        unhit = [(lo, hi) for lo, hi in internal_paths if not any(lo <= p <= hi for p in chosen)]
        if not unhit:
            break
        chosen.add(min(hi for _, hi in unhit))
    pad = petal_length
    while len(chosen) < budget and pad >= ell:
        chosen.add(pad)
        pad -= 1
    return frozenset(chosen) if len(chosen) == budget else None


def random_petal_intervals(rng, length):
    """Intervals with ties in hi, nesting, duplicates and, at times, all of
    them crowded to the left so that late indices lie past every one."""
    left = rng.random() < 0.2
    ivs = []
    for _ in range(rng.randint(0, 8)):
        shape = rng.random()
        if ivs and shape < 0.2:
            ivs.append(rng.choice(ivs))  # duplicate
        elif ivs and shape < 0.4:
            outer_lo, outer_hi = rng.choice(ivs)  # nested inside another
            lo = rng.randint(outer_lo, outer_hi)
            ivs.append((lo, rng.randint(lo, outer_hi)))
        elif ivs and shape < 0.6:
            _, hi = rng.choice(ivs)  # same right end as another
            ivs.append((rng.randint(1, hi), hi))
        else:
            top = max(1, length // 3) if left else length
            lo = rng.randint(1, top)
            ivs.append((lo, rng.randint(lo, top)))
    return ivs


def test_canonical_table_matches_rescanning_reference():
    rng = random.Random(59)
    for _ in range(2500):
        length = rng.randint(1, 12)
        ivs = random_petal_intervals(rng, length)
        budget = rng.randint(1, length + 1)
        distinct = sorted(set(ivs))
        for given in (ivs, distinct):
            expected = [None] + [
                rescanning_canonical_solution(length, given, budget, ell)
                for ell in range(1, length + 1)
            ]
            assert list(canonical_table(length, given, budget)) == expected


def test_canonical_table_matches_eager_reference():
    # the same petals as above, against the table that builds every
    # solution up front: slots, first index and maxima must all agree
    rng = random.Random(59)
    for _ in range(2500):
        length = rng.randint(1, 12)
        ivs = random_petal_intervals(rng, length)
        budget = rng.randint(1, length + 1)
        distinct = sorted(set(ivs))
        for given in (ivs, distinct):
            slots, first, maxima = eager_canonical_table(length, given, budget)
            table = canonical_table(length, given, budget)
            assert list(table) == slots and len(table) == length + 1
            assert (table.first, table.maxima) == (first, maxima)
            assert all(m == max(table[first + j]) for j, m in enumerate(table.maxima))


def classify_by_second_walk(inst):
    """The earlier _classify_paths, kept as the reference for the split that
    make_flower now does: (internal spans, crossing fragment lists, whether
    some target is the bare core)."""
    pos = {}
    for i, p in enumerate(inst.petals):
        for j, v in enumerate(p):
            pos[v] = (i, j + 1)
    internal = [[] for _ in inst.petals]
    crossing = []
    core_singleton = False
    for path in inst.paths:
        if inst.core not in path:
            ps = [pos[v] for v in path]
            js = [j for _, j in ps]
            internal[ps[0][0]].append((min(js), max(js)))
            continue
        if len(path) == 1:
            core_singleton = True
            continue
        frags = []
        run = []
        for v in list(path) + [inst.core]:
            if v == inst.core:
                if run:
                    js = [j for _, j in run]
                    frags.append((run[0][0], (min(js), max(js))))
                    run = []
            else:
                run.append(pos[v])
        crossing.append(frags)
    return internal, crossing, core_singleton


def assert_split_matches_reference(inst):
    internal, crossing, core_singleton = classify_by_second_walk(inst)
    assert inst.internal == tuple(map(tuple, internal))
    assert tuple(c for c in inst.crossing if c) == tuple(map(tuple, crossing))
    assert (() in inst.crossing) == core_singleton
    assert len(inst.crossing) == sum(inst.core in p for p in inst.paths)


def test_make_flower_split_matches_second_walk():
    rng = random.Random(61)
    partial = 0
    for _ in range(2500):
        base = random_flower(rng, max_petals=6, max_len=9)
        # reverse some targets, and wire the core only to the petal ends
        # the targets use plus a random few
        paths = [p[::-1] if rng.random() < 0.5 else p for p in base.paths]
        steps = [(a, b) for p in paths for a, b in zip(p, p[1:])]
        used = {a if b == base.core else b for a, b in steps if base.core in (a, b)}
        links = used | {v for v in base.core_links if rng.random() < 0.5}
        partial += links != base.core_links
        inst = make_flower(base.core, base.petals, base.budgets, paths, links)
        assert_split_matches_reference(inst)
    assert partial > 1000


def test_make_flower_split_hand_cases():
    # a bare core, next to an internal target
    inst = make_flower(9, [(1, 2, 3)], [1], [(9,), (2, 3)])
    assert inst.internal == (((2, 3),),) and inst.crossing == ((),)
    assert_split_matches_reference(inst)
    # two fragments on one petal, in path order, with the petal reversed
    inst = make_flower(9, [(1, 2, 3), (4, 5)], [1, 1], [(2, 3, 9, 1), (5, 4, 9, 3)])
    assert inst.crossing == (
        ((0, (2, 3)), (0, (1, 1))),
        ((1, (1, 2)), (0, (3, 3))),
    )
    assert_split_matches_reference(inst)
    # partial core links: each petal is wired to the core at one end only
    inst = make_flower(9, [(1, 2, 3), (4, 5)], [1, 1], [(3, 9, 4), (9, 4, 5)], core_links={3, 4})
    assert inst.crossing == (
        ((0, (3, 3)), (1, (1, 1))),
        ((1, (1, 2)),),
    )
    assert_split_matches_reference(inst)
    with pytest.raises(ValidationError):
        make_flower(9, [(1, 2, 3), (4, 5)], [1, 1], [(1, 9)], core_links={3, 4})


def uncompressed_verdict(inst):
    """The earlier formula construction, kept as the reference: one signed
    variable per petal over 1..(longest petal), suffix literals found by
    scanning every index, decided through the dense 2-SAT encoding with a
    boolean per value. Returns the verdict and where it was decided."""
    if () in inst.crossing:
        return "NO", "core"
    tables = []
    clauses = []
    for i, petal in enumerate(inst.petals):
        table = canonical_table(len(petal), inst.internal[i], inst.budgets[i])
        defined = [ell for ell in range(1, len(petal) + 1) if table[ell] is not None]
        if not defined:
            return "NO", "range"
        clauses.append(((i + 1, GE, defined[0]),))
        clauses.append(((i + 1, LE, defined[-1]),))
        tables.append(table)
    for frags in inst.crossing:
        lits = []
        for i, (lo, hi) in frags:
            if lo == 1:
                lits.append((i + 1, LE, hi))
                continue
            reaching = [
                ell for ell in range(1, len(inst.petals[i]) + 1)
                if tables[i][ell] is not None and max(tables[i][ell]) >= lo
            ]
            if reaching:
                lits.append((i + 1, GE, reaching[0]))
        if not lits:
            return "NO", "clause"
        clauses.append(tuple(lits))
    num_values = max(len(p) for p in inst.petals)
    formula = SignedFormula(len(inst.petals), num_values, tuple(clauses))
    model = solve_2sat(dense_signed_to_classical(formula)[0])
    return ("NO" if model is None else "YES"), "2-SAT"


def long_petal_flower(rng):
    """Up to 8 petals of up to 60 vertices, budgets near each petal's
    optimum, and up to 40 core-crossing targets with short end fragments."""
    petals = []
    nxt = 1
    for _ in range(rng.randint(1, 8)):
        length = rng.randint(1, 60)
        petals.append(tuple(range(nxt, nxt + length)))
        nxt += length
    core = nxt
    paths = []
    budgets = []
    for petal in petals:
        length = len(petal)
        ivs = []
        for _ in range(rng.randint(0, 10)):
            lo = rng.randint(1, length)
            ivs.append((lo, min(length, lo + rng.randint(0, 6))))
        paths += [petal[lo - 1 : hi] for lo, hi in ivs]
        opt = stab_intervals(length, ivs)[0]
        slack = -1 if rng.random() < 0.03 else rng.choice((0, 0, 1, 2))
        budgets.append(min(length, max(1, opt + slack)))

    def suffix(petal):
        return petal[len(petal) - rng.randint(1, min(len(petal), 12)) :]

    def prefix(petal):
        return petal[: rng.randint(1, min(len(petal), 12))]

    for _ in range(rng.randint(0, 40)):
        a, b = rng.choice(petals), rng.choice(petals)
        shape = rng.random()
        if shape < 0.2:
            paths.append(suffix(a) + (core,))
        elif shape < 0.4:
            paths.append((core,) + prefix(b))
        elif a is not b:
            paths.append(suffix(a) + (core,) + prefix(b))
    return make_flower(core, petals, budgets, paths)


def test_compressed_2sat_matches_uncompressed_formula():
    rng = random.Random(97)
    causes = Counter()
    for _ in range(1000):
        inst = long_petal_flower(rng)
        want, cause = uncompressed_verdict(inst)
        causes[want, cause] += 1
        sol = solve_flower(inst)
        assert sol.verdict == want
        if sol.verdict == "YES":
            assert inst.core not in sol.chosen
            for petal, b in zip(inst.petals, inst.budgets):
                assert len(sol.chosen.intersection(petal)) == b
            assert all(sol.chosen.intersection(p) for p in inst.paths)
    # both verdicts must come out of the 2-SAT step itself, often
    assert causes["YES", "2-SAT"] > 300 and causes["NO", "2-SAT"] > 200, causes


def adjacent_make_flower(core, petals, budgets, paths, core_links=None):
    """The earlier make_flower, kept as the reference for the slot check:
    every step of every target goes through an `adjacent` test."""
    petals = tuple(tuple(p) for p in petals)
    budgets = tuple(budgets)
    if len(budgets) != len(petals):
        raise ValidationError("one budget per petal required")
    if any(b < 1 for b in budgets):
        raise ValidationError("budgets must be at least 1")
    seen = {core}
    for p in petals:
        if not p:
            raise ValidationError("empty petal")
        for v in p:
            if v in seen:
                raise ValidationError(f"vertex {v} appears twice in the flower")
            seen.add(v)
    endpoints = {p[0] for p in petals} | {p[-1] for p in petals}
    if core_links is None:
        core_links = endpoints
    core_links = frozenset(core_links)
    if not core_links <= endpoints:
        raise ValidationError("core link that is not a petal endpoint")
    pos = {}
    for i, p in enumerate(petals):
        for j, v in enumerate(p):
            pos[v] = (i, j + 1)

    def adjacent(u, v):
        if u == core:
            return v in core_links
        if v == core:
            return u in core_links
        (pi, pj), (qi, qj) = pos[u], pos[v]
        return pi == qi and abs(pj - qj) == 1

    def span(run):
        (i, a), (_, b) = pos[run[0]], pos[run[-1]]
        return i, min(a, b), max(a, b)

    frozen_paths = []
    internal = [[] for _ in petals]
    crossing = []
    for idx, path in enumerate(paths):
        seq = tuple(path)
        if not seq or len(set(seq)) != len(seq):
            raise ValidationError(f"path {idx + 1} is empty or repeats a vertex")
        if any(v != core and v not in pos for v in seq):
            raise ValidationError(f"path {idx + 1} leaves the flower")
        if any(not adjacent(a, b) for a, b in zip(seq, seq[1:])):
            raise ValidationError(f"path {idx + 1} is not a path of the flower")
        frozen_paths.append(seq)
        if core not in seq:
            i, lo, hi = span(seq)
            internal[i].append((lo, hi))
            continue
        c = seq.index(core)
        frags = []
        for run in (seq[:c], seq[c + 1 :]):
            if run:
                i, lo, hi = span(run)
                if lo != 1 and hi != len(petals[i]):
                    raise AssertionError("core-crossing fragment is not a prefix or suffix")
                frags.append((i, (lo, hi)))
        crossing.append(tuple(frags))
    return FlowerInstance(
        core, petals, budgets, tuple(frozen_paths), core_links,
        tuple(map(tuple, internal)), tuple(crossing),
    )


def corrupt(rng, core, petals, links, path):
    """One corrupted copy of `path` and the kind of corruption."""
    kind = rng.choice(
        ["cross", "gap", "two", "unlinked", "outside", "reverse", "repeat", "empty",
         "down_to_first", "down_from_last", "pair", "jump"]
    )
    run = list(path)
    if kind == "cross":  # a step to a vertex of another petal
        if len(petals) < 2:
            return run[::-1], "reverse"
        a, b = rng.sample(petals, 2)
        run = [rng.choice(a), rng.choice(b)]
    elif kind == "gap":  # from one petal's end over the gap to the next petal
        i = rng.randrange(len(petals))
        nxt = petals[(i + 1) % len(petals)]
        run = [petals[i][-1], nxt[0]] + ([nxt[1]] if len(nxt) > 1 and rng.random() < 0.5 else [])
        run = run[::-1] if rng.random() < 0.5 else run
    elif kind == "two":  # a step of two positions within a petal
        petal = rng.choice(petals)
        if len(petal) < 3:
            return [petal[0], core, petal[-1]], kind
        j = rng.randrange(len(petal) - 2)
        run = [petal[j], petal[j + 2]]
        if rng.random() < 0.5:
            run = run[::-1] + [core]
    elif kind == "unlinked":  # the core next to an endpoint that is no link
        ends = [v for p in petals for v in (p[0], p[-1]) if v not in links]
        if not ends:
            return run + [core + 1], "outside"
        run = [rng.choice(ends), core] if rng.random() < 0.5 else [core, rng.choice(ends)]
    elif kind == "outside":
        run.insert(rng.randint(0, len(run)), rng.choice([0, core + 1, -3]))
    elif kind == "reverse":  # one run reversed in place
        c = run.index(core) if core in run else len(run)
        if rng.random() < 0.5:
            run[:c] = run[:c][::-1]
        else:
            run[c + 1 :] = run[c + 1 :][::-1]
    elif kind == "down_to_first":  # read backwards to position 1, at times into the core
        petal = rng.choice(petals)
        run = list(petal[: rng.randint(min(2, len(petal)), len(petal))][::-1])
        run += [core] if rng.random() < 0.5 else []
    elif kind == "down_from_last":  # backwards from position L, at times out of the core
        petal = rng.choice(petals)
        run = list(petal[-rng.randint(min(2, len(petal)), len(petal)) :][::-1])
        run = [core] + run if rng.random() < 0.5 else run
    elif kind == "pair":  # two vertices of one petal, adjacent or not, either way round
        petal = rng.choice(petals)
        if len(petal) < 2:
            return [core, petal[0]], kind
        j = rng.randrange(len(petal) - 1)
        run = [petal[j], petal[j + 1]] if rng.random() < 0.5 else rng.sample(petal, 2)
        run = run[::-1] if rng.random() < 0.5 else run
    elif kind == "jump":  # as long as its end slots are apart, over the gap to the next petal
        if len(petals) < 2:
            return run[::-1], "reverse"
        i = rng.randrange(len(petals) - 1)
        a, b = petals[i], petals[i + 1]
        head, tail = list(a[-rng.randint(1, len(a)) :]), list(b[: rng.randint(1, len(b))])
        # the filler stands where the free slot between the petals is
        rest = [v for p in petals for v in p if v not in head and v not in tail]
        if not rest:
            return run[::-1], "reverse"
        run = head + [rng.choice(rest)] + tail
        run = run[::-1] if rng.random() < 0.5 else run
    elif kind == "repeat":
        run.insert(rng.randint(0, len(run)), rng.choice(run) if run else core)
    else:
        run = []
    return run, kind


def outcome(build, *args):
    try:
        return build(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def test_slot_check_matches_adjacent_reference():
    rng = random.Random(101)
    kinds = Counter()
    verdicts = Counter()
    for _ in range(4000):
        base = random_flower(rng, max_petals=6, max_len=9)
        paths = [list(p[::-1] if rng.random() < 0.5 else p) for p in base.paths]
        links = {v for v in base.core_links if rng.random() < 0.7}
        steps = [(a, b) for p in paths for a, b in zip(p, p[1:])]
        links |= {a if b == base.core else b for a, b in steps if base.core in (a, b)}
        for _ in range(rng.choice([0, 1, 1, 2])):
            if not paths:
                break
            i = rng.randrange(len(paths))
            paths[i], kind = corrupt(rng, base.core, base.petals, links, paths[i])
            kinds[kind] += 1
        args = (base.core, base.petals, base.budgets, paths, links)
        want = outcome(adjacent_make_flower, *args)
        assert outcome(make_flower, *args) == want
        verdicts["accepted" if isinstance(want, FlowerInstance) else want[1]] += 1
    assert min(kinds.values()) > 150, kinds
    assert verdicts["accepted"] > 500, verdicts
    messages = Counter(m.split(" ", 2)[-1] for m in verdicts if m != "accepted")
    assert set(messages) == {
        "is empty or repeats a vertex", "leaves the flower", "is not a path of the flower"
    }
