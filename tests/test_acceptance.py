"""Acceptance suite: eight criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
are produced; each criterion is also a hard assertion.
"""

import random
import sys
import time

from hitpaths import (
    Graph,
    SolveStats,
    canonical_table,
    connect_components,
    cyclomatic_number,
    high_degree_set,
    preprocess,
    solve,
    solve_flower,
    solve_tors2sat,
)
from hitpaths.bench import run_agreement, run_scaling
from hitpaths.graph import path_components
from hitpaths.instance_io import make_instance
from hitpaths.mvsat import satisfies
from hitpaths.oracle import SetSystem, exact_min_hitting_set
from hitpaths.reductions import (
    TooFewEdges,
    clique_to_signed3sat,
    signed3sat_to_fvs2_instance,
    signed3sat_to_subtree_instance,
)

from conftest import random_flower, random_graph, random_signed_formula
from reference import enumerate_signed, flower_bruteforce, has_k_clique


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_solver_oracle_agreement():
    start = time.perf_counter()
    rep = run_agreement(500)
    elapsed = time.perf_counter() - start
    ok = rep.agreements == rep.total == 500 and not rep.mismatches and elapsed < 300
    report(
        1,
        ok,
        f"solver/oracle agreement {rep.agreements}/{rep.total}"
        f" (YES solutions verified), {elapsed:.1f}s total",
    )


def test_criterion_2_flower_equivalence():
    rng = random.Random(101)
    agree = 0
    total = 500
    for _ in range(total):
        inst = random_flower(rng)
        if solve_flower(inst).verdict == flower_bruteforce(inst).verdict:
            agree += 1
    report(2, agree == total, f"flower solver vs brute force {agree}/{total}")


def test_criterion_3_canonical_laws():
    rng = random.Random(103)
    violations = 0
    total = 1000
    for _ in range(total):
        length = rng.randint(1, 10)
        ivs = [
            (lo, rng.randint(lo, length))
            for lo in (rng.randint(1, length) for _ in range(rng.randint(0, 6)))
        ]
        b = rng.randint(1, 4)
        table = canonical_table(length, ivs, b)
        defined = [ell for ell in range(1, length + 1) if table[ell] is not None]
        if any(min(table[ell]) != ell for ell in defined):
            violations += 1
        elif defined and defined != list(range(defined[0], defined[-1] + 1)):
            violations += 1
        else:
            maxima = [max(table[ell]) for ell in defined]
            if maxima != sorted(maxima):
                violations += 1
    report(
        3,
        violations == 0,
        f"min/contiguity/monotonicity laws on {total} petals, {violations} violations",
    )


def test_criterion_4_signed_2sat():
    rng = random.Random(107)
    agree = 0
    total = 500
    for _ in range(total):
        f = random_signed_formula(rng, 4, 6, 2)
        fast = solve_tors2sat(f)
        slow = enumerate_signed(f)
        if (fast is None) == (slow is None) and (fast is None or satisfies(f, fast)):
            agree += 1
    report(4, agree == total, f"signed 2-SAT vs enumeration {agree}/{total}, models verified")


def test_criterion_5_clique_reduction():
    rng = random.Random(109)
    agree = 0
    total = 200
    for _ in range(total):
        g = random_graph(rng, rng.randint(3, 6))
        want, _ = has_k_clique(g, 3)
        try:
            got = enumerate_signed(clique_to_signed3sat(g, 3)) is not None
        except TooFewEdges:
            got = False
        if got == want:
            agree += 1
    report(5, agree == total, f"clique vs formula satisfiability {agree}/{total}")


def test_criterion_6_sat3_reductions():
    rng = random.Random(113)
    agree = 0
    fvs_ok = True
    total = 150
    for _ in range(total):
        f = random_signed_formula(rng, 3, 4, 3)
        want = enumerate_signed(f) is not None
        results = []
        for builder in (signed3sat_to_subtree_instance, signed3sat_to_fvs2_instance):
            inst = builder(f)
            system = SetSystem.build(inst.graph.n, [frozenset(p) for p in inst.paths])
            size, _ = exact_min_hitting_set(system, inst.t)
            results.append(size is not None)
        if results == [want, want]:
            agree += 1
        inst = signed3sat_to_fvs2_instance(f)
        keep = set(range(1, inst.graph.n - 1))
        residual = Graph.build(
            inst.graph.n,
            [(u, v) for u, v in inst.graph.edges if u in keep and v in keep],
        )
        if cyclomatic_number(residual) != 0:
            fvs_ok = False
    report(
        6,
        agree == total and fvs_ok,
        f"subtree/path reductions vs satisfiability {agree}/{total},"
        f" feedback pair check {'ok' if fvs_ok else 'failed'}",
    )


def test_criterion_7_structural_bounds():
    rep = run_agreement(200, base_seed=5000)
    bounds_ok = True
    checked = 0
    rng = random.Random(127)
    from hitpaths.reductions import GeneratorConfig, gen_random_instance

    for seed in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(k + 2, 16)
        while (n * (n - 1)) // 2 - (n - 1) < k:
            n += 1
        inst = gen_random_instance(GeneratorConfig(seed=seed, k=k, n=n, num_paths=4))
        pre = preprocess(make_instance(inst.graph, [], 0))
        g = connect_components(pre.graph)
        if g.n == 0:
            continue
        s = high_degree_set(g)
        kk = cyclomatic_number(g)
        if not s:
            continue
        checked += 1
        if len(s) > 2 * kk - 2 or len(path_components(g, set(s))) > kk + len(s) - 1:
            bounds_ok = False
    branch_ok = rep.max_branches <= 2 ** (5 * 4)
    report(
        7,
        bounds_ok and branch_ok and checked > 0 and not rep.mismatches,
        f"degree/component bounds on {checked} graphs,"
        f" max branch count {rep.max_branches} <= 2^20",
    )


def test_criterion_8_scaling():
    rep = run_scaling()
    ratio_of_ratios = rep.time_ratio / rep.branch_ratio
    ok = 512 <= rep.branch_ratio <= 2048 and 0.5 <= ratio_of_ratios <= 2.0
    report(
        8,
        ok,
        f"branch growth k=2->4: {rep.branch_ratio:.0f}x (approx 2^10),"
        f" time ratio {rep.time_ratio:.0f}x"
        f" ({ratio_of_ratios:.2f}x of linear in branches)",
    )
