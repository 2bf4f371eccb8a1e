"""Benchmark harnesses: solver/oracle agreement sweeps and the branch
scaling family used to sanity-check the exponential dependence on the
cyclomatic number."""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

from .errors import InvariantViolation, ValidationError
from .fpt import SolveStats, solve
from .graph import Graph
from .instance_io import KIND_PATHS, HitPathsInstance, make_instance, unhit_targets
from .oracle import reference_verdict
from .reductions import GeneratorConfig, gen_random_instance


def scaling_instance(k: int) -> HitPathsInstance:
    """YES-instance that drives the branch scan to near-exhaustion.

    The host is a 3-regular multigraph skeleton (a theta graph for k = 2, a
    cycle-plus-matching circulant for even larger k) with every skeleton
    edge subdivided. Singleton targets on the skeleton vertices force all
    of them into any solution, so only the branches with S' = S, scanned
    last, can succeed; the budget admits every branch through the cost
    filter. Subdivision lengths differ per k to keep per-branch work level.
    """
    if k == 2:
        skeleton_n, skeleton_edges, subdiv = 2, [(1, 2), (1, 2), (1, 2)], 9
    elif k >= 3:
        skeleton_n = 2 * k - 2
        half = skeleton_n // 2
        skeleton_edges = [(i, i % skeleton_n + 1) for i in range(1, skeleton_n + 1)]
        skeleton_edges += [(i, i + half) for i in range(1, half + 1)]
        subdiv = 3
    else:
        raise ValidationError("scaling family defined for k >= 2")

    edges = []
    paths = []
    nxt = skeleton_n + 1
    for u, v in skeleton_edges:
        chain = list(range(nxt, nxt + subdiv))
        nxt += subdiv
        edges.append((u, chain[0]))
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
        edges.append((chain[-1], v))
        mid = subdiv // 2
        if subdiv >= 9:
            paths.append(tuple(chain[mid - 1 : mid + 2]))
            paths.append(tuple(chain[1:7]))
        else:
            paths.append((chain[mid],))
    paths += [(v,) for v in range(1, skeleton_n + 1)]
    graph = Graph.build(nxt - 1, edges)
    t = skeleton_n + 2 * len(skeleton_edges)
    return make_instance(graph, paths, t, KIND_PATHS)


class ScalingReport(NamedTuple):
    branch_counts: dict[int, int]
    median_times: dict[int, float]
    branch_ratio: float
    time_ratio: float


SCALING_ROUND = (2, 2, 2, 2, 2, 4)  # the k of each solve in one of 3 scaling rounds
AGREEMENT_KS = (0, 1, 2, 3, 4)  # the agreement suite's k, taken in turn by seed


def run_scaling() -> ScalingReport:
    """Median solve time per k over 3 rounds of SCALING_ROUND, which takes
    the k in turn, so that each k sees the same machine phases."""
    insts = {k: scaling_instance(k) for k in sorted(set(SCALING_ROUND))}
    branch_counts: dict[int, int] = {}
    samples: dict[int, list[float]] = {k: [] for k in insts}
    for _ in range(3):
        for k in SCALING_ROUND:
            stats = SolveStats()
            t0 = time.perf_counter()
            sol = solve(insts[k], stats=stats)
            samples[k].append(time.perf_counter() - t0)
            if sol.verdict != "YES":
                raise InvariantViolation(f"scaling instance for k={k} solved as NO")
            branch_counts[k] = stats.branches_enumerated
    times = {k: statistics.median(samples[k]) for k in insts}
    lo, hi = min(insts), max(insts)
    return ScalingReport(
        branch_counts, times, branch_counts[hi] / branch_counts[lo], times[hi] / times[lo]
    )


class AgreementReport(NamedTuple):
    total: int
    agreements: int
    mismatches: list[int]  # offending seeds
    median_time: float
    max_branches: int


def run_agreement(count: int, base_seed: int = 0) -> AgreementReport:
    """Solve seeded random instances with both the FPT solver and the
    branch-and-bound oracle; verdicts must coincide everywhere."""
    mismatches = []
    agreements = 0
    times = []
    max_branches = 0
    for idx in range(count):
        seed = base_seed + idx
        inst = _agreement_instance(seed)
        stats = SolveStats()
        t0 = time.perf_counter()
        sol = solve(inst, stats=stats)
        times.append(time.perf_counter() - t0)
        max_branches = max(max_branches, stats.branches_enumerated)
        ok = sol.verdict == reference_verdict(inst).verdict
        if ok and sol.verdict == "YES":
            ok = len(sol.chosen) <= inst.t and not unhit_targets(inst, sol.chosen)
        if ok:
            agreements += 1
        else:
            mismatches.append(seed)
    return AgreementReport(count, agreements, mismatches, statistics.median(times), max_branches)


def _agreement_instance(seed: int) -> HitPathsInstance:
    import random

    rng = random.Random(seed ^ 0x5EED)
    k = AGREEMENT_KS[seed % len(AGREEMENT_KS)]
    n = rng.randint(max(3, k + 1), 18)
    while (n * (n - 1)) // 2 - (n - 1) < k:
        n += 1
    policy = rng.choice(["random", "opt", "opt-1", "opt+1"])
    cfg = GeneratorConfig(
        seed=seed,
        k=k,
        n=n,
        num_paths=rng.randint(0, 12),
        max_path_len=rng.randint(1, 6),
        t_policy=policy,
    )
    return gen_random_instance(cfg)
