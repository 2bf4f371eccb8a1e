"""Seeded instance generators for the benchmark workloads.

Every generator runs in near-linear time in the size of its output and draws all
randomness from one ``random.Random`` seeded by the workload name and the
benchmark seed, so a seed always yields byte-identical instance texts. The
program under test only ever sees those texts.

Each case carries the verdict it must receive, known by construction:

* ``scaling`` cases are YES instances (the budget admits the skeleton plus
  two vertices per subdivided edge, which hits every target).
* ``large`` and ``flower`` cases plant a vertex set H that meets every
  target, together with |H| pairwise vertex-disjoint targets. H proves that
  ``|H|`` vertices suffice and the disjoint targets prove that fewer do not,
  so the optimum is exactly ``|H|``: budget ``|H|`` is YES and ``|H| - 1``
  is NO.

This module does not import the package under test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("scaling", "large", "flower")

# scaling: the k=3 and k=4 members of the branch-scaling family. One k=4
# member (about 2.9 s, 32,257 branches) and sixteen k=3 members (about 60 ms
# each) per round: the k=4 member sets the throughput, the k=3 members fill
# the latency percentiles with samples of one shape.
SCALING_MIX = ((4, 1), (3, 16))

# large: random trees plus k extra edges, n fixed so that the median and
# tail are taken over instances of one size.
LARGE_N = 1500
LARGE_KS = (1, 3)
LARGE_PER_SHAPE = 2  # cases per (k, verdict) pair in one round
LARGE_TARGETS_PER_VERTEX = 0.3
LARGE_PLANTED_PER_VERTEX = 0.05

# flower: (petals, petal length, planted vertices per petal, internal
# targets per petal, core-crossing targets) and the number of instances in
# one round, alternately at budget opt and opt + 1. The long-petal shape
# spends its time in canonical tables; the many-petal shape's crossing
# targets make sizeable 2-SAT instances. Twice as many many-petal instances
# put the median inside that shape and leave the tail to the long-petal one.
FLOWER_SHAPES = {
    "long": ((4, 400, 10, 120, 8), 6),
    "many": ((12, 100, 2, 3, 200), 12),
}


@dataclass(frozen=True)
class Case:
    """One benchmark instance: its text and what a correct answer is."""

    name: str
    text: str
    n: int
    targets: tuple[tuple[int, ...], ...]
    t: int
    expected: str  # "YES" or "NO"


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of one round of `workload`, in the order they are run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scaling":
        return _scaling_cases(rng)
    if workload == "large":
        return _large_cases(rng)
    if workload == "flower":
        return _flower_cases(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def digest(cases: list[Case]) -> str:
    """SHA-256 over the instance texts and expected verdicts of a round."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.text.encode())
        h.update(case.expected.encode())
    return h.hexdigest()


def _instance_text(n: int, edges, targets, t: int) -> str:
    lines = [f"p hitpaths {n} {len(edges)} {len(targets)} {t}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    lines.extend(f"s {len(p)} " + " ".join(map(str, p)) for p in targets)
    return "\n".join(lines) + "\n"


def _relabel(rng: random.Random, n: int, edges, targets):
    """Apply a random vertex permutation and shuffle edge and target order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    new = [0] + perm
    edges = [(new[u], new[v]) for u, v in edges]
    targets = [tuple(new[v] for v in p) for p in targets]
    rng.shuffle(edges)
    rng.shuffle(targets)
    return edges, targets


def _case(rng, name, n, edges, targets, t, expected) -> Case:
    edges, targets = _relabel(rng, n, edges, targets)
    text = _instance_text(n, edges, targets, t)
    return Case(name, text, n, tuple(targets), t, expected)


# --- scaling ---------------------------------------------------------------


def scaling_skeleton(k: int):
    """(n, edges, targets, t) of the k >= 3 branch-scaling instance.

    A cycle-plus-matching circulant on 2k - 2 skeleton vertices with every
    skeleton edge subdivided three times. Singleton targets on the skeleton
    vertices and on each chain's middle vertex force all of them, so only
    the last branch of the scan succeeds, and the budget is exactly the
    number of forced vertices.
    """
    if k < 3:
        raise ValueError("the scaling family is generated here for k >= 3")
    skeleton_n = 2 * k - 2
    half = skeleton_n // 2
    skeleton = [(i, i % skeleton_n + 1) for i in range(1, skeleton_n + 1)]
    skeleton += [(i, i + half) for i in range(1, half + 1)]
    edges = []
    targets = []
    nxt = skeleton_n + 1
    for u, v in skeleton:
        a, b, c = nxt, nxt + 1, nxt + 2
        nxt += 3
        edges += [(u, a), (a, b), (b, c), (c, v)]
        targets.append((b,))
    targets += [(v,) for v in range(1, skeleton_n + 1)]
    return nxt - 1, edges, targets, skeleton_n + 2 * len(skeleton)


def _scaling_cases(rng: random.Random) -> list[Case]:
    cases = []
    for k, count in SCALING_MIX:
        n, edges, targets, t = scaling_skeleton(k)
        for i in range(count):
            cases.append(_case(rng, f"scaling-k{k}-{i}", n, edges, targets, t, "YES"))
    return cases


# --- planted-optimum helpers -----------------------------------------------


def _walk(rng: random.Random, adj, start: int, steps: int, blocked, seen) -> list[int]:
    """Self-avoiding random walk from start of at most `steps` steps that
    enters no vertex in `blocked` or `seen`; adds its vertices to `seen`."""
    walk = [start]
    seen.add(start)
    while len(walk) <= steps:
        options = [w for w in adj[walk[-1]] if w not in seen and w not in blocked]
        if not options:
            break
        w = options[rng.randrange(len(options))]
        walk.append(w)
        seen.add(w)
    return walk


def _path_through(rng: random.Random, adj, h: int, length: int, blocked=frozenset()):
    """A simple path of at most `length` vertices containing h, grown in both
    directions from h by random self-avoiding walks."""
    seen: set[int] = set()
    fwd = _walk(rng, adj, h, rng.randrange(length), blocked, seen)
    back = _walk(rng, adj, h, length - len(fwd), blocked, seen)
    return tuple(reversed(back[1:])) + tuple(fwd)


# --- large -----------------------------------------------------------------


def large_instance(rng: random.Random, n: int, k: int):
    """(edges, targets, opt) for a random recursive tree on n vertices plus k
    extra edges, with about 0.3 n short targets and a planted optimum."""
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randrange(1, v), v))
    while len(edges) < n - 1 + k:
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)

    planted = rng.sample(range(1, n + 1), max(2, int(LARGE_PLANTED_PER_VERTEX * n)))
    targets = _planted_targets(rng, adj, planted, int(LARGE_TARGETS_PER_VERTEX * n), 6)
    return sorted(edges), targets, len(planted)


def _planted_targets(rng, adj, planted, count, max_len):
    """`count` targets, each containing a planted vertex; the first
    len(planted) of them are pairwise vertex-disjoint."""
    used = set(planted)
    targets = []
    for h in planted:
        used.discard(h)
        p = _path_through(rng, adj, h, rng.randint(1, 4), used)
        used.update(p)
        targets.append(p)
    while len(targets) < count:
        h = planted[rng.randrange(len(planted))]
        targets.append(_path_through(rng, adj, h, rng.randint(2, max_len)))
    return targets


def _large_cases(rng: random.Random) -> list[Case]:
    cases = []
    for i in range(LARGE_PER_SHAPE):
        for k in LARGE_KS:
            edges, targets, opt = large_instance(rng, LARGE_N, k)
            for expected, t in (("YES", opt), ("NO", opt - 1)):
                name = f"large-k{k}-{expected.lower()}-{i}"
                cases.append(_case(rng, name, LARGE_N, edges, targets, t, expected))
    return cases


# --- flower ----------------------------------------------------------------


def flower_instance(rng: random.Random, petals: int, length: int, per_petal: int,
                    internal: int, crossing: int):
    """(n, edges, targets, opt) for a core joined to both ends of each petal.

    Planted vertices sit inside the petals, never on the core, so every
    core-crossing target has to be hit inside a petal. Each petal gets
    `per_petal` disjoint internal targets around its planted vertices and
    further internal targets that each contain one; crossing targets run
    from one petal end through the core into another petal end and contain
    a planted vertex on at least one side.
    """
    core = 1
    rows = [list(range(2 + i * length, 2 + (i + 1) * length)) for i in range(petals)]
    edges = []
    for row in rows:
        edges += [(core, row[0]), (core, row[-1])]
        edges += list(zip(row, row[1:]))
    n = 1 + petals * length

    targets = []
    planted_pos = []
    for row in rows:
        # One planted position in the middle of each equal slice keeps the
        # packing disjoint. The solver may lay a petal out in either
        # direction, and the first target from its left end bounds the
        # canonical indices and with them the cost of the canonical table;
        # middle positions make that cost the same both ways round.
        width = length // per_petal
        pos = [s * width + width // 2 - 1 + rng.randrange(3) for s in range(per_petal)]
        planted_pos.append(pos)
        for s, p in enumerate(pos):
            lo = max(s * width, p - rng.randrange(3))
            hi = min((s + 1) * width - 1, p + rng.randrange(3))
            targets.append(tuple(row[lo : hi + 1]))
        for _ in range(internal):
            p = pos[rng.randrange(per_petal)]
            lo = max(0, p - rng.randrange(8))
            hi = min(length - 1, p + rng.randrange(8))
            targets.append(tuple(row[lo : hi + 1]))
    for _ in range(crossing):
        i, j = rng.sample(range(petals), 2)
        # the suffix of petal i reaches its last planted vertex, or the prefix
        # of petal j reaches its first one; the other side is random
        if rng.random() < 0.5:
            start = planted_pos[i][-1] - rng.randrange(3)
            stop = rng.randrange(planted_pos[j][0] + 1)
        else:
            start = planted_pos[i][-1] + 1 + rng.randrange(length - planted_pos[i][-1])
            stop = planted_pos[j][0] + rng.randrange(3)
        suffix = rows[i][max(start, 0) :]
        prefix = rows[j][: min(stop, length - 1) + 1]
        # walk: petal i suffix -> core -> petal j prefix (entered at its head)
        targets.append(tuple(suffix) + (core,) + tuple(prefix))
    return n, edges, targets, petals * per_petal


def _flower_cases(rng: random.Random) -> list[Case]:
    cases = []
    for shape, (params, count) in FLOWER_SHAPES.items():
        for i in range(count):
            n, edges, targets, opt = flower_instance(rng, *params)
            t = opt + i % 2
            name = f"flower-{shape}-{'opt1' if i % 2 else 'opt'}-{i}"
            cases.append(_case(rng, name, n, edges, targets, t, "YES"))
    return cases
