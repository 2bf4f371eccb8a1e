"""The fixed-parameter algorithm for hitting simple paths.

Pipeline: strip degree-<=1 vertices (forcing those demanded by singleton
targets), bridge components, dispatch simple cycles to the cycle solver,
and otherwise branch over which high-degree vertices join the solution and
which path components get their optimum budget versus optimum+1. A branch
that puts every high-degree vertex into the solution is filled greedily
per component; every other surviving branch becomes an exact-budget flower
instance solved via signed 2-SAT. The first successful branch yields the
answer.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple, Optional

from .errors import FlowerShapeViolation, InvariantViolation, ValidationError
from .flower import FlowerInstance, make_flower, solve_flower
from .graph import (
    Graph,
    PathComponent,
    connect_components,
    high_degree_set,
    path_components,
)
from .instance_io import KIND_PATHS, HitPathsInstance, Solution, certificate_for
from .treecycle import hit_paths_in_cycle, pad, stab_intervals


class PreprocessResult(NamedTuple):
    graph: Graph  # residual graph in the input's ids, min degree >= 2 (or empty)
    paths: tuple[tuple[int, ...], ...]  # the kept targets' unpeeled middles
    forced: frozenset[int]  # vertices forced into every solution
    t_remaining: int  # may be negative


class SolveStats(SimpleNamespace):
    """The one mutable record: a solve's counters, read with vars()."""

    def __init__(self) -> None:
        super().__init__(
            k=0,
            high_degree=0,
            components=0,
            branches_enumerated=0,
            branches_after_filter=0,
            flower_calls=0,
            solution_cost=None,
        )


def preprocess(inst: HitPathsInstance) -> PreprocessResult:
    """Remove degree-<=1 vertices until the residual has min degree >= 2.

    Vertices are peeled smallest id first, in Prüfer order and with no heap:
    one upward scan of the ids peels a vertex of live degree <= 1 when it
    gets there, and a peel that leaves a neighbour below the scan at degree
    1 peels that neighbour at once (Batagelj-Zaversnik peeling). Live
    degrees and peel steps are kept in lists beside the graph's shared,
    unmodified adjacency.

    One rule over the peel steps then settles the targets: a target peeled
    whole forces its last-peeled vertex into the solution (the budget drops
    by one) unless a vertex forced at an earlier step already hits it, and
    every other target that no forced vertex hits keeps its unpeeled middle.
    The pass takes O(n + m + sum of target lengths). Peeling keeps m - n + c,
    so the residual has the input's k. Self-checks: no peeled vertex has two
    live neighbours, the residual keeps exactly the unpeeled edges, and no
    kept target loses an inner vertex or is emptied. The residual keeps the
    input's ids, and input that does not peel is returned as is.
    """
    if inst.kind != KIND_PATHS:
        raise ValidationError("the FPT solver handles path targets only")
    g = inst.graph
    adj = g.adjacency()  # shared: read only
    deg = [0, *map(len, map(adj.__getitem__, g.vertices()))]  # live degree per id
    if min(deg[1:], default=2) > 1:  # nothing peels: the residual is the input
        return PreprocessResult(g, inst.paths, frozenset(), inst.t)
    order: list[int] = []  # the peeled vertices, in peel order
    when = [0] * len(deg)  # the step at which each id was peeled, 0 while live
    removed = 0  # edges peeled away
    for top in g.vertices():  # the scan: each live id below it has degree >= 2
        v = top
        while deg[v] <= 1:
            order.append(v)
            when[v] = len(order)
            nxt = 0  # v's one live neighbour, if any
            for w in adj[v]:
                if not when[w]:
                    if nxt:
                        raise InvariantViolation("preprocessing peeled a vertex of degree 2 or more")
                    nxt = w
            if not nxt:
                break
            removed += 1
            v = nxt
            deg[v] -= 1
            if v > top:  # left for the scan to reach
                break
    nbrs = {v: {w for w in adj[v] if not when[w]} for v in g.vertices() if not when[v]}
    residual = Graph(len(nbrs), sum(map(len, nbrs.values())) // 2, nbrs)
    if g.m - residual.m != removed:
        raise InvariantViolation("the residual does not keep exactly the unpeeled edges")
    ends: dict[int, list[tuple[int, ...]]] = {}  # last-peeled vertex -> targets peeled whole
    for p in inst.paths:
        if all(map(when.__getitem__, p)):
            ends.setdefault(max(p, key=when.__getitem__), []).append(p)
    forced: set[int] = set()
    for v in filter(ends.__contains__, order):
        if any(map(forced.isdisjoint, ends[v])):  # a target no earlier forced vertex hits
            forced.add(v)
    new_paths = []
    for p in filter(forced.isdisjoint, inst.paths):
        steps = [*map(when.__getitem__, p)]
        if all(steps):
            raise InvariantViolation("preprocessing emptied a target")
        a = steps.index(0)  # the unpeeled middle is p[a:b]
        b = a + steps.count(0)
        if any(steps[a:b]):
            raise InvariantViolation("preprocessing peeled an inner target vertex")
        new_paths.append(p[a:b])
    return PreprocessResult(residual, tuple(new_paths), frozenset(forced), inst.t - len(forced))


class ComponentData(NamedTuple):
    component: PathComponent
    opt: int
    greedy: frozenset[int]  # positions of an optimum piercing of its targets
    covered_by: frozenset[int]  # indices of the targets holding all its vertices


def component_budgets(comps: list[PathComponent], s, paths) -> list[ComponentData]:
    """Per component of path_components' walk: its internal targets and
    their piercing optimum.

    Budget candidates for the branching step are {opt, opt + 1}. The one
    walk over the targets reads each vertex's component and 1-based position
    from one map and records which targets cover each component whole, for
    build_flower_branch, which must be given the same `paths`.
    """
    s = set(s)
    at = {v: (ci, q) for ci, comp in enumerate(comps) for q, v in enumerate(comp.vertices, 1)}
    spans: list[list[tuple[int, int]]] = [[] for _ in comps]
    covered_by: list[set[int]] = [set() for _ in comps]
    for i, p in enumerate(paths):
        if s.isdisjoint(p):
            # a target inside an induced path runs from one end to the other
            ci, a = at[p[0]]
            b = at[p[-1]][1]
            spans[ci].append((a, b) if a <= b else (b, a))
            if len(p) == len(comps[ci].vertices):
                covered_by[ci].add(i)
            continue
        # the runs of p outside s, each inside one component, as p[a:b]:
        # cut at the sorted positions of p's S-vertices, len(p) closing the last
        inside: dict[int, int] = {}  # component -> vertices of p in it
        a = 0
        for b in [*sorted(map(p.index, s.intersection(p))), len(p)]:
            if a < b:
                ci = at[p[a]][0]
                inside[ci] = inside.get(ci, 0) + b - a
            a = b + 1
        for ci, count in inside.items():
            if count == len(comps[ci].vertices):
                covered_by[ci].add(i)
    out = []
    for comp, comp_spans, cover in zip(comps, spans, covered_by):
        opt, pts = stab_intervals(len(comp.vertices), comp_spans)
        out.append(ComponentData(comp, opt, pts, frozenset(cover)))
    return out


def build_flower_branch(
    s: list[int],
    comps: list[ComponentData],
    budgets: list[int],
    s_prime: set[int],
    paths,
    core_id: int,
) -> FlowerInstance:
    """Turn one (S', budgets) guess into a flower instance.

    Delete S' and the targets it hits, drop targets that fully contain a
    positive-budget component, delete zero-budget components while shaving
    their vertices out of the targets, and finally identify the remaining
    high-degree vertices into the core. S' must leave at least one vertex
    of S for the core. `paths` must be the list component_budgets was given,
    whose `covered_by` indices tell which targets cover a component. A
    target's core vertices, contiguous once the deleted vertices are gone,
    are contracted by slicing.
    """
    core_set = set(s) - s_prime
    dead = set()  # vertices of zero-budget components
    covered: set[int] = set()  # targets holding a whole positive-budget component
    petals = []
    petal_budgets = []
    links = set()
    for cd, budget in zip(comps, budgets):
        comp = cd.component
        vertices = comp.vertices
        if budget == 0:
            dead.update(vertices)
            continue
        covered |= cd.covered_by
        petals.append(vertices)
        petal_budgets.append(budget)
        if comp.attach_left in core_set:
            links.add(vertices[0])
        if comp.attach_right in core_set:
            links.add(vertices[-1])

    flower_paths = []
    for i, p in enumerate(paths):
        if i in covered or not s_prime.isdisjoint(p):
            continue
        if not dead.isdisjoint(p):
            p = [v for v in p if v not in dead]
        if not core_set.isdisjoint(p):
            marks = list(map(core_set.__contains__, p))
            first = marks.index(True)
            end = first + marks.count(True)
            if not all(marks[first:end]):
                raise FlowerShapeViolation("target collapses onto the core more than once")
            p = [*p[:first], core_id, *p[end:]]
        flower_paths.append(p)
    try:
        return make_flower(core_id, petals, petal_budgets, flower_paths, links)
    except ValidationError as exc:
        raise FlowerShapeViolation(str(exc)) from exc


def _fill_component(cd: ComponentData, budget: int) -> set[int]:
    """Exactly `budget` vertices of the component hitting all its internal
    targets: the greedy optimum padded with the highest unused positions."""
    positions = pad(cd.greedy, len(cd.component.vertices), budget)
    if len(positions) != budget:
        raise InvariantViolation(f"component cannot take a budget of {budget}")
    return {cd.component.vertices[p - 1] for p in positions}


def _finish(inst: HitPathsInstance, chosen: frozenset[int]) -> Solution:
    if len(chosen) > inst.t:
        raise InvariantViolation("assembled solution exceeds the budget")
    cert = certificate_for(inst.paths, chosen)
    if cert is None:
        raise InvariantViolation("assembled solution misses a target")
    return Solution("YES", chosen, cert)


def solve(inst: HitPathsInstance, stats: Optional[SolveStats] = None) -> Solution:
    """Decide whether some vertex set of size at most t hits every path target."""
    if stats is None:
        stats = SolveStats()
    pre = preprocess(inst)
    g = pre.graph
    s = high_degree_set(g)
    walk = path_components(g, set(s))
    # k = m - n + c: c counts the walk's cycles and the components of the
    # skeleton on S, whose edges are those inside S and one per path; the
    # walk checks that every vertex outside S has degree 2, so a component
    # with no attachment is a cycle
    index = {v: i for i, v in enumerate(s, 1)}
    ends = [(u, w) for u in s for w in g.neighbours[u] if w in index]
    ends += [(p.attach_left, p.attach_right) for p in walk if p.attach_left is not None]
    skeleton = Graph.build(len(s), {(index[min(e)], index[max(e)]) for e in ends if e[0] != e[1]})
    c = len(skeleton.components()) + sum(p.attach_left is None for p in walk)
    stats.k = k = g.m - g.n + c
    if pre.t_remaining < 0:
        return Solution("NO")
    if g.n == 0:
        return _finish(inst, pre.forced)
    if c > 1:
        g = connect_components(g)
        s = high_degree_set(g)
        walk = path_components(g, set(s))
    paths = pre.paths

    if not s:  # connected with minimum degree 2: a simple cycle
        return _solve_cycle(inst, pre, walk[0].vertices, paths)

    comps = component_budgets(walk, s, paths)
    stats.high_degree = len(s)
    stats.components = len(comps)

    opts = [cd.opt for cd in comps]
    total_opt = sum(opts)
    nc = len(comps)
    # components where opt + 1 would not fit must always get the optimum
    must_opt_mask = 0
    for ci, cd in enumerate(comps):
        if cd.opt + 1 > len(cd.component.vertices):
            must_opt_mask |= 1 << ci
    core_id = inst.graph.n + 1  # above every residual id

    for s_mask in range(1 << len(s)):
        s_prime = {s[i] for i in range(len(s)) if s_mask >> i & 1}
        base_cost = len(s_prime) + total_opt + nc
        # the scan visits, in increasing order, only the masks both filters
        # admit: supersets of must_opt_mask with enough opt bits to fit the
        # budget; the masks it skips are counted as enumerated all the same
        c_mask = must_opt_mask
        while not c_mask >> nc:
            cost = base_cost - c_mask.bit_count()
            if cost > pre.t_remaining:
                c_mask |= c_mask + 1  # the next mask with one more opt bit
                continue
            stats.branches_after_filter += 1
            budgets = [opt if c_mask >> ci & 1 else opt + 1 for ci, opt in enumerate(opts)]
            if len(s_prime) == len(s):
                # no core: every target S misses lies inside one
                # positive-budget component, which its greedy fill hits
                chosen = set(s_prime)
                for ci, cd in enumerate(comps):
                    if budgets[ci] > 0:
                        chosen |= _fill_component(cd, budgets[ci])
            else:
                branch = build_flower_branch(s, comps, budgets, s_prime, paths, core_id)
                stats.flower_calls += 1
                fsol = solve_flower(branch)
                if fsol.verdict != "YES":
                    c_mask = (c_mask + 1) | must_opt_mask  # the next superset
                    continue
                chosen = set(s_prime) | set(fsol.chosen)
            stats.branches_enumerated += c_mask + 1
            stats.solution_cost = cost
            _check_branch_bound(stats, k)
            return _finish(inst, pre.forced | chosen)
        stats.branches_enumerated += 1 << nc
    _check_branch_bound(stats, k)
    return Solution("NO")


def _check_branch_bound(stats: SolveStats, k: int) -> None:
    if stats.branches_enumerated > 2 ** (2 * k) * 2 ** (3 * k):
        raise InvariantViolation("branch count exceeds the 2^(5k) bound")


def _solve_cycle(inst, pre: PreprocessResult, order: tuple[int, ...], paths) -> Solution:
    """Residual graph is a single cycle: solve its arcs exactly.

    The walk lays it out as `order`, from its smallest vertex to its smaller
    neighbour. A target runs along it forwards from its first vertex or
    backwards from its last, so its arc starts at one of its ends; its
    stretch of the layout, unrolled twice, must equal it either way round.
    """
    pos = {v: q for q, v in enumerate(order, 1)}
    twice = order + order
    arcs = []
    for p in paths:
        start = pos[p[0]]
        if len(p) > 1 and twice[start] != p[1]:  # runs backwards
            start = pos[p[-1]]
        run = twice[start - 1 : start - 1 + len(p)]
        if run != p and run[::-1] != p:
            raise InvariantViolation(f"target {p} is not an arc of the cycle")
        arcs.append((start, len(p)))
    size, pts = hit_paths_in_cycle(len(order), arcs)
    if size > pre.t_remaining:
        return Solution("NO")
    return _finish(inst, pre.forced | {order[q - 1] for q in pts})
