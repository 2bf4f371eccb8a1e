"""The fixed-parameter algorithm for hitting simple paths.

Pipeline: strip degree-<=1 vertices (forcing those demanded by singleton
targets), count k off one walk of G - S (a union-find over the high-degree
vertices S), bridge components, dispatch simple cycles to the cycle solver,
lay the targets out once, in one record per path component or across S,
and branch over which vertices of S join the solution and which path
components get their optimum budget versus optimum+1. A branch that puts
all of S into the solution is filled greedily per component; every other
surviving branch is read off the layout (its petals once per set of
positive-budget components) as an exact-budget flower instance, solved via
signed 2-SAT; the first success is the answer.
"""

from __future__ import annotations

from itertools import compress, repeat
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
from .treecycle import hit_paths_in_cycle, stab_intervals


class PreprocessResult(NamedTuple):
    graph: Graph  # residual graph in the input's ids, min degree >= 2 (or empty)
    paths: tuple[tuple[int, ...], ...]  # the kept targets' unpeeled middles
    forced: frozenset[int]  # vertices forced into every solution
    t_remaining: int  # may be negative


class SolveStats(SimpleNamespace):
    """The one mutable record: a solve's counters, read with vars()."""

    def __init__(self) -> None:
        self.__dict__.update(k=0, high_degree=0, components=0, branches_enumerated=0,
                             branches_after_filter=0, flower_calls=0, solution_cost=None)


def preprocess(inst: HitPathsInstance) -> PreprocessResult:
    """Remove degree-<=1 vertices until the residual has min degree >= 2.

    Vertices are peeled smallest id first, in Prüfer order and with no heap:
    one upward scan of the ids peels a vertex of live degree <= 1 when it
    gets there, and a peel that leaves a neighbour below the scan at degree
    1 peels that neighbour at once (Batagelj-Zaversnik peeling). Live
    degrees and peel steps are kept in lists beside the graph's shared,
    unmodified adjacency.

    One rule over each target's list of peel steps then settles it: a
    target peeled whole forces its last-peeled vertex into the solution (the
    budget drops by one) unless a vertex forced at an earlier step already
    hits it, and one that no forced vertex hits keeps its unpeeled middle.
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
    if min(map(len, adj.values()), default=2) > 1:  # nothing peels: the residual is the input
        return PreprocessResult(g, inst.paths, frozenset(), inst.t)
    deg = [0, *map(len, adj.values())]  # live degree per id, the ids ascending from 1
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
    # per target, its peel steps: with no 0 it is peeled whole, ending at order[max(steps) - 1]
    steps_of = [*map(list, map(map, repeat(when.__getitem__), inst.paths))]
    ends: dict[int, list[tuple[int, ...]]] = {}  # last-peeled vertex -> targets peeled whole
    for p, steps in zip(inst.paths, steps_of):
        if 0 not in steps:
            ends.setdefault(order[max(steps) - 1], []).append(p)
    forced: set[int] = set()
    for v in filter(ends.__contains__, order):
        if any(map(forced.isdisjoint, ends[v])):  # a target no earlier forced vertex hits
            forced.add(v)
    new_paths = []
    for p, steps in compress(zip(inst.paths, steps_of), map(forced.isdisjoint, inst.paths)):
        if 0 not in steps:
            raise InvariantViolation("preprocessing emptied a target")
        a = steps.index(0)  # the unpeeled middle is p[a:b]
        b = a + steps.count(0)
        if any(steps[a:b]):
            raise InvariantViolation("preprocessing peeled an inner target vertex")
        new_paths.append(p[a:b])
    return PreprocessResult(residual, tuple(new_paths), frozenset(forced), inst.t - len(forced))


class Component(NamedTuple):  # a path component of G - S, as every branch of a solve reads it
    vertices: tuple[int, ...]  # the walk's, left to right
    left: int  # the S-bit (bit i for s[i]) of the attachment at vertices[0]
    right: int  # and at vertices[-1]
    opt: int  # the piercing optimum of its internal targets
    greedy: frozenset[int]  # positions of an optimum piercing
    spans: tuple[tuple[int, int], ...]  # (lo, hi) of the internal targets not holding it whole
    paths: tuple[tuple[int, ...], ...]  # those targets
    whole: tuple[tuple[int, ...], ...]  # the internal targets that hold it whole


class BranchLayout(NamedTuple):  # component_budgets' result, read by every branch of a solve
    comps: list[Component]
    # per target through S: S-mask (bit i for s[i]), mask of the components it holds whole,
    # indices of its first and last S-vertex, runs as (component, (lo, hi)), itself
    targets: list[tuple]
    skeletons: dict  # live mask -> build_flower_branch's part for it, filled as branches ask


def component_budgets(comps: list[PathComponent], s, paths) -> BranchLayout:
    """One record per component of path_components' walk (vertices,
    attachments' S-bits, internal targets, their piercing optimum), the
    layout of each target through S, and an empty store of skeletons.

    Budget candidates for the branching step are {opt, opt + 1}. The one
    walk over the targets reads each vertex's component and 1-based position
    from one map and cuts a target at the sorted positions of its S-vertices
    into runs outside S. A run must be its component's stretch between its
    ends' positions, read either way, and step into S only from the end
    attached to the S-vertex beside it, else FlowerShapeViolation is raised
    before any branch: a run between S-vertices holds its component whole,
    and a first or last run is a prefix or a suffix. A target inside a
    component is filed with it, as a span and a path unless it holds it whole.
    """
    s, bit = set(s), {v: 1 << i for i, v in enumerate(s)}
    verts = [c.vertices for c in comps]
    at = {v: (ci, q) for ci, vs in enumerate(verts) for q, v in enumerate(vs, 1)}
    links = {(c.attach_left, c.vertices[0]) for c in comps}  # the edges from S into G - S
    links |= {(c.attach_right, c.vertices[-1]) for c in comps}
    # per component: its internal targets' spans and paths, and those that hold it whole
    spans, inner, whole, targets = [[] for _ in comps], [[] for _ in comps], [[] for _ in comps], []

    def run(p, a: int, b: int) -> tuple[int, tuple[int, int]]:
        """(component, (lo, hi)) of the checked run p[a:b]."""
        (ci, x), (cj, y) = at[p[a]], at[p[b - 1]]
        lo, hi = (x, y) if x <= y else (y, x)
        stretch = verts[ci][lo - 1 : hi]
        if ci != cj or p[a:b] != (stretch if x <= y else stretch[::-1]) or (
            a and (p[a - 1], p[a]) not in links or b < len(p) and (p[b], p[b - 1]) not in links
        ):
            raise FlowerShapeViolation(f"target {p} does not run along G - S")
        return ci, (lo, hi)

    for p in paths:
        hits = s.intersection(p)
        if not hits:  # a target inside an induced path runs from one end to the other
            ci, span = run(p, 0, len(p))
            if len(p) < len(verts[ci]):
                spans[ci].append(span)
                inner[ci].append(p)
            else:
                whole[ci].append(p)
            continue
        if len(hits) == len(p):  # inside S: no runs
            targets.append((sum(map(bit.__getitem__, hits)), 0, 0, len(p) - 1, (), p))
            continue
        # the runs p[a:b] between the sorted positions of S-vertices, len(p) closing the last
        cuts = sorted(map(p.index, hits))
        runs, inside, cover, a = [], {}, 0, 0  # inside: component -> vertices of p in it
        for b in [*cuts, len(p)]:
            if a < b:
                ci, _ = r = run(p, a, b)
                runs.append(r)
                inside[ci] = inside.get(ci, 0) + b - a
                if inside[ci] == len(verts[ci]):  # p holds it whole
                    cover |= 1 << ci
            a = b + 1
        smask = sum(map(bit.__getitem__, hits))
        targets.append((smask, cover, cuts[0], cuts[-1], tuple(runs), p))
    return BranchLayout([Component(vs, bit[c.attach_left], bit[c.attach_right],
                                   *stab_intervals(len(vs), sp + [(1, len(vs))] * len(wh)),
                                   tuple(sp), tuple(ps), tuple(wh))  # each whole one spans (1, len)
                         for c, vs, sp, ps, wh in zip(comps, verts, spans, inner, whole)],
                        targets, {})


def build_flower_branch(layout: BranchLayout, budgets, s_mask: int, core_id: int) -> FlowerInstance:
    """Turn one (S', budgets) guess, S' given by its mask over s, into a
    flower instance read off the solve's layout.

    Zero-budget components are deleted and the rest become petals, each
    with its component's internal spans and paths; internal targets of a
    deleted component would be emptied, and make_flower names the first.
    That part depends only on the live mask (the components of positive
    budget), so the layout keeps it from the mask's first branch on. A
    target through S that S' hits or that holds a whole petal is dropped.
    Any other keeps the core and those of its first and last runs that lie
    on petals: its runs between S-vertices hold their components whole, so
    they are deleted, and its S-vertices contract to the core. S' must leave
    a vertex of S for the core.
    """
    key = tuple(map(bool, budgets))  # the live mask
    skeleton = layout.skeletons.get(key)
    if skeleton is None:  # the mask's first branch; petal_of: per component its petal or -1
        live, petal_of, petals, internal, inner, ends = 0, [], [], [], [], []
        for ci, (c, alive) in enumerate(zip(layout.comps, key)):
            petal_of.append(len(petals) if alive else -1)
            if alive:
                live |= 1 << ci
                petals.append(c.vertices)
                internal.append(c.spans)
                inner += c.paths
                ends += (c.left, c.vertices[0]), (c.right, c.vertices[-1])  # with their S-bits
            elif c.spans or c.whole:  # emptied: make_flower rejects it by its index
                try:
                    make_flower(core_id, petals, [1] * len(petals), [*inner, ()])
                except ValidationError as exc:
                    raise FlowerShapeViolation(str(exc)) from exc
        skeleton = layout.skeletons[key] = (live, petal_of, tuple(petals), tuple(internal),
                                            tuple(inner), ends)
    live, petal_of, petals, internal, inner, ends = skeleton
    paths, crossing = [], []
    for smask, cover, first, last, runs, p in layout.targets:
        if smask & s_mask or cover & live:
            continue
        if not runs:  # its S-vertices alone: the bare core
            crossing.append(())
            paths.append((core_id,))
            continue
        h = petal_of[runs[0][0]] if first else -1  # it keeps the end runs on petals
        t = petal_of[runs[-1][0]] if last + 1 < len(p) else -1
        frags = ((h, runs[0][1]),) if h >= 0 else ()
        crossing.append(frags + ((t, runs[-1][1]),) if t >= 0 else frags)
        paths.append((p[:first] if h >= 0 else ()) + (core_id,) + (p[last + 1 :] if t >= 0 else ()))
    links = frozenset([v for bit, v in ends if not bit & s_mask])
    return FlowerInstance(core_id, petals, tuple(filter(None, budgets)), inner + tuple(paths),
                          links, internal, tuple(crossing))


def _fill_component(c: Component, budget: int) -> set[int]:
    """Exactly `budget` vertices of the component hitting all its internal
    targets: the greedy optimum padded with the highest unused positions."""
    chosen = {c.vertices[p - 1] for p in c.greedy}
    for v in reversed(c.vertices):
        if len(chosen) >= budget:
            break
        chosen.add(v)
    if len(chosen) != budget:
        raise InvariantViolation(f"component cannot take a budget of {budget}")
    return chosen


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
    # with no attachment is a cycle. A union-find over S counts the rest.
    root = {v: v for v in s}
    inside = [(u, w) for u in s for w in g.neighbours[u] if w in root]  # the edges inside S
    attached = [(p.attach_left, p.attach_right) for p in walk if p.attach_left is not None]
    c = len(s) + sum(p.attach_left is None for p in walk)
    for u, w in inside + attached:  # each step to a root halves the path it takes
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[w] != w:
            root[w] = w = root[root[w]]
        if u != w:
            root[u] = w
            c -= 1
    stats.k = k = g.m - g.n + c
    if pre.t_remaining < 0:
        return Solution("NO")
    if g.n == 0:
        return _finish(inst, pre.forced)
    if c > 1:
        g = connect_components(g)
        s = high_degree_set(g)
        walk = path_components(g, set(s))
    if not s:  # connected with minimum degree 2: a simple cycle
        return _solve_cycle(inst, pre, walk[0].vertices, pre.paths)

    layout = component_budgets(walk, s, pre.paths)
    comps = layout.comps
    stats.high_degree = len(s)
    stats.components = nc = len(comps)
    opts = [comp.opt for comp in comps]
    total_opt = sum(opts)
    # components where opt + 1 would not fit must always get the optimum
    must_opt_mask = sum(1 << ci for ci, c in enumerate(comps) if c.opt == len(c.vertices))
    core_id = inst.graph.n + 1  # above every residual id
    full = (1 << len(s)) - 1  # S' = S

    for s_mask in range(full + 1):
        base_cost = s_mask.bit_count() + total_opt + nc
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
            if s_mask == full:
                # no core: every target S misses lies inside one
                # positive-budget component, which its greedy fill hits
                chosen = set(s)
                for comp, budget in zip(comps, budgets):
                    if budget > 0:
                        chosen |= _fill_component(comp, budget)
            else:
                branch = build_flower_branch(layout, budgets, s_mask, core_id)
                stats.flower_calls += 1
                fsol = solve_flower(branch)
                if fsol.verdict != "YES":
                    c_mask = (c_mask + 1) | must_opt_mask  # the next superset
                    continue
                chosen = {v for i, v in enumerate(s) if s_mask >> i & 1} | fsol.chosen
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
