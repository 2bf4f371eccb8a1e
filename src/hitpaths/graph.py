"""Simple undirected graphs as neighbour sets keyed by ascending vertex ids:
1..n for a built graph, the unpeeled input ids for fpt.preprocess's residual.

Provides the structural measures and rewriting operations the solvers rely
on: cyclomatic number, the set of high-degree vertices, the decomposition of
a graph minus its high-degree vertices into path and cycle components, and
deterministic bridging of disconnected inputs.
"""

from __future__ import annotations

from collections import deque
from contextlib import suppress
from typing import Iterable, KeysView, NamedTuple, Optional, Sequence

from .errors import InvariantViolation, NotAPath, ValidationError


class Graph(NamedTuple):
    """Simple undirected graph of n vertices and m edges; build validates.
    A built graph has the ids 1..n, a residual keeps the input's ids, and
    each constructor inserts the ids in ascending order."""

    n: int
    m: int
    neighbours: dict[int, set[int]]

    def __hash__(self) -> int:  # the neighbour sets are unhashable
        return hash((self.n, self.m))

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Validate the edges in the one pass that fills the neighbour sets,
        reading a one-shot iterable once; from_ends runs it to name a bad edge."""
        if n < 0:
            raise ValidationError(f"negative vertex count {n}")
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        m = 0
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"edge ({u},{v}) out of range 1..{n}")
            if v in adj[u]:
                raise ValidationError(f"duplicate edge {(u, v) if u < v else (v, u)}")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        return Graph(n, m, adj)

    @staticmethod
    def from_ends(n: int, us: Sequence[int], ws: Sequence[int]) -> "Graph":
        """build(n, zip(us, ws)) by two bulk passes, accepted when every end is
        an id and the degrees add up to 2m (a self-loop or a repeated edge adds
        an end to a set that holds it); else build's loop names the bad edge."""
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        with suppress(KeyError, TypeError):  # an end that is not an id
            deque(map(set.add, map(adj.__getitem__, us), ws), maxlen=0)
            deque(map(set.add, map(adj.__getitem__, ws), us), maxlen=0)
            if n >= 0 and sum(map(len, adj.values())) == 2 * len(us):
                return Graph(n, len(us), adj)
        return Graph.build(n, zip(us, ws))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, w) pairs with u < w, derived from the neighbour sets."""
        return frozenset((u, w) for u, ns in self.neighbours.items() for w in ns if u < w)

    def vertices(self) -> KeysView[int]:
        """The vertex ids, ascending."""
        return self.neighbours.keys()

    def adjacency(self) -> dict[int, set[int]]:
        """The neighbour sets, shared by every caller: none may mutate them."""
        return self.neighbours

    def components(self, vs: Optional[Iterable[int]] = None) -> list[list[int]]:
        """Connected components of the subgraph induced by vs (default: all
        vertices) as sorted vertex lists, ordered by smallest id."""
        adj = self.adjacency()
        if vs is not None:
            inside = set(vs)
            adj = {v: adj[v] & inside for v in inside}
        seen: set[int] = set()
        comps = []
        for start in sorted(adj):
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


class PathComponent(NamedTuple):
    """A path component of G - S, laid out left to right, or a cycle of G
    that S misses.

    attach_left / attach_right are the S-vertices adjacent to the first and
    last vertex; they are None exactly for a cycle of G that S misses.
    """

    vertices: tuple[int, ...]
    attach_left: Optional[int]
    attach_right: Optional[int]


def path_in(adj: dict[int, set[int]], seq: Sequence[int]) -> bool:
    """Whether seq is a simple path of the graph with adjacency map adj. The
    steps are checked in bulk and in order, so a vertex is looked up only
    once the step into it is known to be an edge (the keys are the ids)."""
    return (
        0 < len(seq) == len(set(seq))
        and seq[0] in adj
        and all(map(set.__contains__, map(adj.__getitem__, seq[:-1]), seq[1:]))
    )


def cyclomatic_number(g: Graph) -> int:
    """m - n + c; the minimum number of edges whose removal leaves a forest."""
    return g.m - g.n + len(g.components())


def high_degree_set(g: Graph) -> list[int]:
    """Vertices of degree at least three, ascending."""
    return [v for v, ns in g.adjacency().items() if len(ns) >= 3]


def path_components(g: Graph, s: set[int]) -> list[PathComponent]:
    """Components of g - s, s a set of g's vertices. Every vertex outside s
    must have degree 2 in g, else NotAPath is raised before any walk
    (solve's check that the peel left minimum degree 2); each component is
    then an induced path with both ends attached to s, or a cycle of g that
    s misses.

    Orientation: the endpoint with the smaller id comes first (a lone vertex
    has its smaller neighbour on the left); a cycle runs from its smallest
    vertex towards that vertex's smaller neighbour. Components are ordered
    by their smallest id. A path is walked once from an end next to s, a
    cycle from its smallest vertex, each step away from the last vertex.
    """
    adj = g.adjacency()
    for v, ns in adj.items():
        if len(ns) != 2 and v not in s:
            raise NotAPath(f"vertex {v} outside s has degree {len(ns)}, not 2")
    seen: set[int] = set()
    comps: list[PathComponent] = []
    for u in s:
        for w in adj[u]:
            if w in s or w in seen:
                continue
            a, prev, order = u, u, []  # a path, from the end at w
            while w not in s:
                order.append(w)
                x, y = adj[w]
                prev, w = w, (y if x == prev else x)
            seen.update(order)
            if (order[-1], w) < (order[0], a):  # smaller end, or neighbour, first
                order.reverse()
                a, w = w, a
            comps.append(PathComponent(tuple(order), a, w))
    if len(seen) + len(s) < len(adj):  # the rest lies on cycles of g that s misses
        for v in sorted(adj.keys() - s - seen):
            if v not in seen:
                prev, w, order = v, min(adj[v]), [v]
                while w != v:
                    order.append(w)
                    x, y = adj[w]
                    prev, w = w, (y if x == prev else x)
                seen.update(order)
                comps.append(PathComponent(tuple(order), None, None))
    comps.sort(key=lambda c: min(c.vertices))
    return comps


def connect_components(g: Graph) -> Graph:
    """Bridge all components into one, preserving the cyclomatic number.

    Each later component's lowest-id vertex is joined to the lowest-id vertex
    of the first component. The bridged graph copies g's validated neighbour
    sets and adds the bridges to them.
    """
    comps = g.components()
    if len(comps) <= 1:
        return g
    base = comps[0][0]
    adj = {v: set(ns) for v, ns in g.neighbours.items()}
    for c in comps[1:]:
        if c[0] in adj[base] or base in adj[c[0]]:
            raise InvariantViolation(f"bridge ({base},{c[0]}) joins adjacent vertices")
        adj[base].add(c[0])
        adj[c[0]].add(base)
    return Graph(g.n, g.m + len(comps) - 1, adj)
