"""Brute-force reference solver used for cross-validation.

Small and slow on purpose: a bounded search tree for minimum hitting set
over arbitrary set families. It backs the `oracle` verb, the check of a NO
claim in `verify`, the agreement harness, and the random generator's
budget policies.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

from .errors import CapExceeded, ValidationError
from .instance_io import Solution


def default_cap() -> int:
    raw = os.environ.get("HITPATHS_CAP", "10000000")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"HITPATHS_CAP={raw!r} is not an integer") from None


class SetSystem(NamedTuple):
    universe: int
    sets: tuple[frozenset[int], ...]

    @staticmethod
    def build(universe: int, sets) -> "SetSystem":
        frozen = tuple(frozenset(s) for s in sets)
        for s in frozen:
            if any(not (1 <= v <= universe) for v in s):
                raise ValidationError("set member outside the universe")
        return SetSystem(universe, frozen)


def exact_min_hitting_set(
    sys: SetSystem, cap: int
) -> tuple[Optional[int], Optional[frozenset[int]]]:
    """Exact minimum hitting set of size at most cap, else (None, None).

    Bounded search tree: take the first unhit set, branch on its elements in
    ascending order, prune at the best size found so far. An empty target
    set is unhittable, so its presence reports the cap as exceeded. Raises
    CapExceeded when the search visits more than default_cap() nodes.
    """
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    if any(not s for s in sys.sets):
        return None, None
    sets = [sorted(s) for s in sys.sets]
    node_cap = default_cap()
    best_size: Optional[int] = None
    best: Optional[frozenset[int]] = None
    chosen: list[int] = []  # branch vertices from the root to the current node
    members: set[int] = set()
    stack: list = []  # per node on the current root path: its untried branches
    nodes = 0
    while True:
        nodes += 1
        if nodes > node_cap:
            raise CapExceeded(f"hitting-set search exceeds {node_cap} nodes")
        target = next((s for s in sets if members.isdisjoint(s)), None)
        if target is None:
            if best_size is None or len(chosen) < best_size:
                best_size, best = len(chosen), frozenset(chosen)
            target = []
        elif len(chosen) >= (cap if best_size is None else min(cap, best_size - 1)):
            target = []
        stack.append(iter(target))
        v = None
        while stack and v is None:
            if len(chosen) == len(stack):  # undo the sibling explored last
                members.discard(chosen.pop())
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
        if v is None:
            return best_size, best
        chosen.append(v)
        members.add(v)


def reference_verdict(inst) -> Solution:
    """Verdict of the exact hitting-set search on an instance's targets
    within budget t; the witness is a minimum hitting set."""
    system = SetSystem.build(inst.graph.n, [frozenset(p) for p in inst.paths])
    size, witness = exact_min_hitting_set(system, inst.t)
    if size is None:
        return Solution("NO")
    return Solution("YES", witness)
