"""Span tracing of the solver's layers from outside the package.

`Tracer.install` replaces public functions of the ``hitpaths`` modules with
timing wrappers and `Tracer.uninstall` puts the originals back. A wrapper
has to replace the name where the caller looks it up: ``fpt`` calls
``make_flower`` and ``solve_flower`` through its own imported names, and
``stab_intervals`` is bound in both ``fpt`` and ``treecycle``. So every
module of the package is scanned and each binding of the original object
is patched. A function that no longer exists is reported as absent.

Spans (name, start, end, parent span, instance id) are kept in flat arrays
while the run lasts and summarised or written out when it ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

PACKAGE = "hitpaths"


def _branch_outcome(counters, args, kwargs, result):
    kind = {
        "BranchInfeasible": "fpt.branch.infeasible",
        "DirectVerdict": "fpt.branch.direct",
        "FlowerInstance": "fpt.branch.flower",
    }.get(type(result).__name__, "fpt.branch.other")
    counters[kind] += 1


def _flower_verdict(counters, args, kwargs, result):
    if getattr(result, "verdict", None) == "YES":
        counters["flower.solve_flower.yes"] += 1


def _table_cells(counters, args, kwargs, result):
    counters["flower.canonical_table.cells"] += args[0] if args else kwargs["petal_length"]


def _cnf_size(counters, args, kwargs, result):
    cnf = result[0]
    counters["mvsat.bool_vars"] += cnf.num_vars
    counters["mvsat.bool_clauses"] += len(cnf.clauses)


def _unsat(counters, args, kwargs, result):
    if result is None:
        counters["mvsat.unsat"] += 1


# (span name, module, attribute path, counters the span feeds, hook).
# Counter names are listed so that an absent function reports them absent.
LAYERS = (
    ("instance_io.parse_instance", "instance_io", "parse_instance", (), None),
    ("fpt.solve", "fpt", "solve", (), None),
    ("fpt.preprocess", "fpt", "preprocess", (), None),
    ("fpt.component_budgets", "fpt", "component_budgets", (), None),
    (
        "fpt.build_flower_branch",
        "fpt",
        "build_flower_branch",
        ("fpt.branch.infeasible", "fpt.branch.direct", "fpt.branch.flower"),
        _branch_outcome,
    ),
    ("flower.make_flower", "flower", "make_flower", (), None),
    (
        "flower.solve_flower",
        "flower",
        "solve_flower",
        ("flower.solve_flower.yes",),
        _flower_verdict,
    ),
    (
        "flower.canonical_table",
        "flower",
        "canonical_table",
        ("flower.canonical_table.cells",),
        _table_cells,
    ),
    (
        "mvsat.signed_to_classical",
        "mvsat",
        "signed_to_classical",
        ("mvsat.bool_vars", "mvsat.bool_clauses"),
        _cnf_size,
    ),
    ("mvsat.solve_2sat", "mvsat", "solve_2sat", ("mvsat.unsat",), _unsat),
    ("treecycle.stab_intervals", "treecycle", "stab_intervals", (), None),
    ("treecycle.hit_paths_in_cycle", "treecycle", "hit_paths_in_cycle", (), None),
    ("graph.cyclomatic_number", "graph", "cyclomatic_number", (), None),
    ("graph.adjacency", "graph", "Graph.adjacency", (), None),
)


def _lookup(module: str, attr: str):
    """(owner, name, object) for `attr` of hitpaths.<module>, or None."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    obj = getattr(owner, name, None) if owner is not None else None
    return None if obj is None else (owner, name, obj)


class Tracer:
    """Collects spans and counters for the layers listed in LAYERS."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, hook=None):
        name_id = self.name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Patch every binding of each layer function inside the package."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name, module, attr, counter_names, hook in layers:
            found = _lookup(module, attr)
            if found is None:
                self.absent.append(name)
                self.absent.extend(counter_names)
                continue
            owner, attr_name, original = found
            wrapper = self.wrap(name, original, hook)
            self._patch(owner, attr_name, original, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def summary(self, factors=None) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, calls, and the
        seconds covered by direct child spans. Each duration is multiplied
        by factors[instance] when factors are given."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [
            (self.span_end[i] - self.span_start[i])
            * (factors[self.span_instance[i]] if factors else 1.0)
            for i in range(n)
        ]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"s": 0.0, "self_s": 0.0, "calls": 0, "child_s": 0.0} for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["calls"] += 1
            rec["child_s"] += child[i]
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("instance\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                name = self.names[self.span_name[i]]
                fh.write(
                    f"{self.span_instance[i]}\t{i}\t{self.span_parent[i]}\t{name}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
