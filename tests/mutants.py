"""Mutant ledger: source mutations that the tier-1 tests must catch.

Each mutant names a file of the package, an exact old text, the new text
that replaces it, and the tier-1 tests that must fail once it is applied;
it is killed when every one of them fails. The script first runs every
named test on an unmutated copy of src/ (a test that fails anyway kills
nothing), then, for each mutant, applies it to a fresh temporary copy of
src/ and runs its tests against that copy, printing the time each took.

    python tests/mutants.py   # exit 1 if a mutant survives, is stale or hits a bound

A mutant is stale when its old text does not occur exactly once in its
file. Each pytest run, the baseline included, is killed after TIMEOUT_S
seconds and has its address space capped at MEMORY_MB, so a mutant that
loops is printed by name as a timeout, or as a memory failure as soon as
its allocations pass the cap; either makes the script exit 1. A mutant
that survives is a finding about the tests, not a line to delete from the
list.

Not collected by pytest (the file name does not start with test_).
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # per pytest run; a run of a mutant's tests takes a few seconds
# per pytest run: the baseline run of every named test peaks at 55 MB of
# address space (Python 3.11, Linux); the rest is margin for other Pythons
# and platforms. A walk that never stops on a cycle hits it in about 13 s.
MEMORY_MB = 512


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/hitpaths
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant(
        "peel takes a vertex of live degree 2",
        "fpt.py",
        "        while deg[v] <= 1:\n",
        "        while deg[v] <= 2:\n",
        (
            "tests/test_fpt.py::test_preprocess_matches_quadratic_reference",
            "tests/test_fpt.py::test_long_pendant_chain_with_far_singleton",
        ),
    ),
    Mutant(
        "a target peeled whole forces its first-peeled vertex (min of its peel steps)",
        "fpt.py",
        "ends.setdefault(order[max(steps) - 1]",
        "ends.setdefault(order[min(steps) - 1]",
        (
            "tests/test_fpt.py::test_preprocess_peels_smallest_id_first",
            "tests/test_fpt.py::test_preprocess_matches_quadratic_reference",
        ),
    ),
    Mutant(
        "a target peeled whole forces a vertex even when already hit",
        "fpt.py",
        "        if any(map(forced.isdisjoint, ends[v])):",
        "        if ends[v]:",
        (
            "tests/test_fpt.py::test_preprocess_peels_smallest_id_first",
            "tests/test_fpt.py::test_preprocess_matches_quadratic_reference",
        ),
    ),
    Mutant(
        "a peel cascades above the scan",
        "fpt.py",
        "            if v > top:",
        "            if False:",
        (
            "tests/test_fpt.py::test_preprocess_peels_smallest_id_first",
            "tests/test_fpt.py::test_preprocess_matches_quadratic_reference",
        ),
    ),
    Mutant(
        "residual drops the edge at its smallest vertex",
        "fpt.py",
        "    residual = Graph(",
        "    if nbrs and nbrs[min(nbrs)]:\n"
        "        u = min(nbrs)\n"
        "        w = min(nbrs[u])\n"
        "        nbrs[u].discard(w)\n"
        "        nbrs[w].discard(u)\n"
        "    residual = Graph(",
        (
            "tests/test_fpt.py::test_preprocess_matches_quadratic_reference",
            "tests/test_fpt.py::test_k_and_verdict_come_off_the_walk",
        ),
    ),
    Mutant(
        "flower core id from the residual's vertex count",
        "fpt.py",
        "    core_id = inst.graph.n + 1  # above every residual id\n",
        "    core_id = g.n + 1\n",
        (
            "tests/test_fpt.py::test_residual_keeps_input_ids_through_a_flower_branch",
            "tests/test_fpt.py::test_branch_scan_matches_full_mask_reference",
        ),
    ),
    Mutant(
        "2-SAT encoding drops the chain clauses",
        "mvsat.py",
        "    out += [(-bvar[hi], bvar[lo]) for lo, hi in zip(named, named[1:]) if lo[0] == hi[0]]\n",
        "",
        (
            "tests/test_mvsat.py::test_encoding_matches_dense_reference",
            "tests/test_mvsat.py::test_decoded_models_are_monotone",
        ),
    ),
    Mutant(
        "canonical table's chain end off by one",
        "flower.py",
        "end[p] = end[q] or p\n",
        "end[p] = end[q] or p + 1\n",
        (
            "tests/test_flower.py::test_canonical_table_matches_eager_reference",
            "tests/test_flower.py::test_canonical_laws_random",
        ),
    ),
    Mutant(
        "cycle solver reads every target forwards",
        "fpt.py",
        "        if len(p) > 1 and twice[start] != p[1]:  # runs backwards\n"
        "            start = pos[p[-1]]\n",
        "",
        (
            "tests/test_fpt.py::test_solve_cycle_with_whole_cycle_targets",
            "tests/test_fpt.py::test_long_cycle_solves_in_linear_time",
        ),
    ),
    Mutant(
        "a run through s counts only its last stretch of a component",
        "fpt.py",
        "                inside[ci] = inside.get(ci, 0) + b - a\n",
        "                inside[ci] = b - a\n",
        (
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
            "tests/test_fpt.py::test_component_budgets_matches_classifying_reference",
        ),
    ),
    Mutant(
        "a run cut drops the run after the last S-vertex",
        "fpt.py",
        "        for b in [*cuts, len(p)]:\n",
        "        for b in cuts:\n",
        (
            "tests/test_fpt.py::test_component_budgets_cuts_targets_at_their_s_vertices",
            "tests/test_fpt.py::test_component_budgets_matches_classifying_reference",
        ),
    ),
    Mutant(
        "an internal target never covers its component",
        "fpt.py",
        "            if len(p) < len(verts[ci]):\n",
        "            if True:\n",
        (
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
            "tests/test_fpt.py::test_component_budgets_matches_classifying_reference",
        ),
    ),
    Mutant(
        "an internal target's span keeps its ends in target order",
        "fpt.py",
        "lo, hi = (x, y) if x <= y else (y, x)",
        "lo, hi = x, y",
        (
            "tests/test_fpt.py::test_solver_matches_oracle_random",
            "tests/test_fpt.py::test_component_budgets_matches_classifying_reference",
        ),
    ),
    Mutant(
        "a branch keeps the targets that S' hits",
        "fpt.py",
        "        if smask & s_mask or cover & live:\n",
        "        if cover & live:\n",
        (
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
            "tests/test_fpt.py::test_solver_matches_oracle_random",
        ),
    ),
    Mutant(
        "a branch keeps the fragment of a deleted component",
        "fpt.py",
        "frags = ((h, runs[0][1]),) if h >= 0 else ()",
        "frags = ((h, runs[0][1]),) if first else ()",
        (
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
            "tests/test_fpt.py::test_solver_matches_oracle_random",
        ),
    ),
    Mutant(
        "a crossing target's fragments in reverse path order",
        "fpt.py",
        "crossing.append(frags + ((t, runs[-1][1]),) if t >= 0 else frags)",
        "crossing.append(((t, runs[-1][1]),) + frags if t >= 0 else frags)",
        (
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
        ),
    ),
    Mutant(
        "a deleted component's internal targets are dropped, not rejected",
        "fpt.py",
        "            elif c.spans or c.whole:  # emptied: make_flower rejects it by its index\n",
        "            elif False:\n",
        (
            "tests/test_fpt.py::test_build_flower_branch_shapes",
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
        ),
    ),
    Mutant(
        "a petal takes the internal spans of the component before it",
        "fpt.py",
        "                internal.append(c.spans)\n",
        "                internal.append(layout.comps[ci - 1].spans)\n",
        (
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
            "tests/test_fpt.py::test_flower_branches_hand_on_the_layouts_internal_targets",
        ),
    ),
    Mutant(
        "the layout's attach check accepts any end",
        "fpt.py",
        "            a and (p[a - 1], p[a]) not in links or b < len(p) and (p[b], p[b - 1]) not in links\n",
        "            False\n",
        (
            "tests/test_fpt.py::test_component_budgets_cuts_targets_at_their_s_vertices",
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
        ),
    ),
    Mutant(
        "skeleton drops the edges inside S",
        "fpt.py",
        "    inside = [(u, w) for u in s for w in g.neighbours[u] if w in root]  # the edges inside S\n",
        "    inside = []\n",
        (
            "tests/test_fpt.py::test_k_and_verdict_come_off_the_walk",
            "tests/test_fpt.py::test_connected_input_runs_one_component_search",
        ),
    ),
    Mutant(
        "k's component count misses the walk's cycles",
        "fpt.py",
        "    c = len(s) + sum(p.attach_left is None for p in walk)\n",
        "    c = len(s)\n",
        (
            "tests/test_fpt.py::test_solve_disconnected_graph",
            "tests/test_fpt.py::test_k_and_verdict_come_off_the_walk",
        ),
    ),
    Mutant(
        "the union-find skipping the edges inside S",
        "fpt.py",
        "    for u, w in inside + attached:  # each step to a root halves the path it takes\n",
        "    for u, w in attached:  # each step to a root halves the path it takes\n",
        (
            "tests/test_fpt.py::test_union_find_counts_skeletons_the_walk_does_not_attach",
            "tests/test_fpt.py::test_k_and_verdict_come_off_the_walk",
        ),
    ),
    Mutant(
        "the skeleton cache keyed by a constant (one skeleton per layout)",
        "fpt.py",
        "    skeleton = layout.skeletons.get(key)\n",
        "    skeleton = next(iter(layout.skeletons.values()), None)\n",
        (
            "tests/test_fpt.py::test_flower_branches_share_one_skeleton_per_live_mask",
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
        ),
    ),
    Mutant(
        "the stored skeleton keeping the first S' core links",
        "fpt.py",
        "                ends += (c.left, c.vertices[0]), (c.right, c.vertices[-1])  # with their S-bits\n",
        "                ends += [(0, v) for v, b in ((c.vertices[0], c.left), (c.vertices[-1], c.right))\n"
        "                         if not b & s_mask]\n",
        (
            "tests/test_fpt.py::test_flower_branches_share_one_skeleton_per_live_mask",
            "tests/test_fpt.py::test_flower_branch_matches_rebuilding_reference",
        ),
    ),
    Mutant(
        "one-sided adjacency",
        "graph.py",
        "            adj[v].add(u)\n",
        "",
        (
            "tests/test_io.py::test_graph_build_stores_the_adjacency_of_its_edges",
            "tests/test_graph.py::test_path_components_of_c4",
        ),
    ),
    Mutant(
        "walk skips its degree check",
        "graph.py",
        "        if len(ns) != 2 and v not in s:\n",
        "        if False:\n",
        (
            "tests/test_graph.py::test_path_components_rejects_a_vertex_outside_s_of_degree_other_than_2",
            "tests/test_graph.py::test_path_components_matches_reference_on_residuals",
        ),
    ),
    Mutant(
        "cycle walked towards the larger neighbour",
        "graph.py",
        "min(adj[v])",
        "max(adj[v])",
        (
            "tests/test_graph.py::test_path_components_rejects_cycles_and_branching",
            "tests/test_graph.py::test_path_components_matches_reference_on_residuals",
        ),
    ),
    Mutant(
        "vertex id table shifted by one",
        "instance_io.py",
        "{str(v): v for v in",
        "{str(v + 1): v for v in",
        (
            "tests/test_io.py::test_ids_in_other_spellings_parse_as_canonical_ones",
            "tests/test_io.py::test_streaming_parse_matches_the_two_pass_reference",
        ),
    ),
    Mutant(
        "the bulk graph fill is accepted without its degree-sum test",
        "graph.py",
        "            if n >= 0 and sum(map(len, adj.values())) == 2 * len(us):\n",
        "            if n >= 0:\n",
        (
            "tests/test_io.py::test_bulk_graph_build_matches_the_two_pass_reference",
            "tests/test_io.py::test_streaming_parse_matches_the_two_pass_reference",
        ),
    ),
    Mutant(
        "the bulk target check drops its repeated-vertex test",
        "instance_io.py",
        "                and [*map(len, map(set, paths))] == [*map(len, paths)]\n",
        "",
        (
            "tests/test_io.py::test_bulk_target_checks_match_the_one_by_one_reference",
        ),
    ),
    Mutant(
        "the bulk target check drops its first-vertex test",
        "instance_io.py",
        "                and all(map(adj.__contains__, map(itemgetter(0), paths)))\n",
        "",
        (
            "tests/test_io.py::test_bulk_target_checks_match_the_one_by_one_reference",
        ),
    ),
    Mutant(
        "certificate takes the largest chosen vertex",
        "instance_io.py",
        "tuple(map(min, map(cs.intersection, paths)))",
        "tuple(map(max, map(cs.intersection, paths)))",
        (
            "tests/test_io.py::test_target_checks_match_the_set_building_reference",
        ),
    ),
    Mutant(
        "solve_flower always answers NO",
        "flower.py",
        "    if () in inst.crossing:  # a target that is the bare core\n",
        "    if True:\n",
        (
            "tests/test_flower.py::test_solve_flower_worked_example",
            "tests/test_flower.py::test_solve_flower_matches_bruteforce_random",
        ),
    ),
    Mutant(
        "fragment_literal's suffix bound off by one",
        "flower.py",
        "(petal_index, GE, table.first + j)",
        "(petal_index, GE, table.first + j + 1)",
        (
            "tests/test_flower.py::test_fragment_literals",
            "tests/test_flower.py::test_solve_flower_matches_bruteforce_random",
        ),
    ),
    Mutant(
        "fragment_literal drops its range check",
        "flower.py",
        "    if not 1 <= lo <= hi <= table.length:\n",
        "    if False:\n",
        (
            "tests/test_flower.py::test_fragment_literal_rejects_out_of_range",
        ),
    ),
    Mutant(
        "write_signed_formula swaps var and bound",
        "instance_io.py",
        'f"{var}:{bound}"',
        'f"{bound}:{var}"',
        (
            "tests/test_io.py::test_write_signed_formula_of_plain_triples_roundtrips",
        ),
    ),
    Mutant(
        "SignedFormula._make and _replace skip the literal checks",
        "mvsat.py",
        "    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too\n",
        "",
        (
            "tests/test_mvsat.py::test_signed_formula_replace_and_make_run_the_checks",
        ),
    ),
    Mutant(
        "Tarjan counts every visited node as on the stack",
        "mvsat.py",
        "                if comp[w] < 0:\n",
        "                if True:\n",
        (
            "tests/test_mvsat.py::test_solve_2sat_models_match_cursor_reference",
            "tests/test_mvsat.py::test_solve_2sat_matches_truth_table",
        ),
    ),
    Mutant(
        "solve_2sat drops its clause width check",
        "mvsat.py",
        "        if len(clause) > 2:\n"
        '            raise ClauseTooWide(f"clause of width {len(clause)} (max 2)")\n'
        "        if clause:",
        "        if clause:",
        (
            "tests/test_mvsat.py::test_solve_2sat_checks_its_clauses",
        ),
    ),
    Mutant(
        "solve_2sat drops its literal range check",
        "mvsat.py",
        "            if not (1 < a < top and 1 < b < top):\n",
        "            if False:\n",
        (
            "tests/test_mvsat.py::test_solve_2sat_checks_its_clauses",
        ),
    ),
    Mutant(
        "SignedFormula drops its variable range check",
        "mvsat.py",
        "                if not (1 <= var <= num_vars):\n",
        "                if False:\n",
        (
            "tests/test_io.py::test_parse_formula_errors",
            "tests/test_mvsat.py::test_signed_formula_rejects_each_bad_literal",
        ),
    ),
    Mutant(
        "SignedFormula drops its bound range check",
        "mvsat.py",
        "                if not (1 <= bound <= num_values):\n",
        "                if False:\n",
        (
            "tests/test_io.py::test_parse_formula_errors",
            "tests/test_mvsat.py::test_signed_formula_rejects_each_bad_literal",
        ),
    ),
    Mutant(
        "SignedFormula drops its op check",
        "mvsat.py",
        "                if op not in (GE, LE):\n",
        "                if False:\n",
        (
            "tests/test_mvsat.py::test_signed_formula_rejects_each_bad_literal",
        ),
    ),
    Mutant(
        "satisfies reads every literal as >=",
        "mvsat.py",
        "values[v - 1] >= b if op == GE else values[v - 1] <= b",
        "values[v - 1] >= b",
        (
            "tests/test_mvsat.py::test_tors2sat_takes_plain_triples",
            "tests/test_mvsat.py::test_tors2sat_agrees_with_enumeration",
            "tests/test_flower.py::test_solve_flower_matches_bruteforce_random",
            "tests/test_fpt.py::test_solver_matches_oracle_random",
        ),
    ),
)


def cap_memory() -> None:
    """Cap the address space of the pytest child before it starts."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MB << 20, MEMORY_MB << 20))


def run_tests(src: Path, tests) -> tuple[Optional[str], int, list[str]]:
    """The bound the run hit ("timeout" or "memory", else None), pytest's
    exit code and the ids of the tests that passed, with the package
    imported from src. A run still going after TIMEOUT_S is killed; an
    allocation past MEMORY_MB raises MemoryError in the run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rp", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            preexec_fn=cap_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout", -1, []
    bound = "memory" if "MemoryError" in done.stdout + done.stderr else None
    return bound, done.returncode, re.findall(r"^PASSED (\S+)", done.stdout, re.M)


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        bound, code, _ = run_tests(copy_src(tmp), named)
    if bound:
        print(f"{bound:9} the named tests on the unmutated source ({TIMEOUT_S} s, {MEMORY_MB} MB)")
        return 1
    if code:
        print(f"the named tests do not all pass on the unmutated source (pytest exit {code})")
        return 1
    failures = 0
    for m in MUTANTS:
        path = ROOT / "src" / "hitpaths" / m.file
        found = path.read_text().count(m.old)
        if found != 1 or not m.tests:
            print(f"STALE     {m.file}: old text found {found} times, {len(m.tests)} tests  {m.name}")
            failures += 1
            continue
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            target = copy_src(tmp) / "hitpaths" / m.file
            target.write_text(path.read_text().replace(m.old, m.new))
            bound, _, passed = run_tests(target.parent.parent, m.tests)
        verdict = bound or ("SURVIVED" if passed else "killed")
        print(f"{verdict:9} {time.perf_counter() - t0:5.1f} s  {m.name}", flush=True)
        for test in passed:
            print(f"          passes on the mutant: {test}")
        failures += verdict != "killed"
    print(f"{len(MUTANTS)} mutants, {failures} survived, stale or hit a bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
