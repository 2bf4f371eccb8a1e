import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hitpaths
from hitpaths.bench import AgreementReport, ScalingReport
from hitpaths.oracle import SetSystem
from hitpaths.reductions import GeneratorConfig

ROOT = Path(__file__).resolve().parent.parent


def test_self_checks_survive_optimized_mode():
    # `python -O` strips assert statements, so the package raises instead
    offenders = []
    for path in sorted((ROOT / "src" / "hitpaths").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert hitpaths.__version__ == match.group(1)


def test_every_definition_has_a_caller_outside_the_tests():
    # a top-level function, class or method must be named somewhere in the
    # package besides its own definition and __init__.py, in a perfbench
    # script, or as a console script; test-only helpers live in tests/
    defs = []  # (file, name, first line, last line)
    refs = []  # (file, line, name)
    for path in sorted((ROOT / "src" / "hitpaths").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for d in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("__"):
                    defs.append((path, d.name, d.lineno, d.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                refs.append((path, node.lineno, getattr(node, "id", None) or node.attr))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    outside = set(re.findall(r'^\w+ = "[\w.]+:(\w+)"$', pyproject, re.MULTILINE))  # scripts
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            outside |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}:{first} {name}"
        for path, name, first, last in defs
        if name not in outside
        and not any(r == name and not (f == path and first <= line <= last) for f, line, r in refs)
    ]
    assert unused == []


def loaded_modules(code: str) -> dict:
    """Run `code` in a fresh interpreter on the package in src/; it leaves
    its results in a dict `out`, returned with the package's loaded modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    report = (
        "import json, sys\n"
        "out['modules'] = sorted(m for m in sys.modules if m.split('.')[0] == 'hitpaths')\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", "out = {}\n" + code + "\n" + report],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_solver_loads_only_the_modules_a_solve_runs():
    got = loaded_modules("import hitpaths, hitpaths.fpt, hitpaths.instance_io")
    solve_modules = ["errors", "flower", "fpt", "graph", "instance_io", "mvsat", "treecycle"]
    assert got["modules"] == ["hitpaths"] + [f"hitpaths.{m}" for m in solve_modules]


def test_cli_solve_and_a_yes_verify_load_no_oracle_generator_or_harness(tmp_path):
    inst = tmp_path / "inst.hp"
    inst.write_text("p hitpaths 4 5 2 1\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 1 3\n"
                    "s 3 2 1 4\ns 2 3 4\n", encoding="utf-8")
    sol = tmp_path / "inst.sol"
    got = loaded_modules(
        "import contextlib, io\n"
        "from hitpaths import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        f"    out['solve'] = cli.run(['solve', {str(inst)!r}])\n"
        f"open({str(sol)!r}, 'w', encoding='utf-8').write(text.getvalue())\n"
        f"out['verify'] = cli.run(['verify', {str(inst)!r}, {str(sol)!r}])\n"
    )
    assert (got["solve"], got["verify"]) == (0, 0)
    assert sol.read_text(encoding="utf-8").startswith("s 1 ")
    assert "hitpaths.cli" in got["modules"]
    unused = {"hitpaths.bench", "hitpaths.oracle", "hitpaths.reductions"}
    assert unused.isdisjoint(got["modules"]), got["modules"]


def test_no_module_imports_dataclasses():
    # records are tuples (typing.NamedTuple or a namedtuple subclass), and
    # SolveStats is a SimpleNamespace, so no record needs generated code
    offenders = []
    for path in sorted((ROOT / "src" / "hitpaths").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_importing_the_solver_loads_neither_dataclasses_nor_inspect():
    got = loaded_modules(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hitpaths, hitpaths.fpt, hitpaths.instance_io\n"
        "out['std'] = sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
    )
    assert got["std"] == []


def test_records_keep_their_hash_rule_and_counters():
    records = [
        hitpaths.Graph, hitpaths.HitPathsInstance, hitpaths.FlowerInstance,
        hitpaths.SignedFormula, SetSystem, GeneratorConfig, ScalingReport, AgreementReport,
    ]
    assert all(issubclass(r, tuple) for r in records)
    # a graph hashes by (n, m) alone, so instances over it stay hashable
    left, right = hitpaths.Graph.build(3, [(1, 2)]), hitpaths.Graph.build(3, [(2, 3)])
    assert left != right and hash(left) == hash(right)
    inst = hitpaths.make_instance(left, [(2, 1)], 1)
    twin = hitpaths.make_instance(hitpaths.Graph.build(3, [(2, 1)]), [(2, 1)], 1)
    assert inst == twin and hash(inst) == hash(twin) and len({inst, twin}) == 1
    assert inst == (left, ((2, 1),), 1, hitpaths.KIND_PATHS)  # equal to a plain tuple
    # the one mutable record keeps its counters' order and defaults, read with vars()
    stats = hitpaths.SolveStats()
    assert list(vars(stats).items()) == [
        ("k", 0), ("high_degree", 0), ("components", 0), ("branches_enumerated", 0),
        ("branches_after_filter", 0), ("flower_calls", 0), ("solution_cost", None),
    ]
    assert stats == hitpaths.SolveStats() and repr(stats).startswith("SolveStats(k=0, ")
    stats.flower_calls += 1
    assert stats != hitpaths.SolveStats()
