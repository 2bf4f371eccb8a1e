import ast
import re
from pathlib import Path

import hitpaths

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
