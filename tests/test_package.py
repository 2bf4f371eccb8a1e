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
