"""Every name a module imports is used in it (standard-library stand-in for a linter)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "ivbounds").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_import_detector():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n") == [
        "line 1: os", "line 3: e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
