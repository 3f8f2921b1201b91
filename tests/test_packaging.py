"""Every third-party package the library imports is declared in ``pyproject.toml``."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in project["dependencies"]}
    imported = set().union(*map(_top_level_imports, (ROOT / "src" / "consensuslab").rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"consensuslab"}
    assert {"numpy", "scipy", "jsonschema", "orjson"} <= third_party  # the walk finds the imports
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"
