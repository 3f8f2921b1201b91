"""Every third-party package the library or its tests import is declared in ``pyproject.toml``."""

import ast
import re
import subprocess
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


def _declared(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in requirements}


def _third_party(directory: Path) -> set:
    files = list(directory.rglob("*.py"))
    local = {p.stem for p in files} | {"consensuslab"}
    return set().union(*map(_top_level_imports, files)) - set(sys.stdlib_module_names) - local


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _declared(project["dependencies"])
    third_party = _third_party(ROOT / "src" / "consensuslab")
    assert third_party == {"numpy", "orjson"}  # the walk finds the imports, and the schemas need no library
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"


def test_test_imports_are_declared_for_the_tests():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _declared(project["dependencies"]) | _declared(project["optional-dependencies"]["test"])
    third_party = _third_party(ROOT / "tests")
    assert {"numpy", "pytest", "scipy", "jsonschema"} <= third_party  # the walk finds the imports
    assert third_party <= declared, f"imported by tests but not declared: {sorted(third_party - declared)}"


def test_importing_the_package_loads_no_third_party_module_but_numpy_and_orjson():
    # the top-level modules from site-packages that the import adds to those of a bare interpreter, which
    # may hold some already (``.pth`` files load ``certifi`` and ``_distutils_hack`` in some environments)
    src = str(ROOT / "src")
    script = (
        "import site, sys\n"
        "bare = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "import consensuslab, consensuslab.cli\n"
        "roots = tuple(site.getsitepackages()) + (site.getusersitepackages(),)\n"
        "print(sorted({name.partition('.')[0] for name in set(sys.modules) - bare\n"
        "              if (getattr(sys.modules[name], '__file__', None) or '').startswith(roots)}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['numpy', 'orjson']"
