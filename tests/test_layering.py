"""Imports inside the package point one way: from a module to lower layers only."""

import ast
from pathlib import Path

import lpline

LAYERS = ["_parallel", "geometry", "exact", "numeric", "triangle",
          "verification", "svgfig", "fileio", "cli"]
# ReducedCurve.sample_lines resolves its curve lazily, inside the function
ALLOWED_UPWARD = {("exact", "triangle")}
PACKAGE = Path(lpline.__file__).parent


def _relative_imports(path: Path) -> list[str]:
    targets = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                targets.extend(alias.name for alias in node.names)
            else:
                targets.append(node.module.split(".")[0])
    return targets


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_point_down():
    upward = []
    for path in PACKAGE.glob("*.py"):
        name = path.stem
        if name == "__init__":
            continue
        for target in _relative_imports(path):
            if (name, target) in ALLOWED_UPWARD:
                continue
            if name not in LAYERS or LAYERS.index(target) >= LAYERS.index(name):
                upward.append(f"{name} -> {target}")
    assert not upward


def test_upward_exception_is_function_local():
    tree = ast.parse((PACKAGE / "exact.py").read_text())
    top_level = [node.module for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert "triangle" not in top_level
