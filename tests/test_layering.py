"""Imports inside the package point one way, from a module to lower layers
only, and the objective's power sums are reduced in one place."""

import ast
from pathlib import Path

import lpline

LAYERS = ["_parallel", "geometry", "exact", "numeric", "triangle",
          "verification", "svgfig", "fileio", "cli"]
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
            if name not in LAYERS or LAYERS.index(target) >= LAYERS.index(name):
                upward.append(f"{name} -> {target}")
    assert not upward


def _functions_with_variable_powers(path: Path) -> set[str]:
    """Top-level functions (or ``<module>``) holding a ``**`` whose exponent
    is not a literal number."""
    def is_literal(node) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant)

    found = set()
    tree = ast.parse(path.read_text())
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                exponent = node.right if isinstance(node, ast.BinOp) else node.value
                if not is_literal(exponent):
                    found.add(owner)
    return found


def test_power_sums_live_in_geometry():
    assert _functions_with_variable_powers(PACKAGE / "numeric.py") == set()
    assert _functions_with_variable_powers(PACKAGE / "geometry.py") <= {
        "_power_sum", "_slope_sum", "lp_distance", "first_order_residual"}


def test_no_environment_reads_or_thread_pools():
    banned = ("os.environ", "getenv", "ThreadPoolExecutor")
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        hits += [f"{path.name}: {word}" for word in banned if word in text]
    assert not hits
