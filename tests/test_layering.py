"""Imports inside the package point one way, from a module to lower layers
only; the objective's power sums are reduced, points projected onto a
normal and coordinates checked for finiteness each in one place."""

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


def _owners(path: Path, match) -> set[str]:
    """Top-level functions (or ``<module>``) of ``path`` holding a node that
    ``match`` accepts."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if any(match(node) for node in ast.walk(top)):
            found.add(owner)
    return found


def _is_variable_power(node) -> bool:
    """A ``**`` whose exponent is not a literal number."""
    if not (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)):
        return False
    exponent = node.right if isinstance(node, ast.BinOp) else node.value
    if isinstance(exponent, ast.UnaryOp):
        exponent = exponent.operand
    return not isinstance(exponent, ast.Constant)


def _is_first_column(node) -> bool:
    """``x[:, 0]``."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    elts = node.slice.elts
    return (len(elts) == 2 and isinstance(elts[0], ast.Slice)
            and isinstance(elts[1], ast.Constant) and elts[1].value == 0)


def _is_projection(node) -> bool:
    """A product with ``x[:, 0]`` as a factor."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_is_first_column(node.left) or _is_first_column(node.right)))


def _is_np_isfinite(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "isfinite"
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def test_power_sums_live_in_geometry():
    assert _owners(PACKAGE / "numeric.py", _is_variable_power) == set()
    assert _owners(PACKAGE / "geometry.py", _is_variable_power) <= {
        "_power_sum", "_slope_sum", "_power_terms"}


def test_points_are_projected_in_one_place():
    projections = {path.stem: _owners(path, _is_projection) for path in PACKAGE.glob("*.py")}
    assert {name: owners for name, owners in projections.items() if owners} == {
        "geometry": {"_offsets"}}


def test_points_are_validated_in_one_place():
    assert _owners(PACKAGE / "geometry.py", _is_np_isfinite) == {"_as_xy"}
    assert _owners(PACKAGE / "exact.py", _is_np_isfinite) == set()
    assert _owners(PACKAGE / "numeric.py", _is_np_isfinite) == set()


def test_no_environment_reads_or_thread_pools():
    banned = ("os.environ", "getenv", "ThreadPoolExecutor")
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        hits += [f"{path.name}: {word}" for word in banned if word in text]
    assert not hits
