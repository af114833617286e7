"""Golden outputs: the solvers and the CLI reproduce recorded results bit for bit.

``tests/golden/outputs.json`` stores, for a fixed set of inputs, every float
of the results as ``float.hex()`` together with the evaluation counts and
flags: ``minimize`` (including its pair and through-point snaps, a scan
whose lanes overflow and a far-translated input), the closed forms, and the
objective's building blocks ``best_offset_for_direction``,
``objective_gradient`` and ``lp_objective``.  It also stores the sha256 of
the stdout of ``lpline verify --quick``, of the full ``lpline verify`` and
of ``lpline solve`` on the triangle at six exponents, of a 2000-step
``lpline sweep`` file and of the ``lpline render`` SVG in each regime.  A
change that is meant to keep outputs must pass these tests unchanged.  A
change that alters outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the entries that changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lpline import (
    Point2,
    UnitLine,
    best_offset_for_direction,
    lp_objective,
    minimize,
    objective_gradient,
    solve_p1,
    solve_p2,
    solve_pinf,
)
from lpline.cli import main
from lpline.triangle import canonical_triangle

from conftest import band_with_outlier, regular_polygon

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"


def _cloud() -> np.ndarray:
    return np.random.default_rng(50).standard_normal((50, 2))


SHAPES = {
    "triangle": lambda: list(canonical_triangle()),
    "9-gon": lambda: regular_polygon(9),
    "cloud-list": lambda: [Point2(float(x), float(y)) for x, y in _cloud()],
    "cloud-ndarray": _cloud,
    "band-outlier": band_with_outlier,
}

# minimize-only shapes: a scaled copy whose scan lanes overflow at large p,
# and a far-translated copy
MINIMIZE_SHAPES = {
    **SHAPES,
    "triangle-x5": lambda: 5.0 * np.array([tuple(q) for q in canonical_triangle()]),
    "triangle-shift1e6": lambda: np.array([tuple(q) for q in canonical_triangle()]) + 1e6,
}

MINIMIZE_CASES = {
    "triangle-p1.1": ("triangle", 1.1),
    "triangle-p4/3": ("triangle", "4/3"),
    "triangle-p1.5": ("triangle", 1.5),
    "triangle-p3": ("triangle", 3.0),
    "triangle-p60": ("triangle", 60.0),
    "9-gon-p3": ("9-gon", 3.0),
    "cloud-list-p1.2": ("cloud-list", 1.2),
    "cloud-ndarray-p1.2": ("cloud-ndarray", 1.2),
    "band-outlier-p1.2": ("band-outlier", 1.2),
    # the pair snap wins
    "triangle-p1.01": ("triangle", 1.01),
    # the through-point snap
    "cloud-ndarray-p1.05": ("cloud-ndarray", 1.05),
    # scan lanes overflow to inf
    "triangle-x5-p672.69": ("triangle-x5", 672.69),
    "triangle-shift1e6-p1.5": ("triangle-shift1e6", 1.5),
}

# the objective's building blocks on the cloud, at a fixed direction / line
CLOUD_THETA = 0.7
CLOUD_LINE = UnitLine(0.7, 0.1)
OBJECTIVE_CASES = {
    "best_offset-p1": lambda: best_offset_for_direction(_cloud(), CLOUD_THETA, 1.0),
    "best_offset-p2.5": lambda: best_offset_for_direction(_cloud(), CLOUD_THETA, 2.5),
    "objective_gradient-p1.2": lambda: objective_gradient(_cloud(), CLOUD_LINE, 1.2),
    "objective_gradient-p2.5": lambda: objective_gradient(_cloud(), CLOUD_LINE, 2.5),
    "lp_objective-p1.2": lambda: lp_objective(_cloud(), CLOUD_LINE, 1.2),
    "lp_objective-p2.5": lambda: lp_objective(_cloud(), CLOUD_LINE, 2.5),
}

EXACT_SOLVERS = {"solve_p1": solve_p1, "solve_p2": solve_p2, "solve_pinf": solve_pinf}
EXACT_CASES = [f"{solver}-{shape}" for solver in EXACT_SOLVERS for shape in SHAPES]

SWEEP_ARGS = ["--p-min", "1.01", "--p-max", "3", "--steps", "2000", "--include-inf"]

SOLVE_PS = ["1", "4/3", "1.5", "2", "3", "inf"]

# one exponent per regime, with a family member at p = 4/3 and p = 2
RENDER_CASES = {
    "p1.2": ["--p", "1.2"],
    "p4/3-y0.1": ["--p", "4/3", "--y", "0.1"],
    "p1.6": ["--p", "1.6"],
    "p2-y0.2": ["--p", "2", "--y", "0.2"],
    "p5": ["--p", "5"],
}


def _encode(obj):
    """A JSON form of a result in which every float is exact (``float.hex``)."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [_encode(item) for item in obj]
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__,
                **{f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    raise TypeError(f"cannot encode {obj!r}")


def minimize_entry(case: str) -> dict:
    shape, p = MINIMIZE_CASES[case]
    report = minimize(MINIMIZE_SHAPES[shape](), p)
    return {
        "min_value": _encode(report.optimal.min_value),
        "lines": _encode(report.optimal.lines),
        "families": _encode(report.optimal.families),
        "stationarity_residual": _encode(report.stationarity_residual),
        "evaluations": report.evaluations,
        "degenerate": report.optimal.degenerate,
    }


def exact_entry(case: str) -> dict:
    solver, shape = case.split("-", 1)
    return _encode(EXACT_SOLVERS[solver](SHAPES[shape]()))


def objective_entry(case: str):
    return _encode(OBJECTIVE_CASES[case]())


def stdout_sha256(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def verify_quick_sha256() -> str:
    return stdout_sha256(["verify", "--quick"])


def solve_sha256(p: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "triangle.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in canonical_triangle()))
        return stdout_sha256(["solve", "--points", str(path), "--p", p])


def render_sha256(case: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "figure.svg"
        assert main(["render", *RENDER_CASES[case], "--out", str(path)]) == 0
        return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_sha256() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        assert main(["sweep", *SWEEP_ARGS, "--out", str(path)]) == 0
        return hashlib.sha256(path.read_bytes()).hexdigest()


def record() -> dict:
    return {
        "minimize": {case: minimize_entry(case) for case in MINIMIZE_CASES},
        "exact": {case: exact_entry(case) for case in EXACT_CASES},
        "objective": {case: objective_entry(case) for case in OBJECTIVE_CASES},
        "cli": {"verify_quick_stdout_sha256": verify_quick_sha256(),
                "verify_stdout_sha256": stdout_sha256(["verify"]),
                "sweep_csv_sha256": sweep_sha256()},
        "solve_stdout_sha256": {p: solve_sha256(p) for p in SOLVE_PS},
        "render_svg_sha256": {case: render_sha256(case) for case in RENDER_CASES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(MINIMIZE_CASES))
def test_minimize(golden, case):
    assert minimize_entry(case) == golden["minimize"][case]


@pytest.mark.parametrize("case", EXACT_CASES)
def test_exact(golden, case):
    assert exact_entry(case) == golden["exact"][case]


@pytest.mark.parametrize("case", list(OBJECTIVE_CASES))
def test_objective(golden, case):
    assert objective_entry(case) == golden["objective"][case]


def test_verify_quick_stdout(golden):
    assert verify_quick_sha256() == golden["cli"]["verify_quick_stdout_sha256"]


def test_verify_stdout(golden):
    assert stdout_sha256(["verify"]) == golden["cli"]["verify_stdout_sha256"]


def test_sweep_file(golden):
    assert sweep_sha256() == golden["cli"]["sweep_csv_sha256"]


@pytest.mark.parametrize("p", SOLVE_PS)
def test_solve_stdout(golden, p):
    assert solve_sha256(p) == golden["solve_stdout_sha256"][p]


@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_render_svg(golden, case):
    assert render_sha256(case) == golden["render_svg_sha256"][case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
