"""Golden outputs: the solvers and the CLI reproduce recorded results bit for bit.

``tests/golden/outputs.json`` stores, for a fixed set of inputs, every float
of the results as ``float.hex()`` together with the evaluation counts and
flags: ``minimize`` (including optima on a line through two points and
through one point, a scan whose lanes overflow and a far-translated input), the closed forms, and the
objective's building blocks ``best_offset_for_direction``,
``objective_gradient`` and ``lp_objective``.  It also stores the sha256 of
the stdout of ``lpline verify --quick``, of the full ``lpline verify`` and
of ``lpline solve`` on the triangle at six exponents, of a 2000-step
``lpline sweep`` file and of the ``lpline render`` SVG in each regime.  A
change that is meant to keep outputs must pass these tests unchanged.  A
change that alters outputs on purpose lists the entries that would change,
each with its ``min_value`` change in ulps (``min_value +1 ulp``, or
``min_value =``), the largest relative change among its floats, its changed
integer and flag fields (such as ``evaluations 44894 -> 4988``) and its
old -> new line count (or ``hash`` for a sha256 entry), with

    PYTHONPATH=src python tests/test_golden.py --diff

and then rewrites the file by running the same command without ``--diff``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from lpline import (
    Point2,
    UnitLine,
    best_offset_for_direction,
    default_eps_zero,
    distance_vector,
    first_order_residual,
    lp_objective,
    minimize,
    objective_gradient,
    sign_partition,
    solve_p1,
    solve_p2,
    solve_pinf,
)
from lpline import numeric
from lpline.cli import main
from lpline.triangle import canonical_triangle, triangle_optimal_set

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
# a far-translated copy, and a polygon whose orbit has 15 lines
MINIMIZE_SHAPES = {
    **SHAPES,
    "15-gon": lambda: regular_polygon(15),
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
    # the optimum is the line through two of the points
    "triangle-p1.01": ("triangle", 1.01),
    # the optimum passes through one of the points
    "cloud-ndarray-p1.05": ("cloud-ndarray", 1.05),
    # scan lanes overflow to inf
    "triangle-x5-p672.69": ("triangle-x5", 672.69),
    "triangle-shift1e6-p1.5": ("triangle-shift1e6", 1.5),
    # a discrete orbit of 15 optimal lines, not a family
    "15-gon-p1.5": ("15-gon", 1.5),
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
    "distance_vector": lambda: distance_vector(_cloud(), CLOUD_LINE).tolist(),
    "sign_partition": lambda: sign_partition(_cloud(), CLOUD_LINE),
    "default_eps_zero": lambda: default_eps_zero(_cloud()),
    "first_order_residual-p1.2": lambda: first_order_residual(_cloud(), CLOUD_LINE, 1.2),
    "first_order_residual-p2.5": lambda: first_order_residual(_cloud(), CLOUD_LINE, 2.5),
}

# the analytic triangle where it hands over to the closed forms
TRIANGLE_CASES = {"p1": 1.0, "pinf": "inf"}

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


def triangle_entry(case: str):
    return _encode(triangle_optimal_set(TRIANGLE_CASES[case]))


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
        "triangle_optimal_set": {case: triangle_entry(case) for case in TRIANGLE_CASES},
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


def _minimize_call(case: str):
    shape, p = MINIMIZE_CASES[case]
    return lambda: minimize(MINIMIZE_SHAPES[shape](), p)


# every golden minimize case, and the offset solve where its sums overflow
# and where its root sits on a data point (an infinite curvature term)
NO_WARNING_CASES = {
    **{case: _minimize_call(case) for case in MINIMIZE_CASES},
    "best_offset-x1e3-p100": lambda: best_offset_for_direction(1e3 * _cloud(), CLOUD_THETA, 100),
    "best_offset-on-point-p1.5": lambda: best_offset_for_direction(
        [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0)], math.pi / 2, 1.5),
}


@pytest.mark.parametrize("case", list(NO_WARNING_CASES))
def test_minimize_raises_no_warning(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        NO_WARNING_CASES[case]()


def test_minimize_runs_no_golden_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimize called golden_section")

    monkeypatch.setattr(numeric, "golden_section", refuse)
    for case in MINIMIZE_CASES:
        _minimize_call(case)()


def test_minimize_batches_its_final_offsets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimize called best_offset_for_direction")

    monkeypatch.setattr(numeric, "best_offset_for_direction", refuse)
    for case in MINIMIZE_CASES:
        _minimize_call(case)()


@pytest.mark.parametrize("case", EXACT_CASES)
def test_exact(golden, case):
    assert exact_entry(case) == golden["exact"][case]


@pytest.mark.parametrize("case", list(OBJECTIVE_CASES))
def test_objective(golden, case):
    assert objective_entry(case) == golden["objective"][case]


@pytest.mark.parametrize("case", list(TRIANGLE_CASES))
def test_triangle_optimal_set(golden, case):
    assert triangle_entry(case) == golden["triangle_optimal_set"][case]


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


def changed_entries(old: dict, new: dict) -> list[str]:
    """``section/entry`` for every entry that differs between two records."""
    return [f"{section}/{key}"
            for section in sorted(old.keys() | new.keys())
            for key in sorted(old.get(section, {}).keys() | new.get(section, {}).keys())
            if old.get(section, {}).get(key) != new.get(section, {}).get(key)]


def _relative_changes(old, new, field: str = "") -> list[tuple[float, str]]:
    """(relative change, top-level field) of every float that sits at the
    same place in two encoded entries; lists of different lengths are not
    paired."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [x for key in sorted(old.keys() & new.keys())
                for x in _relative_changes(old[key], new[key], field or key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [x for a, b in zip(old, new) for x in _relative_changes(a, b, field)]
    if isinstance(old, str) and isinstance(new, str) and old != new:
        try:
            a, b = float.fromhex(old), float.fromhex(new)
        except ValueError:
            return []
        return [(abs(b - a) / abs(a) if a != 0.0 else math.inf, field)]
    return []


def _changed_counts(old, new) -> list[str]:
    """``field old -> new`` for every integer or flag field of two encoded
    entries that differs."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return []
    return [f"{key} {old[key]} -> {new[key]}" for key in sorted(old.keys() & new.keys())
            if isinstance(old[key], int) and isinstance(new[key], int) and old[key] != new[key]]


def _ulps(a: float, b: float) -> int:
    """``b - a`` in units in the last place: the distance between the two
    floats in the order of their bit patterns (-0.0 and 0.0 coincide)."""
    def rank(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & (2 ** 63 - 1))

    return rank(b) - rank(a)


def describe_change(entry: str, old, new) -> str:
    """One line for a changed entry: its ``min_value`` change in ulps (the
    field the output rules key on; relative changes of near-zero fields such
    as a residual say little), the largest relative change among its floats,
    its changed integer and flag fields and its old -> new line count, or
    ``hash`` for a sha256 entry."""
    if "sha256" in entry:
        return f"{entry}  hash"
    parts = [entry]
    if isinstance(old, dict) and isinstance(new, dict) and "min_value" in old.keys() & new.keys():
        k = _ulps(float.fromhex(old["min_value"]), float.fromhex(new["min_value"]))
        parts.append(f"min_value {k:+d} ulp" if k else "min_value =")
    largest = max(_relative_changes(old, new), default=None)
    counts = _changed_counts(old, new)
    if largest is not None:
        change, field = largest
        parts.append(f"max rel {change:.2g}" + (f" ({field})" if field else ""))
    elif not counts:
        parts.append("no paired float")
    parts.extend(counts)
    if isinstance(old, dict) and isinstance(new, dict) and "lines" in old.keys() & new.keys():
        parts.append(f"lines {len(old['lines'])} -> {len(new['lines'])}")
    return "  ".join(parts)


def _entry(min_value: float, residual: float, lines: int) -> dict:
    return {"min_value": float.hex(min_value), "stationarity_residual": float.hex(residual),
            "lines": [{"c": float.hex(0.0), "theta": float.hex(1.0)}] * lines,
            "evaluations": 100, "degenerate": False}


def test_describe_change_counts_min_value_ulps():
    value = 1.5
    up = math.nextafter(value, math.inf)
    assert describe_change("minimize/a", _entry(value, 1e-16, 1), _entry(up, 2e-16, 1)) == (
        "minimize/a  min_value +1 ulp  max rel 1 (stationarity_residual)  lines 1 -> 1")
    assert describe_change("minimize/b", _entry(up, 1e-16, 2), _entry(value, 1e-16, 3)) == (
        "minimize/b  min_value -1 ulp  max rel 1.5e-16 (min_value)  lines 2 -> 3")
    assert describe_change("minimize/c", _entry(value, 1e-16, 1), _entry(value, 3e-16, 1)) == (
        "minimize/c  min_value =  max rel 2 (stationarity_residual)  lines 1 -> 1")
    assert describe_change("cli/verify_stdout_sha256", "ab", "cd") == (
        "cli/verify_stdout_sha256  hash")
    # across a binade, zero and its sign
    assert _ulps(math.nextafter(2.0, 0.0), 2.0) == 1
    assert _ulps(-0.0, 0.0) == 0
    assert _ulps(-5e-324, 5e-324) == 2


if __name__ == "__main__":
    if "--diff" in sys.argv[1:]:
        old, new = json.loads(GOLDEN.read_text()), record()
        for entry in changed_entries(old, new):
            section, key = entry.split("/", 1)
            print(describe_change(entry, old.get(section, {}).get(key),
                                  new.get(section, {}).get(key)))
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
