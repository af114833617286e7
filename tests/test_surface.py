"""The public surface keeps only the options that a caller sets, and every
public function that takes points rejects non-finite coordinates."""

import inspect
import math

import numpy as np
import pytest

import lpline
from lpline import exact, fileio, geometry, numeric, verification
from lpline.cli import main
from lpline.geometry import UnitLine, first_order_residual, lines_close, sign_partition
from lpline.triangle import ReducedPoint, bisect_sign, locate_transitions, symmetry_orbit
from lpline.verification import run_verification_suite, triangle_cross_checks


@pytest.mark.parametrize("fn,params", [
    (locate_transitions, ["p_min", "p_max"]),
    (symmetry_orbit, ["g"]),
    (ReducedPoint.in_domain, ["self"]),
    (run_verification_suite, ["b_grid", "t_grid"]),
    (triangle_cross_checks, ["quick"]),
    (first_order_residual, ["points", "g", "p"]),
    (sign_partition, ["points", "g"]),
    (bisect_sign, ["f", "lo", "hi", "iters", "width"]),
    (lines_close, ["g1", "g2", "atol"]),
    (lpline.solve_p1, ["points"]),
    (lpline.solve_p2, ["points"]),
    (lpline.solve_pinf, ["points"]),
    (lpline.minimize, ["points", "p"]),
    (lpline.solve, ["points", "p"]),
    (lpline.stationarity_gap, ["t", "b"]),
    (lpline.stationarity_gap_over_t, ["t", "b"]),
])
def test_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_retired_names_are_gone():
    assert not hasattr(lpline, "RemainderSeries")
    assert "RemainderSeries" not in lpline.__all__
    assert not hasattr(UnitLine, "foot")
    for family in (lpline.PencilThroughPoint, lpline.ParallelStrip, lpline.ReducedCurve):
        assert not hasattr(family, "sample_lines")
    # minimize bisects nothing; the one bisection left serves locate_transitions
    assert not hasattr(numeric, "bisect_sign")
    assert "bisect_sign" not in numeric.__all__
    # a flat scan is one family, not a cap of well-separated sample starts
    assert not hasattr(numeric, "_MULTISTART_KEEP")
    assert not hasattr(numeric, "MIN_THETA_SEPARATION")
    # every solver ties and tests isotropy at the input's resolution, in exact alone
    assert not hasattr(exact, "_TIE_RTOL")
    assert not hasattr(exact, "TOL_ISO")
    assert numeric._tie_bound is exact._tie_bound
    assert list(inspect.signature(exact._ties).parameters) == ["arr", "candidates", "pv", "delta"]


def test_public_names():
    assert sorted(lpline.__all__) == sorted([
        "PNorm", "Point2", "SignPartition", "UnitLine",
        "canonicalize", "default_eps_zero", "distance_vector",
        "first_order_residual", "line_through", "lines_close",
        "lp_objective", "sign_partition",
        "DegenerateInputError", "EveryDirection", "FamilyDescriptor", "OptimalSet",
        "ParallelStrip", "PencilThroughPoint", "ReducedCurve",
        "solve_p1", "solve_p2", "solve_pinf",
        "SolveReport", "best_offset_for_direction",
        "minimize", "objective_gradient", "solve",
        "ReducedPoint", "TrianglePhase",
        "canonical_triangle", "centroid", "classify_phase", "critical_x_of_y",
        "family_indicator", "family_member", "reduced_gradient", "reduced_objective",
        "reduced_to_line", "regime_indicator",
        "side_parallel_offset", "side_parallel_value", "stationarity_gap",
        "symmetry_orbit", "triangle_min_value", "triangle_optimal_set",
        "SuiteReport",
        "run_verification_suite", "stationarity_gap_over_t",
        "__version__",
    ])
    assert all(hasattr(lpline, name) for name in lpline.__all__)


@pytest.mark.parametrize("module,name", [
    (geometry, "lp_distance"),
    (geometry, "point_line_distance"),
    (fileio, "read_sweep_csv"),
    (fileio, "_PHASE_TEXT"),
    (verification, "remainder_partial_sum"),
])
def test_test_only_helpers_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(lpline, name)
    assert name not in getattr(module, "__all__")
    assert name not in lpline.__all__


LINE = UnitLine(0.3, 0.1)
TAKES_POINTS = {
    "distance_vector": lambda pts: lpline.distance_vector(pts, LINE),
    "lp_objective": lambda pts: lpline.lp_objective(pts, LINE, 1.5),
    "sign_partition": lambda pts: lpline.sign_partition(pts, LINE),
    "default_eps_zero": lambda pts: lpline.default_eps_zero(pts),
    "first_order_residual": lambda pts: lpline.first_order_residual(pts, LINE, 1.5),
    "best_offset_for_direction": lambda pts: lpline.best_offset_for_direction(pts, 0.3, 1.5),
    "objective_gradient": lambda pts: lpline.objective_gradient(pts, LINE, 1.5),
    "solve_p1": lpline.solve_p1,
    "solve_p2": lpline.solve_p2,
    "solve_pinf": lpline.solve_pinf,
    "minimize": lambda pts: lpline.minimize(pts, 1.5),
}
NON_FINITE = {
    "ndarray-nan-row": np.array([[0.0, 0.0], [1.0, 0.0], [math.nan, math.nan], [0.0, 1.0]]),
    "tuples-inf": [(0.0, 0.0), (1.0, 0.0), (0.5, math.inf), (0.0, 1.0)],
}


@pytest.mark.parametrize("points", list(NON_FINITE))
@pytest.mark.parametrize("fn", list(TAKES_POINTS))
def test_non_finite_points_raise(fn, points):
    with pytest.raises(ValueError, match="^non-finite coordinate$"):
        TAKES_POINTS[fn](NON_FINITE[points])


@pytest.mark.parametrize("flag", ["--exact", "--numeric"])
def test_solve_has_no_solver_flag(tmp_path, capsys, flag):
    path = tmp_path / "triangle.csv"
    path.write_text("-0.5,0.0\n0.5,0.0\n0.0,0.8660254037844386\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--points", str(path), "--p", "2", flag])
    assert exc.value.code == 2
