"""The public surface keeps only the options that a caller sets."""

import inspect

import pytest

import lpline
from lpline.cli import main
from lpline.geometry import UnitLine, first_order_residual
from lpline.triangle import ReducedPoint, locate_transitions, symmetry_orbit
from lpline.verification import run_verification_suite, triangle_cross_checks


@pytest.mark.parametrize("fn,params", [
    (locate_transitions, ["p_min", "p_max"]),
    (symmetry_orbit, ["g"]),
    (ReducedPoint.in_domain, ["self"]),
    (run_verification_suite, ["b_grid", "t_grid"]),
    (triangle_cross_checks, ["quick"]),
    (first_order_residual, ["points", "g", "p"]),
])
def test_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_retired_names_are_gone():
    assert not hasattr(lpline, "RemainderSeries")
    assert "RemainderSeries" not in lpline.__all__
    assert not hasattr(UnitLine, "foot")


@pytest.mark.parametrize("flag", ["--exact", "--numeric"])
def test_solve_has_no_solver_flag(tmp_path, capsys, flag):
    path = tmp_path / "triangle.csv"
    path.write_text("-0.5,0.0\n0.5,0.0\n0.0,0.8660254037844386\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--points", str(path), "--p", "2", flag])
    assert exc.value.code == 2
