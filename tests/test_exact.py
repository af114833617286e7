import math

import pytest

from lpline import (
    DegenerateInputError,
    PencilThroughPoint,
    Point2,
    line_through,
    lp_objective,
    point_line_distance,
    solve_p1,
    solve_p2,
    solve_pinf,
)
from lpline.triangle import canonical_triangle

from conftest import (
    assert_same_line_sets,
    attained_value,
    contains_count,
    family_lines,
    random_points,
    random_isometry,
    refined_oracle,
    transform_line,
)

SQRT3 = math.sqrt(3.0)
TRI = canonical_triangle()
RIGHT = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)]


class TestSolveP1:
    def test_triangle_side_lines(self):
        opt = solve_p1(TRI)
        assert opt.min_value == pytest.approx(SQRT3 / 2, abs=1e-12)
        expected = [line_through(TRI[i], TRI[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert_same_line_sets(opt.lines, expected)
        assert not opt.families

    def test_right_triangle_hypotenuse(self):
        # pair-line values: 1 (legs) vs sqrt(2)/2 (hypotenuse)
        opt = solve_p1(RIGHT)
        assert opt.min_value == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert_same_line_sets(opt.lines, [line_through(RIGHT[1], RIGHT[2])])

    def test_two_points(self):
        opt = solve_p1([Point2(0.0, 0.0), Point2(2.0, 1.0)])
        assert opt.min_value == pytest.approx(0.0, abs=1e-15)
        assert len(opt.lines) == 1

    def test_every_line_contains_two_points(self, rng):
        for _ in range(60):
            pts = random_points(rng)
            for g in solve_p1(pts).lines:
                assert contains_count(pts, g) >= 2

    def test_no_false_strip_on_two_line_configs(self):
        # for geometric distances a slightly tilted pair-line always beats a
        # parallel strip (every straddling pair shrinks by cos of the tilt),
        # so near-tie two-line configurations must not report strip families
        square = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0)]
        opt = solve_p1(square)
        assert opt.min_value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert len(opt.lines) == 2  # the two diagonals
        assert opt.families == ()

        stacked = [Point2(x, y) for x in (0.0, 50.0, 100.0) for y in (0.0, 1.0)]
        opt = solve_p1(stacked)
        assert opt.min_value < 3.0 - 1e-6
        assert opt.families == ()

    def test_collinear_points_collapse_to_one_line(self):
        pts = [Point2(t, 2.0 * t - 0.5) for t in (-1.0, 0.0, 1.0, 2.5)]
        opt = solve_p1(pts)
        assert opt.min_value == pytest.approx(0.0, abs=1e-12)
        assert len(opt.lines) == 1  # all six pair lines coincide

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            solve_p1([Point2(1.0, 1.0), Point2(1.0, 1.0)])
        with pytest.raises(DegenerateInputError):
            solve_p1([Point2(1.0, 1.0)])


class TestSolveP2:
    def test_triangle_is_isotropic(self):
        opt = solve_p2(TRI)
        assert opt.degenerate
        assert opt.min_value == pytest.approx(0.5, abs=1e-12)
        assert len(opt.families) == 1
        pencil = opt.families[0]
        assert isinstance(pencil, PencilThroughPoint)
        assert pencil.center.x == pytest.approx(0.0, abs=1e-12)
        assert pencil.center.y == pytest.approx(SQRT3 / 6, abs=1e-12)
        for g in family_lines(pencil, 32):
            assert lp_objective(TRI, g, 2.0) == pytest.approx(0.5, rel=1e-9)

    def test_three_point_example(self):
        # scatter matrix [[2, 1], [1, 2/3]]; smallest eigenvalue (8 - sqrt(52)) / 6
        pts = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 1.0)]
        opt = solve_p2(pts)
        assert not opt.degenerate
        assert opt.min_value == pytest.approx((8.0 - math.sqrt(52.0)) / 6.0, abs=1e-12)
        assert len(opt.lines) == 1
        assert lp_objective(pts, opt.lines[0], 2.0) == pytest.approx(opt.min_value, rel=1e-12)

    def test_collinear_points(self):
        pts = [Point2(t, 0.5 * t - 1.0) for t in (-1.0, 0.5, 2.0, 3.0)]
        opt = solve_p2(pts)
        assert opt.min_value == pytest.approx(0.0, abs=1e-12)
        assert point_line_distance(pts[0], opt.lines[0]) == pytest.approx(0.0, abs=1e-9)


class TestSolvePinf:
    def test_triangle_equioscillation(self):
        opt = solve_pinf(TRI)
        assert opt.min_value == pytest.approx(SQRT3 / 4, abs=1e-12)
        assert len(opt.lines) == 3
        for g in opt.lines:
            d = [point_line_distance(q, g) for q in TRI]
            assert max(d) - min(d) < 1e-10

    def test_right_triangle(self):
        opt = solve_pinf(RIGHT)
        assert opt.min_value == pytest.approx(math.sqrt(2) / 4, abs=1e-12)

    def test_two_points(self):
        opt = solve_pinf([Point2(0.0, 0.0), Point2(1.0, 3.0)])
        assert opt.min_value == pytest.approx(0.0, abs=1e-15)

    def test_collinear_points_zero_width(self):
        pts = [Point2(t, -0.3 * t + 1.0) for t in (0.0, 1.0, 4.0)]
        opt = solve_pinf(pts)
        assert opt.min_value == pytest.approx(0.0, abs=1e-12)

    def test_equioscillation_on_random_triangles(self, rng):
        for _ in range(40):
            pts = random_points(rng, count=3)
            opt = solve_pinf(pts)
            g = opt.lines[0]
            d = sorted(point_line_distance(q, g) for q in pts)
            assert d[-1] == pytest.approx(opt.min_value, rel=1e-9)
            # all three points support the optimal strip
            assert d[0] == pytest.approx(d[-1], rel=1e-9)


@pytest.mark.parametrize("solver,p", [(solve_p1, 1.0), (solve_p2, 2.0), (solve_pinf, math.inf)])
class TestSolverInvariants:
    def test_oracle_equivalence(self, solver, p, rng):
        for _ in range(50):
            pts = random_points(rng)
            got = solver(pts).min_value
            _, oracle = refined_oracle(pts, p)
            assert got <= oracle + 1e-9
            assert got >= oracle - 1e-4

    def test_equivariance(self, solver, p, rng):
        for _ in range(25):
            pts = random_points(rng)
            iso = random_isometry(rng)
            base = solver(pts)
            moved = solver([iso(q) for q in pts])
            assert moved.min_value == pytest.approx(base.min_value, rel=1e-9, abs=1e-12)
            if base.lines:
                mapped = [transform_line(g, iso) for g in base.lines]
                assert_same_line_sets(moved.lines, mapped, tol=1e-7)

    def test_every_listed_line_attains_min(self, solver, p, rng):
        for _ in range(20):
            pts = random_points(rng)
            opt = solver(pts)
            assert opt.lines, "expected explicit minimizers on generic data"
            worst = attained_value(pts, opt, p)
            assert worst <= opt.min_value * (1.0 + 1e-9) + 1e-12
