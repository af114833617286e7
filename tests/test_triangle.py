import math
from fractions import Fraction

import numpy as np
import pytest

from lpline import (
    ReducedPoint,
    TrianglePhase,
    best_offset_for_direction,
    canonical_triangle,
    centroid,
    classify_phase,
    critical_x_of_y,
    family_member,
    lp_objective,
    minimize,
    reduced_gradient,
    reduced_objective,
    reduced_to_line,
    side_parallel_offset,
    side_parallel_value,
    stationarity_gap,
    symmetry_orbit,
    triangle_min_value,
    triangle_optimal_set,
)
from lpline.exact import EveryDirection, PencilThroughPoint, ReducedCurve
from lpline.numeric import golden_section

from conftest import family_lines, line_param_distance, point_line_distance

SQRT3 = math.sqrt(3.0)
TRI = canonical_triangle()


def boundary_profile(x: float, p: float) -> float:
    """Independent oracle: the objective of the horizontal line at height x."""
    return 2.0 * x ** p + (SQRT3 / 2.0 - x) ** p


class TestCanonicalTriangle:
    def test_side_lengths(self):
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert math.dist(tuple(TRI[i]), tuple(TRI[j])) == pytest.approx(1.0, abs=1e-15)

    def test_centroid_and_height(self):
        cx = sum(v.x for v in TRI) / 3
        cy = sum(v.y for v in TRI) / 3
        assert (cx, cy) == pytest.approx((centroid().x, centroid().y), abs=1e-15)
        assert max(v.y for v in TRI) == pytest.approx(SQRT3 / 2, abs=1e-15)


class TestReducedToLine:
    def test_horizontal_at_height_x(self):
        g = reduced_to_line(ReducedPoint(0.3, 0.0))
        assert g.theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert g.c == pytest.approx(0.3, abs=1e-15)

    def test_bisector_member_contains_first_vertex(self):
        g = reduced_to_line(ReducedPoint(SQRT3 / 6, SQRT3 / 6))
        assert point_line_distance(TRI[0], g) == pytest.approx(0.0, abs=1e-12)

    def test_vertex_distances_formula(self, rng):
        for _ in range(100):
            x = rng.uniform(0.0, SQRT3 / 4)
            y = rng.uniform(0.0, x) if x > 0 else 0.0
            g = reduced_to_line(ReducedPoint(x, y))
            w = 1.0 / math.sqrt(1.0 + 4.0 * y * y)
            expected = ((x - y) * w, (x + y) * w, (SQRT3 / 2 - x) * w)
            got = tuple(point_line_distance(v, g) for v in TRI)
            assert got == pytest.approx(expected, abs=1e-13)


class TestReducedObjective:
    def test_bisector_point_value(self):
        r = ReducedPoint(SQRT3 / 6, SQRT3 / 6)
        assert reduced_objective(r, 1.5) == pytest.approx(2.0 ** -0.5, abs=1e-14)

    def test_p2_family_constant(self):
        for y in np.linspace(0.0, SQRT3 / 6, 25):
            assert reduced_objective(ReducedPoint(SQRT3 / 6, float(y)), 2.0) == pytest.approx(
                0.5, abs=1e-14)

    def test_p3_side_parallel_optimum(self):
        x0 = side_parallel_offset(3.0)
        value = reduced_objective(ReducedPoint(x0, 0.0), 3.0)
        assert value == pytest.approx(side_parallel_value(3.0), rel=1e-14)
        # independent: golden-section on the boundary profile
        xg, vg = golden_section(lambda x: boundary_profile(x, 3.0), 0.0, SQRT3 / 4, tol=1e-14)
        assert value == pytest.approx(vg, abs=1e-12)
        assert x0 == pytest.approx(xg, abs=1e-6)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            reduced_objective(ReducedPoint(0.1, 0.2), 2.0)
        with pytest.raises(ValueError):
            reduced_objective(ReducedPoint(0.5, 0.1), 2.0)

    def test_consistency_with_direct_objective(self, rng):
        for _ in range(500):
            x = rng.uniform(1e-6, SQRT3 / 4)
            y = rng.uniform(0.0, x)
            p = rng.uniform(1.0 + 1e-6, 5.0)
            r = ReducedPoint(x, y)
            direct = lp_objective(TRI, reduced_to_line(r), p)
            assert reduced_objective(r, p) == pytest.approx(direct, rel=1e-12)


class TestReducedGradient:
    def test_fx_vanishes_on_critical_curve(self):
        # eq: (sqrt3/2 - x)^(p-1) = (x-y)^(p-1) + (x+y)^(p-1) defines f_x = 0;
        # along the family curve at p = 4/3 both partials vanish
        p = 4.0 / 3.0
        for y in (0.02, 0.1, SQRT3 / 6 - 0.02):
            r = family_member(p, y)
            fx, fy = reduced_gradient(r, p)
            assert fx == pytest.approx(0.0, abs=1e-12)
            assert fy == pytest.approx(0.0, abs=1e-12)

    def test_p2_family_is_critical(self):
        fx, fy = reduced_gradient(ReducedPoint(SQRT3 / 6, 1e-3), 2.0)
        assert math.hypot(fx, fy) <= 1e-9

    def test_stationarity_needs_both_equations(self):
        # gradient zero iff both critical-point equations hold; points lying
        # on only one of the two curves must not be stationary
        p = 1.5
        q = p - 1.0
        b = 1.0 / q
        for y in (0.05, 0.12):
            # second equation holds by construction of the curve
            x = critical_x_of_y(y, b)
            eq2 = ((x + y) ** q * (2 * SQRT3 * y - 1.0)
                   + (x - y) ** q * (2 * SQRT3 * y + 1.0))
            assert eq2 == pytest.approx(0.0, abs=1e-12)
            fx, fy = reduced_gradient(ReducedPoint(x, y), p)
            assert math.hypot(fx, fy) > 1e-3

            # first equation solved by bisection in x; the other must fail
            lo, hi = y + 1e-9, SQRT3 / 4 - 1e-9
            eq1 = lambda x_: (SQRT3 / 2 - x_) ** q - (x_ - y) ** q - (x_ + y) ** q
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if eq1(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            x1 = 0.5 * (lo + hi)
            fx, fy = reduced_gradient(ReducedPoint(x1, y), p)
            assert fx == pytest.approx(0.0, abs=1e-9)
            assert abs(fy) > 1e-3

    def test_matches_central_differences(self, rng):
        h = 1e-7
        for _ in range(60):
            x = rng.uniform(0.05, SQRT3 / 4 - 0.01)
            y = rng.uniform(0.005, x - 0.005)
            p = rng.uniform(1.2, 4.5)
            fx, fy = reduced_gradient(ReducedPoint(x, y), p)
            fd_x = (reduced_objective(ReducedPoint(x + h, y), p)
                    - reduced_objective(ReducedPoint(x - h, y), p)) / (2 * h)
            fd_y = (reduced_objective(ReducedPoint(x, y + h), p)
                    - reduced_objective(ReducedPoint(x, y - h), p)) / (2 * h)
            assert fx == pytest.approx(fd_x, rel=1e-6, abs=1e-8)
            assert fy == pytest.approx(fd_y, rel=1e-6, abs=1e-8)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            reduced_gradient(ReducedPoint(0.2, 0.0), 2.0)
        with pytest.raises(ValueError, match="interior"):
            reduced_gradient(ReducedPoint(0.2, 0.2), 2.0)


class TestCriticalCurve:
    def test_b1_is_constant_centroid_height(self):
        for y in (0.01, 0.1, 0.2, SQRT3 / 6 - 1e-6):
            assert critical_x_of_y(y, 1.0) == pytest.approx(SQRT3 / 6, abs=1e-12)

    def test_b3_matches_family_closed_form(self):
        for y in (0.02, SQRT3 / 12, 0.24):
            closed = (1.0 + 36.0 * y * y) / (6.0 * SQRT3 * (1.0 + 4.0 * y * y))
            assert critical_x_of_y(y, 3.0) == pytest.approx(closed, rel=1e-12)
        assert critical_x_of_y(SQRT3 / 12, 3.0) == pytest.approx(0.1554404, abs=1e-7)

    def test_b3_small_y_limit(self):
        assert critical_x_of_y(1e-8, 3.0) == pytest.approx(SQRT3 / 18, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            critical_x_of_y(0.0, 2.0)
        with pytest.raises(ValueError):
            critical_x_of_y(SQRT3 / 6, 2.0)


class TestStationarityGap:
    def test_identically_zero_for_b1(self):
        for t in (0.0, 0.37, 0.8, 1.0):
            assert stationarity_gap(t, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_b2_half(self):
        # 8*0.5 + 3*(0.25 - 2.25) + 0.5*(2.25 + 0.25) = 4 - 6 + 1.25
        assert stationarity_gap(0.5, 2.0) == pytest.approx(-0.75, abs=1e-14)

    def test_b_half_half(self):
        direct = (2.0 ** 1.5 * 0.5 + 3.0 * (math.sqrt(0.5) - math.sqrt(1.5))
                  + 0.5 * (math.sqrt(1.5) + math.sqrt(0.5)))
        assert stationarity_gap(0.5, 0.5) == pytest.approx(direct, rel=1e-14)
        assert stationarity_gap(0.5, 0.5) == pytest.approx(0.8272251, abs=1e-7)

    def test_exact_endpoint_zeros(self):
        for b in (0.3, 1.0, 1.7, 3.0, 4.5, 12.0):
            assert stationarity_gap(0.0, b) == 0.0
            assert stationarity_gap(1.0, b) == 0.0

    @pytest.mark.parametrize("b", [0.3, 0.5, 2.0, 2.5, 5.0, 10.0, 20.0])
    def test_no_interior_zeros(self, b):
        t = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        values = stationarity_gap(t, b)
        assert np.all(np.abs(values) > 0.0)
        assert len(np.unique(np.sign(values))) == 1


class TestSideParallel:
    def test_offset_limits_at_transitions(self):
        for p, target in ((2.0 - 1e-6, SQRT3 / 6), (2.0 + 1e-6, SQRT3 / 6),
                          (4.0 / 3.0 - 1e-6, SQRT3 / 18), (4.0 / 3.0 + 1e-6, SQRT3 / 18)):
            assert side_parallel_offset(p) == pytest.approx(target, abs=1e-5)

    def test_offset_against_direct_minimization(self):
        for p in (1.2, 1.7, 3.0, 6.0):
            xg, _ = golden_section(lambda x: boundary_profile(x, p), 0.0, SQRT3 / 4, tol=1e-14)
            assert side_parallel_offset(p) == pytest.approx(xg, abs=1e-6)

    def test_value_examples(self):
        assert side_parallel_value(2.0) == pytest.approx(0.5, abs=1e-14)
        closed_p3 = 3.0 * SQRT3 / (4.0 * (1.0 + math.sqrt(2.0)) ** 2)
        assert side_parallel_value(3.0) == pytest.approx(closed_p3, rel=1e-14)
        _, vg = golden_section(lambda x: boundary_profile(x, 1.2), 0.0, SQRT3 / 4, tol=1e-14)
        assert side_parallel_value(1.2) == pytest.approx(vg, abs=1e-3)
        assert side_parallel_value(1.2) == pytest.approx(0.8363, abs=1e-4)

    def test_near_one_is_stable(self):
        # log-domain evaluation: the value tends to sqrt(3)/2 and the offset to 0
        assert side_parallel_value(1.0 + 1e-12) == pytest.approx(SQRT3 / 2, rel=1e-9)
        assert side_parallel_offset(1.0 + 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_p_at_or_below_one(self):
        with pytest.raises(ValueError):
            side_parallel_offset(1.0)
        with pytest.raises(ValueError):
            side_parallel_value(0.9)


class TestPhaseAndMinValue:
    @pytest.mark.parametrize("p,phase", [
        (1.0, TrianglePhase.PARALLEL),
        (1.1, TrianglePhase.PARALLEL),
        (4.0 / 3.0, TrianglePhase.FAMILY_P43),
        ("4/3", TrianglePhase.FAMILY_P43),
        (1.5, TrianglePhase.BISECTOR),
        (1.9999999, TrianglePhase.BISECTOR),
        (2.0, TrianglePhase.FAMILY_P2),
        (Fraction(2), TrianglePhase.FAMILY_P2),
        (2.0000001, TrianglePhase.PARALLEL),
        (20.0, TrianglePhase.PARALLEL),
        ("inf", TrianglePhase.PARALLEL),
    ])
    def test_classification(self, p, phase):
        assert classify_phase(p) is phase

    def test_min_values(self):
        assert triangle_min_value(1.0) == pytest.approx(SQRT3 / 2, abs=1e-15)
        assert triangle_min_value("4/3") == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-14)
        assert triangle_min_value(1.5) == pytest.approx(2.0 ** -0.5, abs=1e-15)
        assert triangle_min_value(2.0) == pytest.approx(0.5, abs=1e-15)
        assert triangle_min_value("inf") == pytest.approx(SQRT3 / 4, abs=1e-15)
        assert triangle_min_value(3.0) == pytest.approx(side_parallel_value(3.0), abs=1e-15)

    def test_boundary_trichotomy(self):
        # side-parallel wins outside [4/3, 2], loses inside, ties at the ends
        for p in np.linspace(1.0125, 6.0, 400):
            p = float(p)
            diff = side_parallel_value(p) - 2.0 ** (1.0 - p)
            if abs(p - 2.0) < 1e-12 or abs(p - 4.0 / 3.0) < 1e-12:
                assert diff == pytest.approx(0.0, abs=1e-14)
            elif 4.0 / 3.0 < p < 2.0:
                assert diff > 0.0
            else:
                assert diff < 0.0


class TestFamilies:
    def test_p43_members(self):
        r0 = family_member("4/3", 0.0)
        assert (r0.x, r0.y) == pytest.approx((SQRT3 / 18, 0.0), abs=1e-14)
        r1 = family_member("4/3", SQRT3 / 6)
        assert (r1.x, r1.y) == pytest.approx((SQRT3 / 6, SQRT3 / 6), abs=1e-14)

    def test_p2_member(self):
        r = family_member(2.0, 0.1)
        assert (r.x, r.y) == pytest.approx((SQRT3 / 6, 0.1), abs=1e-15)

    def test_p43_x_strictly_increasing(self):
        ys = np.linspace(0.0, SQRT3 / 6, 200)
        xs = [family_member(4.0 / 3.0, float(y)).x for y in ys]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("p,target", [(2.0, 0.5), (4.0 / 3.0, 2.0 ** (-1.0 / 3.0))])
    def test_family_constancy(self, p, target):
        values = [reduced_objective(family_member(p, float(y)), p)
                  for y in np.linspace(0.0, SQRT3 / 6, 100)]
        assert max(values) - min(values) <= 1e-12
        assert values[0] == pytest.approx(target, abs=1e-13)

    def test_rejects_other_p(self):
        with pytest.raises(ValueError):
            family_member(1.7, 0.05)
        with pytest.raises(ValueError):
            family_member(2.0, 0.5)  # y beyond sqrt(3)/6


class TestSymmetryOrbit:
    def test_side_parallel_orbit_is_three(self):
        g = reduced_to_line(ReducedPoint(side_parallel_offset(3.0), 0.0))
        assert len(symmetry_orbit(g)) == 3

    def test_family_interior_orbit_is_six(self):
        g = reduced_to_line(family_member("4/3", 0.08))
        assert len(symmetry_orbit(g)) == 6

    def test_bisector_orbit_is_three(self):
        g = reduced_to_line(ReducedPoint(SQRT3 / 6, SQRT3 / 6))
        assert len(symmetry_orbit(g)) == 3

    def test_orbit_preserves_objective(self, rng):
        for _ in range(20):
            x = rng.uniform(0.01, SQRT3 / 4 - 0.01)
            y = rng.uniform(0.0, x)
            p = rng.uniform(1.1, 4.0)
            g = reduced_to_line(ReducedPoint(x, y))
            base = lp_objective(TRI, g, p)
            for h in symmetry_orbit(g):
                assert lp_objective(TRI, h, p) == pytest.approx(base, rel=1e-9)


class TestTriangleOptimalSet:
    def test_parallel_regime(self):
        opt = triangle_optimal_set(5.0)
        assert len(opt.lines) == 3
        x0 = side_parallel_offset(5.0)
        sides = [(TRI[0], TRI[1]), (TRI[0], TRI[2]), (TRI[1], TRI[2])]
        for g in opt.lines:
            gap = min(abs(point_line_distance(a, g) - x0) + abs(point_line_distance(b, g) - x0)
                      for a, b in sides)
            assert gap < 1e-9

    def test_bisector_regime(self):
        opt = triangle_optimal_set(1.7)
        assert len(opt.lines) == 3
        for g in opt.lines:
            assert min(point_line_distance(v, g) for v in TRI) < 1e-12

    def test_family_p2(self):
        opt = triangle_optimal_set(2.0)
        assert opt.degenerate
        assert isinstance(opt.families[0], PencilThroughPoint)
        assert opt.families[0].center.y == pytest.approx(SQRT3 / 6, abs=1e-15)

    def test_family_p43(self):
        opt = triangle_optimal_set("4/3")
        assert opt.degenerate
        curve = opt.families[0]
        assert isinstance(curve, ReducedCurve)
        for g in family_lines(curve, 32):
            assert lp_objective(TRI, g, 4.0 / 3.0) == pytest.approx(
                opt.min_value, rel=1e-12)

    def test_family_p43_matches_the_every_direction_descriptor(self):
        # the closed form's curve and minimize's descriptor describe the same
        # lines: each orbit line of a curve member has the best offset of its
        # direction, and the optimal value
        assert minimize(TRI, "4/3").optimal.families == (EveryDirection(4.0 / 3.0),)
        best = triangle_min_value("4/3")
        worst_offset = worst_value = 0.0
        for y in np.linspace(0.0, SQRT3 / 6.0, 25):
            for g in symmetry_orbit(reduced_to_line(family_member("4/3", float(y)))):
                c, value = best_offset_for_direction(TRI, g.theta, "4/3")
                worst_offset = max(worst_offset, abs(c - g.c))
                worst_value = max(worst_value, abs(value - best) / best)
        assert worst_offset <= 1e-12
        assert worst_value <= 1e-12

    def test_endpoints_delegate(self):
        assert triangle_optimal_set(1.0).min_value == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert triangle_optimal_set("inf").min_value == pytest.approx(SQRT3 / 4, abs=1e-12)

    @pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 1.9, 2.5, 4.0, 8.0])
    def test_numeric_minimize_recovers_analytic_set(self, p):
        report = minimize(TRI, p)
        assert report.optimal.min_value == pytest.approx(triangle_min_value(p), abs=1e-8)
        analytic = triangle_optimal_set(p).lines
        for g in report.optimal.lines:
            assert min(line_param_distance(g, h) for h in analytic) < 1e-6
