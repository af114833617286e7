import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpline import (
    Point2,
    UnitLine,
    best_offset_for_direction,
    lp_objective,
    minimize,
    objective_gradient,
    point_line_distance,
    sign_partition,
    solve,
    solve_p1,
    solve_p2,
    solve_pinf,
)
from lpline import numeric
from lpline.exact import DegenerateInputError
from lpline.numeric import bisect_sign, golden_section
from lpline.triangle import canonical_triangle, side_parallel_offset, side_parallel_value

from conftest import (
    band_with_outlier,
    bisect_sign_reference,
    brute_force_oracle,
    golden_section_reference,
    random_points,
    refined_oracle,
    regular_polygon,
)

SQRT3 = math.sqrt(3.0)
TRI = canonical_triangle()


class TestBestOffset:
    def test_triangle_p2_horizontal(self):
        c, value = best_offset_for_direction(TRI, math.pi / 2, 2.0)
        assert c == pytest.approx(SQRT3 / 6, abs=1e-11)
        assert value == pytest.approx(0.5, abs=1e-13)

    def test_triangle_p4_matches_boundary_formula(self):
        c, value = best_offset_for_direction(TRI, math.pi / 2, 4.0)
        assert c == pytest.approx(side_parallel_offset(4.0), abs=1e-10)
        assert value == pytest.approx(side_parallel_value(4.0), rel=1e-12)

    def test_symmetric_pair_centered(self):
        pts = [Point2(0.0, -1.3), Point2(0.0, 1.3)]
        for p in (1.5, 2.0, 3.0, 7.0):
            c, _ = best_offset_for_direction(pts, math.pi / 2, p)
            assert c == pytest.approx(0.0, abs=1e-10)

    def test_p1_returns_a_median(self, rng):
        for _ in range(20):
            pts = random_points(rng, count=5)
            theta = rng.uniform(0.0, math.pi)
            c, value = best_offset_for_direction(pts, theta, 1.0)
            offsets = sorted(
                q.x * math.cos(theta) + q.y * math.sin(theta) for q in pts)
            assert c == pytest.approx(offsets[2], abs=1e-12)
            assert value == pytest.approx(sum(abs(c - a) for a in offsets), rel=1e-12)

    def test_stationarity_at_returned_offset(self, rng):
        from lpline import first_order_residual
        for p in (1.3, 2.0, 3.5):
            for _ in range(10):
                pts = random_points(rng)
                theta = rng.uniform(0.0, math.pi)
                c, _ = best_offset_for_direction(pts, theta, p)
                resid = first_order_residual(pts, UnitLine(theta, c), p)
                assert abs(resid) < 1e-8

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="exact solver"):
            best_offset_for_direction(TRI, 0.0, "inf")


class TestMinimize:
    def test_triangle_p3_side_parallel_orbit(self):
        report = minimize(TRI, 3.0)
        assert report.optimal.min_value == pytest.approx(side_parallel_value(3.0), abs=1e-10)
        assert len(report.optimal.lines) == 3
        x0 = side_parallel_offset(3.0)
        # each optimal line is side-parallel at distance x0 from its side
        thetas = sorted(g.theta for g in report.optimal.lines)
        assert thetas == pytest.approx([math.pi / 6, math.pi / 2, 5 * math.pi / 6], abs=1e-7)
        horizontal = min(report.optimal.lines, key=lambda g: abs(g.theta - math.pi / 2))
        assert horizontal.c == pytest.approx(x0, abs=1e-8)

    def test_triangle_p15_bisectors(self):
        report = minimize(TRI, 1.5)
        assert report.optimal.min_value == pytest.approx(2.0 ** -0.5, abs=1e-10)
        assert len(report.optimal.lines) == 3
        for g in report.optimal.lines:
            assert min(point_line_distance(v, g) for v in TRI) < 1e-8

    def test_triangle_p2_degenerate_flag(self):
        report = minimize(TRI, 2.0)
        assert report.optimal.degenerate
        assert report.optimal.min_value == pytest.approx(0.5, abs=1e-10)

    def test_not_degenerate_off_families(self):
        for p in (1.25, 1.5, 3.0):
            assert not minimize(TRI, p).optimal.degenerate

    def test_stationarity_residual_bound(self, rng):
        for p in (1.2, 1.7, 2.4, 6.0):
            report = minimize(TRI, p)
            assert report.stationarity_residual <= 1e-7 * (1.0 + report.optimal.min_value)
            pts = random_points(rng)
            report = minimize(pts, p)
            assert report.stationarity_residual <= 1e-7 * (1.0 + report.optimal.min_value)

    def test_deterministic(self, rng):
        pts = random_points(rng)
        a = minimize(pts, 2.5)
        b = minimize(pts, 2.5)
        assert a.optimal == b.optimal

    def test_rejects_p1_and_inf(self):
        with pytest.raises(ValueError, match="exact solver"):
            minimize(TRI, 1.0)
        with pytest.raises(ValueError, match="exact solver"):
            minimize(TRI, "inf")

    def test_rejects_degenerate_points(self):
        with pytest.raises(DegenerateInputError):
            minimize([Point2(1.0, 2.0), Point2(1.0, 2.0)], 2.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_value_error(self):
        # every |r|^p of the scaled triangle overflows at this p, so no
        # refined direction has a finite value
        pts = 6.4 * np.array([tuple(q) for q in TRI])
        with pytest.raises(ValueError, match="overflows"):
            minimize(pts, 672.69)

    def test_oracle_agreement(self, rng):
        for _ in range(12):
            pts = random_points(rng)
            p = float(rng.uniform(1.2, 4.0))
            report = minimize(pts, p)
            _, oracle = refined_oracle(pts, p)
            assert report.optimal.min_value <= oracle + 1e-6

    def test_collinear_points_recover_common_line(self):
        pts = [Point2(t, -0.7 * t + 0.3) for t in (-1.0, 0.2, 0.9, 2.0)]
        report = minimize(pts, 1.8)
        assert report.optimal.min_value == pytest.approx(0.0, abs=1e-12)
        g = report.optimal.lines[0]
        assert all(point_line_distance(q, g) < 1e-7 for q in pts)

    def test_multiplicity_counts_in_objective(self):
        base = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1.0)]
        doubled = base + [Point2(0.5, 1.0)]
        v1 = minimize(base, 2.5).optimal.min_value
        v2 = minimize(doubled, 2.5).optimal.min_value
        # the duplicated apex pulls the line toward itself and costs more
        assert v2 > v1

    def test_triangle_p43_degenerate_flag(self):
        report = minimize(TRI, 4.0 / 3.0)
        assert report.optimal.degenerate
        assert report.optimal.min_value == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-10)

    def test_near_one_snaps_to_pair_line(self):
        # approaching p = 1 the optimum continues into a line through two
        # points; the solver must land on it exactly even though the
        # first-order defect is then not resolvable in floats
        pts = [Point2(*q) for q in [
            (0.1266524337890872, 0.7958469464843707),
            (0.9176445521057685, 0.1644937648938869),
            (0.1548622366561887, 0.9939786531999553),
            (0.005416496561456041, 0.8409592995480859),
            (0.9584690945940169, 0.7431348184084386),
            (0.2556375320247749, 0.7753798309253502),
            (0.6141278127125501, 0.7236076025112734),
        ]]
        report = minimize(pts, 1.01)
        g = report.optimal.lines[0]
        contacts = sum(point_line_distance(q, g) < 1e-12 for q in pts)
        assert contacts == 2
        _, oracle = refined_oracle(pts, 1.01)
        assert report.optimal.min_value <= oracle + 1e-9

    def test_equivariance(self, rng):
        from conftest import random_isometry, transform_line, line_param_distance
        for p in (1.4, 2.8):
            for _ in range(8):
                pts = random_points(rng)
                iso = random_isometry(rng)
                base = minimize(pts, p)
                moved = minimize([iso(q) for q in pts], p)
                assert moved.optimal.min_value == pytest.approx(
                    base.optimal.min_value, rel=1e-9, abs=1e-12)
                mapped = [transform_line(g, iso) for g in base.optimal.lines]
                for g in moved.optimal.lines:
                    assert min(line_param_distance(g, h) for h in mapped) < 1e-6


class TestSolveDispatch:
    def test_closed_forms_at_1_2_inf(self):
        pts = random_points(np.random.default_rng(3), 6)
        assert solve(pts, 1) == solve_p1(pts)
        assert solve(pts, "2") == solve_p2(pts)
        assert solve(pts, "inf") == solve_pinf(pts)

    def test_minimize_elsewhere(self):
        assert solve(TRI, 1.5) == minimize(TRI, 1.5).optimal

    def test_signatures_take_only_points_and_p(self):
        for fn in (minimize, solve):
            assert list(inspect.signature(fn).parameters) == ["points", "p"]

    def test_degenerate_input_raises(self):
        for p in (1, 1.5, 2, "inf"):
            with pytest.raises(DegenerateInputError):
                solve([Point2(1.0, 1.0), Point2(1.0, 1.0)], p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("p", [1, 1.5, 2, "inf"])
    def test_non_finite_ndarray_raises(self, p, bad):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [bad, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite coordinate"):
            solve(pts, p)


class TestBisectSign:
    def test_converges_to_the_sign_change(self):
        root = bisect_sign(lambda x: x * x - 2.0, 1.0, 2.0, 80)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_width_and_cap_stop_early(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3

        assert abs(bisect_sign(f, 0.0, 1.0, 80, width=0.1) - 0.3) <= 0.05
        assert len(calls) == 4
        calls.clear()
        bisect_sign(f, 0.0, 1.0, 3)
        assert len(calls) == 3


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


# brackets 1 to 1e12 ulps wide at offsets up to 1e9, holding a convex
# |x - x0|^q (or, for bisection, its monotone slope) whose minimum or root
# sits inside, at an end or outside; caps of both parities; zero and
# positive tolerances
_SEARCH = dict(
    offset=st.one_of(st.just(0.0), st.floats(-1e9, 1e9)),
    ulps=st.integers(0, 12).flatmap(lambda e: st.integers(1, 10 ** e)),
    where=st.floats(-0.5, 1.5),
    q=st.floats(1.0, 4.0),
    cap=st.integers(1, 210),
    tol_ulps=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
)


def _bracket(offset, ulps, where):
    lo = offset
    hi = lo + ulps * math.ulp(lo)
    return lo, hi, lo + where * (hi - lo)


class TestEarlyStops:
    """The stops at float resolution return exactly what the capped loops do."""

    @settings(max_examples=400, deadline=None)
    @given(**_SEARCH)
    def test_golden_section_matches_reference(self, offset, ulps, where, q, cap, tol_ulps):
        lo, hi, x0 = _bracket(offset, ulps, where)
        f, calls = _counted(lambda x: abs(x - x0) ** q)
        f_ref, calls_ref = _counted(lambda x: abs(x - x0) ** q)
        tol = tol_ulps * math.ulp(lo)
        got = golden_section(f, lo, hi, tol, cap)
        assert got == golden_section_reference(f_ref, lo, hi, tol, cap)
        assert calls == calls_ref[:len(calls)]

    @settings(max_examples=400, deadline=None)
    @given(**_SEARCH)
    def test_bisect_sign_matches_reference(self, offset, ulps, where, q, cap, tol_ulps):
        lo, hi, x0 = _bracket(offset, ulps, where)
        slope = lambda x: math.copysign(abs(x - x0) ** (q - 1.0), x - x0)
        f, calls = _counted(slope)
        f_ref, calls_ref = _counted(slope)
        width = tol_ulps * math.ulp(lo)
        got = bisect_sign(f, lo, hi, cap, width)
        assert got == bisect_sign_reference(f_ref, lo, hi, cap, width)
        assert calls == calls_ref[:len(calls)]

    @pytest.mark.parametrize("x", [0.0, 1.0, -3.0, 2.7e5, 1e9])
    def test_adjacent_floats_stop_at_once(self, x):
        hi = math.nextafter(x, math.inf)
        f, calls = _counted(lambda t: t - hi)
        assert bisect_sign(f, x, hi, 200) == bisect_sign_reference(f, x, hi, 200)
        assert len(calls) == 200  # the reference spends its whole cap on x
        calls.clear()
        bisect_sign(f, x, hi, 200)
        assert calls == []
        for cap in (120, 121, 200):
            g, g_calls = _counted(lambda t: abs(t - hi) ** 1.5)
            assert golden_section(g, x, hi, 0.0, cap) == golden_section_reference(g, x, hi, 0.0, cap)
            g_calls.clear()
            golden_section(g, x, hi, 0.0, cap)
            assert len(g_calls) <= 6


class TestMinimizeBitIdentity:
    """``minimize`` with the early-stopping loops against the capped loops."""

    @pytest.mark.parametrize("points, p", [
        ([Point2(q.x + 1e6, q.y + 1e6) for q in TRI], 1.5),
        (regular_polygon(9), 3.0),
        (band_with_outlier(), 1.2),
        (TRI, 60.0),
    ], ids=["triangle-shifted-1e6", "9-gon-p3", "band-outlier-p1.2", "triangle-p60"])
    def test_same_result_with_fewer_evaluations(self, points, p, monkeypatch):
        fast = minimize(points, p)
        monkeypatch.setattr(numeric, "golden_section", golden_section_reference)
        monkeypatch.setattr(numeric, "bisect_sign", bisect_sign_reference)
        capped = minimize(points, p)
        assert fast.optimal == capped.optimal
        assert fast.stationarity_residual == capped.stationarity_residual
        assert fast.evaluations <= capped.evaluations


class TestDistanceOrderingAtOptima:
    def test_two_against_one_with_singleton_largest(self, rng):
        # at any optimum of a (non-degenerate) triangle with no point on the
        # line, the side partition is 2 vs 1 and the singleton's distance
        # strictly dominates: d(3) > d(2) >= d(1) > 0
        checked = 0
        for p in (1.5, 2.5, 3.0):
            for _ in range(20):
                pts = random_points(rng, count=3, min_sep=0.15)
                report = minimize(pts, p)
                g = report.optimal.lines[0]
                part = sign_partition(pts, g)
                if part.j_zero:
                    continue
                assert sorted((len(part.j_plus), len(part.j_minus))) == [1, 2]
                lone = part.j_plus[0] if len(part.j_plus) == 1 else part.j_minus[0]
                d = [point_line_distance(q, g) for q in pts]
                others = sorted(d[j] for j in range(3) if j != lone)
                assert d[lone] > others[1] - 1e-12
                assert others[0] > 0.0
                checked += 1
        assert checked >= 30

    def test_vertex_line_is_perpendicular_bisector(self):
        # bisector regime on the equilateral triangle: the optimal line
        # contains a vertex and splits the other two evenly
        report = minimize(TRI, 1.6)
        for g in report.optimal.lines:
            d = sorted(point_line_distance(v, g) for v in TRI)
            assert d[0] < 1e-8
            assert abs(d[1] - d[2]) < 1e-9


class TestBruteForceOracle:
    def test_triangle_p1(self):
        _, value = brute_force_oracle(TRI, 1.0, 2000, 2000)
        assert value == pytest.approx(SQRT3 / 2, abs=2e-3)
        assert value >= SQRT3 / 2 - 1e-12

    def test_triangle_pinf(self):
        _, value = brute_force_oracle(TRI, "inf", 2000, 2000)
        assert value == pytest.approx(SQRT3 / 4, abs=2e-3)
        assert value >= SQRT3 / 4 - 1e-12

    def test_repeated_point(self):
        pts = [Point2(0.3, 0.7)] * 3
        _, value = brute_force_oracle(pts, 2.0, 32, 32)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_improves_with_resolution(self, rng):
        pts = random_points(rng)
        _, coarse = brute_force_oracle(pts, 1.5, 64, 64)
        _, fine = brute_force_oracle(pts, 1.5, 512, 512)
        # not strictly nested grids, so allow second-order slack
        assert fine <= coarse + 1e-6
        report = minimize(pts, 1.5)
        assert report.optimal.min_value <= fine + 1e-9

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            brute_force_oracle(TRI, 2.0, 8, 100)


class TestConvexityAndGradients:
    def test_inner_convexity(self, rng):
        for _ in range(200):
            pts = random_points(rng)
            theta = rng.uniform(0.0, math.pi)
            p = float(rng.uniform(1.0, 4.0))
            a = [q.x * math.cos(theta) + q.y * math.sin(theta) for q in pts]
            f = lambda c: sum(abs(c - ai) ** p for ai in a)
            c1, c2 = rng.uniform(-1.0, 2.0, size=2)
            assert f(0.5 * (c1 + c2)) <= 0.5 * (f(c1) + f(c2)) + 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    def test_gradient_matches_central_differences(self, p, rng):
        h = 1e-6
        checked = 0
        while checked < 40:
            pts = random_points(rng)
            g = UnitLine(rng.uniform(0.0, math.pi), rng.uniform(-0.3, 1.2))
            if min(point_line_distance(q, g) for q in pts) < 1e-3:
                continue
            d_theta, d_c = objective_gradient(pts, g, p)
            fd_c = (lp_objective(pts, UnitLine(g.theta, g.c + h), p)
                    - lp_objective(pts, UnitLine(g.theta, g.c - h), p)) / (2 * h)
            fd_theta = (lp_objective(pts, UnitLine(g.theta + h, g.c), p)
                        - lp_objective(pts, UnitLine(g.theta - h, g.c), p)) / (2 * h)
            assert d_c == pytest.approx(fd_c, rel=1e-5, abs=1e-9)
            assert d_theta == pytest.approx(fd_theta, rel=1e-5, abs=1e-9)
            checked += 1
