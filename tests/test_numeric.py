import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpline import (
    Point2,
    UnitLine,
    best_offset_for_direction,
    lp_objective,
    minimize,
    objective_gradient,
    sign_partition,
    solve,
    solve_p1,
    solve_p2,
    solve_pinf,
)
from lpline import numeric, triangle
from lpline.exact import DegenerateInputError, EveryDirection
from lpline.geometry import _as_xy, _offsets, _power_sum, _slope_sum, lines_close
from lpline.numeric import golden_section
from lpline.triangle import (
    bisect_sign, canonical_triangle, locate_transitions, side_parallel_offset,
    side_parallel_value)

from conftest import (
    _curvature_sum,
    band_with_outlier,
    bisect_sign_reference,
    brute_force_oracle,
    golden_scan_reference,
    golden_section_reference,
    line_param_distance,
    point_line_distance,
    random_points,
    refine_reference,
    refined_oracle,
    regular_polygon,
    snap_reference,
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        m=st.integers(3, 40),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.floats(1.01, 100.0),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        shift=st.floats(-1e4, 1e4),
        theta=st.floats(0.0, math.pi),
    )
    def test_offset_is_a_float_resolution_root(self, m, seed, p, scale, shift, theta):
        # the offset slope changes sign within a few ulps of the largest
        # offset around the returned c
        pts = scale * np.random.default_rng(seed).standard_normal((m, 2)) + shift
        c, value = best_offset_for_direction(pts, theta, p)
        assume(math.isfinite(value))
        a = _offsets(pts, math.cos(theta), math.sin(theta))
        res = 4.0 * np.finfo(float).eps * float(np.max(np.abs(a)))
        assert _slope_sum(c - res - a, p) <= 0.0 <= _slope_sum(c + res - a, p)

    def test_overflowing_sums_keep_the_root(self):
        # at p = 100 the cloud's sums overflow at scale 1e3; the root does
        # not, and is 1e3 times the unscaled one
        cloud = np.random.default_rng(50).standard_normal((50, 2))
        c, value = best_offset_for_direction(1e3 * cloud, 0.7, 100)
        c_unit, _ = best_offset_for_direction(cloud, 0.7, 100)
        a = _offsets(1e3 * cloud, math.cos(0.7), math.sin(0.7))
        assert value == math.inf
        assert abs(c - 1e3 * c_unit) <= 4.0 * np.finfo(float).eps * float(np.max(np.abs(a)))


class TestScan:
    """The theta scan solves every lane's offset to float resolution."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        m=st.integers(3, 40),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.floats(1.01, 1000.0),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        shift=st.floats(-1e4, 1e4),
    )
    # every lane's sum overflows; near p = 1 with many points
    @example(m=12, seed=1, p=1000.0, scale=1e3, shift=0.0)
    @example(m=40, seed=2, p=1.01, scale=1.0, shift=0.0)
    def test_lanes_are_float_resolution_roots(self, m, seed, p, scale, shift):
        pts = scale * (np.random.default_rng(seed).standard_normal((m, 2)) + shift)
        thetas = np.arange(numeric._THETA_SAMPLES) * (math.pi / numeric._THETA_SAMPLES)
        eps = np.finfo(float).eps
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c, values = numeric._scan_values(pts, thetas, p, numeric._NEWTON_ITERS,
                                             numeric._Counter())
            _, golden_values = golden_scan_reference(pts, thetas, p, 60)
            a = pts @ np.stack([np.cos(thetas), np.sin(thetas)])
            scale_a = np.max(np.abs(a), axis=0)
            # sums over residuals divided by the largest one stay finite and
            # keep their sign
            d = c - a
            w = 1.0 / np.max(np.abs(d), axis=0)
            moments = _slope_sum(np.abs(d) * w, p)
            # an ulp in each slope term moves the root by up to this much,
            # which near p = 1 exceeds the rounding of the offsets (0 when c
            # sits on an offset, where the curvature is infinite)
            noise = moments / ((p - 1.0) * w * _curvature_sum(d * w, p))
            res = 4.0 * eps * (scale_a + np.where(np.isnan(noise), 0.0, noise))
            below, above = c - res - a, c + res - a
            w_res = 1.0 / np.maximum(np.max(np.abs(below), axis=0), np.max(np.abs(above), axis=0))
            assert np.all(_slope_sum(below * w_res, p) <= 0.0)
            assert np.all(_slope_sum(above * w_res, p) >= 0.0)
            # no worse than the golden scan, up to the rounding of the values:
            # each residual carries eps * max|a| (relative p eps max|a| / |r|
            # in its term), and subnormal values carry no relative precision
            rounding = 4.0 * p * eps * scale_a * w * moments / _power_sum(d * w, p)
            bound = golden_values * (1.0 + 1e-12 + rounding) + np.finfo(float).tiny
        assert np.all(values <= bound)


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
        _assert_every_direction(report, 2.0)
        assert report.optimal.min_value == pytest.approx(0.5, abs=1e-10)

    def test_not_degenerate_off_families(self):
        # a discrete orbit of 3 lines, however small its values or however
        # close p is to a family exponent
        tri = np.array([tuple(q) for q in TRI])
        for scale, p in [(1.0, 1.25), (1.0, 1.5), (1.0, 3.0), (1.0, 60.0), (1.0, 400.0),
                         (1.0, 2.0 - 1e-6), (1.0, 2.0 + 1e-6),
                         (1.0, 4.0 / 3.0 - 1e-6), (1.0, 4.0 / 3.0 + 1e-6), (1e-6, 1.5)]:
            optimal = minimize(scale * tri, p).optimal
            assert len(optimal.lines) == 3, (scale, p)
            assert not optimal.degenerate, (scale, p)
        # every scan lane underflows to 0: a zero minimum is not a family
        assert not minimize(1e-3 * tri, 1000.0).optimal.degenerate

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

    def test_overflow_raises_value_error(self):
        # the optimal value of the triangle scaled by 64 overflows at this p
        pts = 64.0 * np.array([tuple(q) for q in TRI])
        with pytest.raises(ValueError, match="overflows"):
            minimize(pts, 672.69)
        # a flat scan of the scaled copy has no line whose value could be
        # taken unscaled: the lanes of the input overflowed
        with pytest.raises(ValueError, match="overflows"):
            minimize(3e231 * _as_xy(TRI), "4/3")

    def test_overflowing_search_is_solved_at_a_smaller_scale(self):
        # at scale 6.4 every refined direction overflows, but the optimum
        # (~1.7e298) does not
        p = 672.69
        pts = 6.4 * np.array([tuple(q) for q in TRI])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = minimize(pts, p)
        assert report.optimal.min_value < math.inf
        assert report.optimal.min_value ** (1.0 / p) == pytest.approx(
            6.4 * side_parallel_value(p) ** (1.0 / p), rel=1e-12)

    def test_overflowing_scan_lanes_raise_no_warning(self):
        pts = 5.0 * np.array([tuple(q) for q in TRI])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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

    def test_collinear_points_at_large_p(self):
        # near the common line every sum underflows to 0, so the offset
        # slopes' weights vanish; the optimum is still found, with value 0
        t = np.random.default_rng(0).standard_normal(15)
        pts = 99.6 * np.stack([t, 0.3 * t + 1.0], axis=1)
        report = minimize(pts, 94.5)
        assert report.optimal.min_value == 0.0
        assert len(report.optimal.lines) == 1

    def test_multiplicity_counts_in_objective(self):
        base = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1.0)]
        doubled = base + [Point2(0.5, 1.0)]
        v1 = minimize(base, 2.5).optimal.min_value
        v2 = minimize(doubled, 2.5).optimal.min_value
        # the duplicated apex pulls the line toward itself and costs more
        assert v2 > v1

    def test_triangle_p43_degenerate_flag(self):
        report = minimize(TRI, 4.0 / 3.0)
        assert report.optimal.min_value == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-10)
        # shifted 1e6 sizes, the input's rounding spreads a family's scan
        # values by ~1e-10 relative, inside the family tolerance
        for points, p in [(TRI, 4.0 / 3.0), (regular_polygon(5), 4.0)]:
            pts = np.array([tuple(q) for q in points])
            size = float(np.max(np.ptp(pts, axis=0)))
            for shift in (0.0, 1e6 * size):
                _assert_every_direction(minimize(pts + shift, p), p)

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


def _assert_every_direction(report, p: float) -> None:
    """A flat scan reports one family, no sample lines, and the best lane's
    offset solved to float resolution."""
    optimal = report.optimal
    assert optimal.degenerate, p
    assert optimal.lines == (), p
    assert optimal.families == (EveryDirection(p),), p
    assert report.stationarity_residual <= 1e-12, p


def _dn_closure_gap(lines, n: int) -> float:
    """The largest (theta, c) distance, across the pi-wrap as in
    ``line_param_distance``, from an image of a line under D_n (rotations by
    2 pi k / n and the mirror in the x-axis) to its nearest line."""
    theta, c = np.array([g.theta for g in lines]), np.array([g.c for g in lines])
    beta = 2.0 * math.pi * np.arange(n) / n
    image_theta = np.concatenate([(theta[:, None] + beta).ravel(), (beta - theta[:, None]).ravel()])
    image_c = np.tile(np.repeat(c, n), 2)
    turns = np.floor(image_theta / math.pi)
    image_theta, image_c = image_theta - turns * math.pi, np.where(turns % 2, -image_c, image_c)
    dt = np.abs(image_theta[:, None] - theta)
    gap = np.minimum(dt + np.abs(image_c[:, None] - c),
                     (math.pi - dt) + np.abs(image_c[:, None] + c))
    return float(gap.min(axis=1).max())


class TestRefinement:
    """Every scan minimum is refined, so whole symmetry orbits come back."""

    # (n, p, line count, D_n closure tolerance)
    _ORBITS = [
        (9, 1.5, 9, 1e-9),
        (9, 3.0, 9, 1e-9),
        (15, 1.5, 15, 1e-9),
        (15, 2.5, 15, 1e-9),
        (15, 3.0, 15, 1e-9),
        (13, 3.9, 13, 1e-9),
        (11, 3.99, 11, 1e-9),
        # orbits whose scan spreads less than 1e-8 relative, but many times
        # the rounding bound (an even n's orbit has n / 2 lines).  The 61-gon
        # at 5.5 spreads 4.4e-11 relative and closes to 4.3e-9
        (15, 9.5, 15, 1e-9),
        (15, 13.5, 15, 1e-9),
        (17, 7.5, 17, 1e-9),
        (27, 5.5, 27, 1e-9),
        (61, 5.5, 61, 2e-8),
        (120, 5.5, 60, 1e-9),
        # symmetry-broken optima: an orbit of 2n lines
        (5, 1.2675, 10, 1e-9),
        (7, 1.24, 14, 1e-9),
    ]

    @pytest.mark.parametrize("n, p, count, tol", _ORBITS,
                             ids=[f"{n}-{p}-{count}" for n, p, count, _ in _ORBITS])
    def test_regular_polygon_returns_its_orbit(self, n, p, count, tol):
        report = minimize(regular_polygon(n), p)
        lines = report.optimal.lines
        assert len(lines) == count
        assert not report.optimal.degenerate
        assert _dn_closure_gap(lines, n) < tol

    @pytest.mark.parametrize("points, p, bound", [
        (TRI, 1.5, 10_000), (regular_polygon(9), 3.0, 10_000), (TRI, "4/3", 10_000),
        (TRI, 1.05, 3_000),
    ], ids=["triangle-p1.5", "9-gon-p3", "triangle-p4/3", "triangle-p1.05"])
    def test_evaluations_stay_bounded(self, points, p, bound):
        # the theta scan takes a few Newton rounds per lane (720 lanes); at
        # p = 4/3 the scan is flat and nothing is refined; near
        # p = 1 most lanes' roots sit on a vertex, which the linearized step
        # finds in one or two rounds
        assert minimize(points, p).evaluations <= bound

    @pytest.mark.parametrize("points, p, bound", [
        (regular_polygon(12), 1.49, 8), (regular_polygon(6), 1.57, 8),
        (TRI, 4.0 / 3.0 - 1e-6, 8), (TRI, 2.0 + 1e-6, 8),
        (5.0 * _as_xy(TRI), 672.69, 4), (band_with_outlier(), 900.0, 12),
    ], ids=["12-gon-p1.49", "6-gon-p1.57", "triangle-p4/3-1e-6", "triangle-p2+1e-6",
            "triangle-x5-p672.69", "band-outlier-p900"])
    def test_theta_lanes_stop_at_the_slope_rounding_bound(self, points, p, bound, monkeypatch):
        # near the polygon pencils and the triangle's transitions the profile
        # is nearly flat, and its computed slope is rounding noise within a
        # few rounds; a lane stops there instead of stepping ulps at a time
        # (46, 46, 29 and 24 profile evaluations when it stopped only on an
        # exact 0 or a step at float resolution).  At large p the curvature
        # s1 (s1 / s0) stays finite where s1 * s1 overflows; with the
        # overflowed curvature every theta step was invalid and each lane
        # bisected to its step stop (47 evaluations on the last two inputs)
        profile_slopes, calls = numeric._profile_slopes, []

        def counted(*args):
            calls.append(args[1].size)
            return profile_slopes(*args)

        monkeypatch.setattr(numeric, "_profile_slopes", counted)
        got = minimize(points, p).optimal
        assert len(calls) <= bound
        monkeypatch.setattr(numeric, "_refine", refine_reference)
        want = minimize(points, p).optimal
        assert len(got.lines) == len(want.lines)
        for g in got.lines:
            assert any(lines_close(g, h, 1e-9) for h in want.lines)
        assert abs(got.min_value - want.min_value) <= 1e-12 * want.min_value

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        m=st.integers(5, 30),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.floats(1.05, 4.0),
        scale=st.floats(1.0, 100.0),
        shift=st.one_of(st.just(0.0), st.floats(0.0, 4.0).map(lambda e: 10.0 ** e)),
        angle=st.floats(0.0, 2.0 * math.pi),
        direction=st.floats(0.0, 2.0 * math.pi),
    )
    def test_similar_copy_scales_the_norm(self, m, seed, p, scale, shift, angle, direction):
        # a copy of a Gaussian cloud scaled by s, rotated and moved by `shift`
        # sizes has s times the optimal norm, within the rounding of its
        # coordinates
        base = np.random.default_rng(seed).standard_normal((m, 2))
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        move = shift * scale * np.array([math.cos(direction), math.sin(direction)])
        copy = scale * (base @ rot.T) + move
        want = scale * minimize(base, p).optimal.min_value ** (1.0 / p)
        got = minimize(copy, p).optimal.min_value ** (1.0 / p)
        assert abs(got - want) <= (1e-9 + 64.0 * np.finfo(float).eps * shift) * want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(5, 40),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.floats(1.05, 8.0),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        shift=st.one_of(st.just(0.0), st.floats(0.0, 3.0).map(lambda e: 10.0 ** e)),
        direction=st.floats(0.0, 2.0 * math.pi),
    )
    def test_matches_the_per_start_refinement(self, m, seed, p, scale, shift, direction):
        # the lane-parallel refinement finds the lines of the scalar
        # per-start Newton it replaced
        move = shift * np.array([math.cos(direction), math.sin(direction)])
        pts = scale * (np.random.default_rng(seed).standard_normal((m, 2)) + move)
        got = minimize(pts, p).optimal
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric, "_refine", refine_reference)
            want = minimize(pts, p).optimal
        assert len(got.lines) == len(want.lines)
        for g in got.lines:
            assert any(lines_close(g, h, 1e-9 * scale) for h in want.lines)
        assert abs(got.min_value - want.min_value) <= 1e-12 * want.min_value


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


class TestTransitionBitIdentity:
    """``locate_transitions`` with the early-stopping bisection against the
    capped loop."""

    @pytest.mark.parametrize("p_min, p_max", [(1.01, 3.0), (1.2, 2.5)])
    def test_same_transitions_as_the_capped_loop(self, p_min, p_max, monkeypatch):
        fast = locate_transitions(p_min, p_max)
        monkeypatch.setattr(triangle, "bisect_sign", bisect_sign_reference)
        assert fast == locate_transitions(p_min, p_max)


def _cloud_or_band(band: bool, m: int, seed: int) -> np.ndarray:
    """A Gaussian cloud of m points, or a noisy band of m - 1 points along
    y = 0.3 x with one outlier."""
    rng = np.random.default_rng(seed)
    if band:
        xs = rng.uniform(0.0, 4.0, m - 1)
        return np.vstack([np.stack([xs, 0.3 * xs + rng.normal(0.0, 0.05, m - 1)], 1),
                          [[2.0, 3.0]]])
    return rng.standard_normal((m, 2))


def _snap_gap(points, p) -> float:
    """How far ``minimize``'s value lies above the best snap of its own lines,
    relative."""
    arr = _as_xy(points)
    report = minimize(arr, p).optimal
    best = min(snap_reference(arr, p, g, lp_objective(arr, g, p))[0]
               for g in report.lines)
    return (report.min_value - best) / best


class TestSnapReference:
    """The lines through one or two points that the deleted snaps reached by
    a second path come out of the lane kernels: no snap of a returned line
    beats ``minimize``'s value by more than ``GAP``, relative."""

    GAP = 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        band=st.booleans(),
        m=st.integers(3, 50),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.one_of(st.sampled_from([1.0001, 1.001, 1.01, 1.05]), st.floats(1.0001, 2.0)),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        shift=st.one_of(st.just(0.0), st.floats(0.0, 3.0).map(lambda e: 10.0 ** e)),
        direction=st.floats(0.0, 2.0 * math.pi),
    )
    def test_no_gain_over_the_snaps(self, band, m, seed, p, scale, shift, direction):
        # a cloud or a band, scaled and moved by `shift` sizes
        move = shift * np.array([math.cos(direction), math.sin(direction)])
        assert _snap_gap(scale * (_cloud_or_band(band, m, seed) + move), p) <= self.GAP

    @pytest.mark.parametrize("points, p", [
        ([Point2(q.x + 1e6, q.y + 1e6) for q in TRI], 1.5),
        (regular_polygon(9), 3.0),
        (band_with_outlier(), 1.2),
        (TRI, 60.0),
    ], ids=["triangle-shifted-1e6", "9-gon-p3", "band-outlier-p1.2", "triangle-p60"])
    def test_no_gain_on_fixed_inputs(self, points, p):
        assert _snap_gap(points, p) <= self.GAP


class TestTranslation:
    """``minimize`` solves in the frame centred on the centroid, so an exactly
    representable translation changes nothing but the offsets, and a
    polygon shifted far keeps its orbit or family: the shift's rounding stays
    within the ties' and the family test's rounding bound."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["n-gon", "cloud", "band"]),
        n=st.integers(3, 15),
        m=st.integers(3, 40),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.floats(1.05, 20.0),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        shift=st.floats(0.0, 8.0).map(lambda e: 10.0 ** e),
        direction=st.floats(0.0, 2.0 * math.pi),
    )
    # orbits that the raw-input frame cut, all shifted 1e6 sizes
    @example(kind="n-gon", n=3, m=3, seed=0, p=3.0, scale=1.0, shift=1e6, direction=1.0)
    @example(kind="n-gon", n=5, m=3, seed=0, p=3.07, scale=1.0, shift=1e6, direction=1.0)
    @example(kind="n-gon", n=9, m=3, seed=0, p=3.0, scale=1.0, shift=1e6, direction=0.0)
    # families and an orbit that fixed tolerances cut, shifted 1e8 and 1e9 sizes
    @example(kind="n-gon", n=5, m=3, seed=0, p=4.0, scale=1.0, shift=1e8, direction=1.0)
    @example(kind="n-gon", n=3, m=3, seed=0, p=4.0 / 3.0, scale=1.0, shift=1e9, direction=1.0)
    @example(kind="n-gon", n=3, m=3, seed=0, p=3.0, scale=1.0, shift=1e9, direction=1.0)
    def test_shift_moves_only_the_offsets(self, kind, n, m, seed, p, scale, shift, direction):
        # `back` is `shifted` moved back exactly, so both hold the same
        # rounded shape.  For a polygon that shape is the polygon perturbed
        # by eps * shift sizes, which at its own resolution may rightly drop
        # tied lines, so line counts and flags are compared with the polygon
        base = (_as_xy(regular_polygon(n)) if kind == "n-gon"
                else _cloud_or_band(kind == "band", m, seed))
        move = shift * scale * np.array([math.cos(direction), math.sin(direction)])
        shifted = scale * base + move
        back = shifted - move
        assert np.array_equal(back + move, shifted)
        got, want = minimize(shifted, p).optimal, minimize(back, p).optimal
        assert abs(got.min_value - want.min_value) <= 1e-13 * want.min_value
        eps = np.finfo(float).eps
        theta_tol = 1e-9
        if kind == "n-gon":
            want, theta_tol = minimize(scale * base, p).optimal, 1e-9 + 256.0 * eps * shift
        assert len(got.lines) == len(want.lines)
        assert got.degenerate == want.degenerate
        if want.degenerate:
            return
        c_tol = 256.0 * eps * (shift * scale + scale)
        for g in got.lines:
            c = g.c - float(move @ g.normal())
            assert any(abs(g.theta - h.theta) <= theta_tol and abs(c - h.c) <= c_tol
                       or abs(abs(g.theta - h.theta) - math.pi) <= theta_tol
                       and abs(c + h.c) <= c_tol
                       for h in want.lines)


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
