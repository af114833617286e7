import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpline import (
    PNorm,
    Point2,
    SignPartition,
    UnitLine,
    canonicalize,
    default_eps_zero,
    first_order_residual,
    line_through,
    lines_close,
    lp_distance,
    lp_objective,
    point_line_distance,
    sign_partition,
)
from lpline.geometry import _as_xy
from lpline.triangle import canonical_triangle

from conftest import random_points, random_isometry, transform_line

SQRT3 = math.sqrt(3.0)
TRI = canonical_triangle()


class TestPointLineDistance:
    def test_horizontal_line(self):
        g = UnitLine(math.pi / 2, 0.5)
        assert point_line_distance(Point2(0.0, 0.0), g) == pytest.approx(0.5, abs=1e-15)

    def test_point_on_line(self):
        g = UnitLine(0.3, 1.2)
        nx, ny = g.normal()
        dx, dy = g.direction()
        q = Point2(1.2 * nx + 3.7 * dx, 1.2 * ny + 3.7 * dy)
        assert point_line_distance(q, g) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_side_height(self):
        side = line_through(Point2(-0.5, 0.0), Point2(0.0, SQRT3 / 2))
        assert point_line_distance(Point2(0.5, 0.0), side) == pytest.approx(SQRT3 / 2, abs=1e-12)

    def test_invariant_under_canonicalization(self, rng):
        for _ in range(100):
            g = UnitLine(rng.uniform(-10, 10), rng.uniform(-5, 5))
            q = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert point_line_distance(q, g) == pytest.approx(
                point_line_distance(q, canonicalize(g)), abs=1e-12)


class TestLpObjective:
    def test_triangle_p2_centroid_line(self):
        g = UnitLine(math.pi / 2, SQRT3 / 6)
        assert lp_objective(TRI, g, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_triangle_pinf_midline(self):
        g = UnitLine(math.pi / 2, SQRT3 / 4)
        assert lp_objective(TRI, g, "inf") == pytest.approx(SQRT3 / 4, abs=1e-14)

    def test_p1_all_on_line_is_zero(self):
        pts = [Point2(t, 2.0 * t + 1.0) for t in (-1.0, 0.0, 2.0)]
        g = line_through(pts[0], pts[2])
        assert lp_objective(pts, g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            lp_objective([], UnitLine(0.0, 0.0), 2.0)

    def test_isometry_invariance(self, rng):
        for _ in range(50):
            pts = random_points(rng)
            iso = random_isometry(rng)
            g = UnitLine(rng.uniform(0, math.pi), rng.uniform(-1, 1))
            p = rng.uniform(1.0, 6.0)
            before = lp_objective(pts, g, p)
            after = lp_objective([iso(q) for q in pts], transform_line(g, iso), p)
            assert after == pytest.approx(before, rel=1e-12)

    def test_scaling_law(self, rng):
        for _ in range(50):
            pts = random_points(rng)
            g = UnitLine(rng.uniform(0, math.pi), rng.uniform(-1, 1))
            lam = rng.uniform(0.2, 5.0)
            scaled = [Point2(lam * q.x, lam * q.y) for q in pts]
            g_scaled = UnitLine(g.theta, lam * g.c)
            p = rng.uniform(1.0, 4.0)
            assert lp_objective(scaled, g_scaled, p) == pytest.approx(
                lam ** p * lp_objective(pts, g, p), rel=1e-12)
            assert lp_objective(scaled, g_scaled, "inf") == pytest.approx(
                lam * lp_objective(pts, g, "inf"), rel=1e-12)

    def test_multiplicity_counts(self):
        pts = [Point2(0.0, 0.0), Point2(0.0, 0.0), Point2(1.0, 0.0)]
        g = UnitLine(0.0, 0.5)  # vertical line x = 1/2
        assert lp_objective(pts, g, 2.0) == pytest.approx(0.75, abs=1e-14)


class TestLpDistance:
    def test_p1_equals_objective(self, rng):
        pts = random_points(rng)
        g = UnitLine(0.7, 0.1)
        assert lp_distance(pts, g, 1.0) == lp_objective(pts, g, 1.0)

    def test_triangle_p2_optimum_root(self):
        g = UnitLine(math.pi / 2, SQRT3 / 6)
        assert lp_distance(TRI, g, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_single_point(self):
        assert lp_distance([Point2(0.0, 2.0)], UnitLine(math.pi / 2, 0.0), 3.0) == pytest.approx(2.0)


class TestSignPartition:
    def test_triangle_centroid_line(self):
        part = sign_partition(TRI, UnitLine(math.pi / 2, SQRT3 / 6))
        assert part.j_minus == (0, 1)
        assert part.j_plus == (2,)
        assert part.j_zero == ()

    def test_line_through_vertex(self):
        part = sign_partition(TRI, UnitLine(0.0, -0.5))  # vertical through p1
        assert part.j_zero == (0,)
        assert set(part.j_plus) | set(part.j_minus) == {1, 2}

    def test_huge_band_swallows_all(self):
        # every offset of these tiny points is below the 1e-9 membership floor
        tiny = [(1e-10 * x, 1e-10 * y) for x, y in TRI]
        part = sign_partition(tiny, UnitLine(0.1, 0.0))
        assert part.j_zero == (0, 1, 2)
        assert part.j_plus == () and part.j_minus == ()

    def test_matches_per_point_loop(self, rng):
        for _ in range(50):
            pts = random_points(rng, count=int(rng.integers(1, 12)))
            theta = float(rng.uniform(0.0, math.pi))
            # half the lines pass through the first point, which then lands in j_zero
            q0 = pts[0]
            on_q0 = q0.x * math.cos(theta) + q0.y * math.sin(theta)
            g = UnitLine(theta, on_q0 if rng.random() < 0.5 else float(rng.uniform(-1.0, 1.0)))
            eps = default_eps_zero(pts)
            plus, zero, minus = [], [], []
            for j, q in enumerate(pts):
                r = q.x * math.cos(g.theta) + q.y * math.sin(g.theta) - g.c
                (zero if abs(r) <= eps else plus if r > 0.0 else minus).append(j)
            part = sign_partition(pts, g)
            assert part == SignPartition(tuple(plus), tuple(zero), tuple(minus))
            assert all(type(j) is int for j in part.j_plus + part.j_zero + part.j_minus)


class TestAsXY:
    def test_float_ndarray_passes_through(self):
        arr = np.array([[0.0, 1.0], [2.0, 3.5]])
        assert _as_xy(arr) is arr

    def test_ndarray_and_list_give_the_same_values(self, rng):
        pts = random_points(rng, count=7)
        from_list = _as_xy(pts)
        from_array = _as_xy(np.array([[q.x, q.y] for q in pts], dtype=np.float32))
        assert from_array.dtype == np.float64 and from_array.flags.c_contiguous
        from_fortran = _as_xy(np.asfortranarray(from_list))
        assert from_fortran.flags.c_contiguous and np.array_equal(from_fortran, from_list)
        assert np.array_equal(from_array, from_list.astype(np.float32))

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError):
            _as_xy(np.zeros(shape))


class TestFirstOrderResidual:
    def test_zero_at_p2_optimum(self):
        assert first_order_residual(TRI, UnitLine(math.pi / 2, SQRT3 / 6), 2.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_side_line_not_stationary(self):
        # the baseline y = 0 leaves J- empty; residual is -d3 = -sqrt(3)/2
        assert first_order_residual(TRI, UnitLine(math.pi / 2, 0.0), 2.0) == pytest.approx(
            -SQRT3 / 2, abs=1e-14)

    def test_reflection_symmetric_configuration(self):
        pts = [Point2(0.0, 1.0), Point2(1.0, 1.0), Point2(0.0, -1.0), Point2(1.0, -1.0)]
        assert first_order_residual(pts, UnitLine(math.pi / 2, 0.0), 1.7) == pytest.approx(
            0.0, abs=1e-14)

    def test_matches_offset_derivative(self, rng):
        # residual equals (1/p) * df/dc; check against central differences
        h = 1e-6
        for p in (1.5, 2.0, 2.7, 4.0):
            for _ in range(25):
                pts = random_points(rng)
                g = UnitLine(rng.uniform(0, math.pi), rng.uniform(-0.5, 1.5))
                d = np.array([point_line_distance(q, g) for q in pts])
                if np.min(d) < 1e-3:
                    continue
                fd = (lp_objective(pts, UnitLine(g.theta, g.c + h), p)
                      - lp_objective(pts, UnitLine(g.theta, g.c - h), p)) / (2 * h)
                assert first_order_residual(pts, g, p) == pytest.approx(fd / p, rel=1e-6)

    def test_rejects_p1_and_inf(self):
        with pytest.raises(ValueError):
            first_order_residual(TRI, UnitLine(0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            first_order_residual(TRI, UnitLine(0.0, 0.0), "inf")


class TestCanonicalize:
    def test_flip_normal(self):
        g = canonicalize(UnitLine(3 * math.pi / 2, 1.0))
        assert g.theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert g.c == -1.0

    def test_already_canonical(self):
        g = UnitLine(math.pi / 4, 2.0)
        assert canonicalize(g) == g

    @settings(max_examples=300)
    @given(theta=st.floats(-30.0, 30.0), c=st.floats(-50.0, 50.0))
    def test_idempotent(self, theta, c):
        once = canonicalize(UnitLine(theta, c))
        assert canonicalize(once) == once
        assert 0.0 <= once.theta < math.pi

    @settings(max_examples=200)
    @given(theta=st.floats(-30.0, 30.0), c=st.floats(-10.0, 10.0),
           px=st.floats(-5.0, 5.0), py=st.floats(-5.0, 5.0))
    def test_preserves_line(self, theta, c, px, py):
        g = UnitLine(theta, c)
        q = Point2(px, py)
        assert point_line_distance(q, canonicalize(g)) == pytest.approx(
            point_line_distance(q, g), abs=1e-10)


class TestPNorm:
    def test_parse_forms(self):
        assert PNorm.coerce("inf").is_inf
        assert PNorm.coerce("4/3").value == pytest.approx(4.0 / 3.0)
        assert PNorm.coerce(2).exact == 2
        assert PNorm.coerce(2.5).exact is None

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            PNorm.coerce(0.5)
        with pytest.raises(ValueError):
            PNorm.coerce("1/2")


class TestZeroDistanceMembership:
    def test_iff(self, rng):
        for _ in range(50):
            g = canonicalize(UnitLine(rng.uniform(0, math.pi), rng.uniform(-2, 2)))
            nx, ny = g.normal()
            dx, dy = g.direction()
            s = rng.uniform(-3, 3)
            on = Point2(g.c * nx + s * dx, g.c * ny + s * dy)
            off = Point2(on.x + 1e-3 * nx, on.y + 1e-3 * ny)
            assert point_line_distance(on, g) <= 1e-9 * (1 + abs(s) + abs(g.c))
            assert point_line_distance(off, g) > 1e-9

    def test_lines_close_across_wrap(self):
        a = UnitLine(1e-13, 2.0)
        b = UnitLine(math.pi - 1e-13, -2.0)
        assert lines_close(a, b, atol=1e-9)
        assert not lines_close(a, UnitLine(1e-13, -2.0), atol=1e-9)
