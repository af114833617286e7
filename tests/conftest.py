"""Shared test helpers: random point sets, isometries, and a refined oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lpline import (
    Point2,
    UnitLine,
    canonicalize,
    default_eps_zero,
    distance_vector,
    line_through,
    lp_objective,
)
from lpline.numeric import grid_min


def random_points(rng: np.random.Generator, count: int | None = None,
                  min_sep: float = 1e-2) -> list[Point2]:
    """A well-separated random point set in the unit square."""
    m = count if count is not None else int(rng.integers(3, 8))
    while True:
        arr = rng.uniform(0.0, 1.0, size=(m, 2))
        d2 = np.sum((arr[:, None, :] - arr[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        if np.min(d2) > min_sep ** 2:
            return [Point2(float(x), float(y)) for x, y in arr]


def random_isometry(rng: np.random.Generator):
    """A random rotation+translation (+ reflection half the time) as a point map."""
    ang = rng.uniform(0.0, 2.0 * math.pi)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    tx, ty = rng.uniform(-3.0, 3.0, size=2)
    cos_a, sin_a = math.cos(ang), math.sin(ang)

    def apply(p) -> Point2:
        x, y = (p.x * flip, p.y) if isinstance(p, Point2) else (p[0] * flip, p[1])
        return Point2(cos_a * x - sin_a * y + tx, sin_a * x + cos_a * y + ty)

    return apply


def transform_line(g: UnitLine, iso) -> UnitLine:
    """Image of a line under a point map, via two points on the line."""
    nx, ny = g.normal()
    dx, dy = g.direction()
    p0 = Point2(g.c * nx, g.c * ny)
    p1 = Point2(p0.x + dx, p0.y + dy)
    return line_through(iso(p0), iso(p1))


def refined_oracle(points, p, theta_steps: int = 720, c_steps: int = 480,
                   sectors: int = 8, zooms: int = 3):
    """Brute-force grid oracle with local zooming around the best sectors.

    Pure enumeration throughout (no solver knowledge); the zoom stages push
    the resolution error of the plain product grid to ~1e-5 while staying
    cheap.  Returns (line, value).
    """
    per_sector = max(theta_steps // sectors, 8)
    candidates = []
    for k in range(sectors):
        lo = math.pi * k / sectors
        hi = math.pi * (k + 1) / sectors
        candidates.append(grid_min(points, p, lo, hi, per_sector, c_steps))
    candidates.sort(key=lambda t: t[1])

    arr = np.asarray([(q.x, q.y) for q in points])
    radius = float(np.max(np.hypot(arr[:, 0], arr[:, 1]))) + 1e-9
    d_theta = math.pi / theta_steps
    best_line, best_val = candidates[0]
    for g0, v in candidates[:3]:
        g, dth = g0, d_theta
        offsets = arr @ np.array([math.cos(g.theta), math.sin(g.theta)])
        dc = (float(np.max(offsets)) - float(np.min(offsets)) + 1e-9) / c_steps
        for _ in range(zooms):
            # the optimal offset drifts by up to radius * dtheta across the
            # theta window, so the c window must cover that drift
            half_c = 2.0 * dc + 2.0 * dth * radius
            g, v = grid_min(points, p, g.theta - 2 * dth, g.theta + 2 * dth,
                            81, 81, c_window=(g.c - half_c, g.c + half_c))
            dth *= 4.0 / 81.0
            dc = 2.0 * half_c / 81.0
        if v < best_val:
            best_line, best_val = g, v
    return best_line, best_val


def line_param_distance(g: UnitLine, h: UnitLine) -> float:
    """Distance in (theta, c) between two lines, across the pi-wrap."""
    a, b = canonicalize(g), canonicalize(h)
    direct = abs(a.theta - b.theta) + abs(a.c - b.c)
    wrapped = (math.pi - abs(a.theta - b.theta)) + abs(a.c + b.c)
    return min(direct, wrapped)


def assert_same_line_sets(got, expected, tol: float = 1e-9):
    assert len(got) == len(expected), f"{len(got)} lines != {len(expected)}"
    for g in got:
        nearest = min(line_param_distance(g, h) for h in expected)
        assert nearest <= tol, f"line {g} misses the expected set by {nearest:g}"


def attained_value(points, opt, p) -> float:
    """Worst objective value over the listed lines and sampled family members."""
    values = [lp_objective(points, g, p) for g in opt.lines]
    for fam in opt.families:
        values.extend(lp_objective(points, g, p) for g in fam.sample_lines())
    return max(values) if values else opt.min_value


def contains_count(points, g: UnitLine, eps: float | None = None) -> int:
    """Number of input points lying on the line within ``eps``."""
    if eps is None:
        eps = default_eps_zero(points)
    return int(np.sum(distance_vector(points, g) <= eps))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
