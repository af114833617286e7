"""Shared test helpers: random and fixed point sets, isometries, family
members, the brute-force grid oracles, and the reference search loops that
the solver's early stops must reproduce exactly."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lpline import (
    PNorm,
    Point2,
    UnitLine,
    canonicalize,
    default_eps_zero,
    distance_vector,
    line_through,
    lp_objective,
)
from lpline.exact import ParallelStrip, PencilThroughPoint, ReducedCurve
from lpline.geometry import _as_xy
from lpline.numeric import _INV_PHI
from lpline.triangle import family_member, reduced_to_line


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


def regular_polygon(n: int) -> list[Point2]:
    """The regular n-gon inscribed in the unit circle, with a vertex at (1, 0)."""
    return [Point2(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
            for k in range(n)]


def band_with_outlier() -> list[Point2]:
    """Twelve noisy points along y = 0.3 x plus one gross outlier."""
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 4.0, 12)
    pts = [Point2(float(x), float(0.3 * x + 0.05 * e))
           for x, e in zip(xs, rng.standard_normal(12))]
    return pts + [Point2(2.0, 3.0)]


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


def grid_min(points, p, theta_lo: float, theta_hi: float, theta_steps: int,
             c_steps: int, c_window: tuple[float, float] | None = None):
    """Exhaustive (theta, c) grid argmin over the given windows.

    With ``c_window=None`` the offset grid spans the signed offsets of the
    points separately for each direction.
    """
    pn = PNorm.coerce(p)
    arr = _as_xy(points)
    if len(arr) == 0:
        raise ValueError("empty input")
    pv = pn.value
    best_val = math.inf
    best_line = None
    thetas = theta_lo + (theta_hi - theta_lo) * np.arange(theta_steps) / theta_steps
    ks = np.arange(c_steps) / max(c_steps - 1, 1)
    for theta in thetas:
        a = arr[:, 0] * math.cos(theta) + arr[:, 1] * math.sin(theta)
        if c_window is None:
            lo, hi = float(np.min(a)), float(np.max(a))
        else:
            lo, hi = c_window
        cs = lo + (hi - lo) * ks if hi > lo else np.array([lo])
        d = np.abs(cs[None, :] - a[:, None])
        values = np.max(d, axis=0) if pn.is_inf else np.sum(d ** pv, axis=0)
        k = int(np.argmin(values))
        if values[k] < best_val:
            best_val = float(values[k])
            best_line = canonicalize(UnitLine(float(theta), float(cs[k])))
    return best_line, best_val


def brute_force_oracle(points, p, theta_steps: int = 720, c_steps: int = 720):
    """Validation oracle: full-range exhaustive grid search; returns (line, value).

    Every grid value is a feasible objective value, so the result is an upper
    bound of the true minimum that tightens as the step counts grow.
    """
    if theta_steps < 16 or c_steps < 16:
        raise ValueError("steps must be >= 16")
    return grid_min(points, p, 0.0, math.pi, theta_steps, c_steps)


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


def family_lines(fam, count: int = 32) -> list[UnitLine]:
    """``count`` evenly spaced members of a family descriptor: lines through
    the pencil's center at angles k*pi/count, the strip's offsets from g1 to
    g2, or the reduced curve over its ``y_range`` (both ends included)."""
    if isinstance(fam, PencilThroughPoint):
        thetas = [math.pi * k / count for k in range(count)]
        return [UnitLine(t, math.cos(t) * fam.center.x + math.sin(t) * fam.center.y)
                for t in thetas]
    fractions = [k / (count - 1) for k in range(count)]
    if isinstance(fam, ParallelStrip):
        lo, hi = fam.g1.c, fam.g2.c
        return [UnitLine(fam.g1.theta, lo + (hi - lo) * f) for f in fractions]
    if isinstance(fam, ReducedCurve):
        lo, hi = fam.y_range
        return [reduced_to_line(family_member(fam.p, lo + (hi - lo) * f))
                for f in fractions]
    raise TypeError(f"unknown family {fam!r}")


def attained_value(points, opt, p) -> float:
    """Worst objective value over the listed lines and sampled family members."""
    values = [lp_objective(points, g, p) for g in opt.lines]
    for fam in opt.families:
        values.extend(lp_objective(points, g, p) for g in family_lines(fam))
    return max(values) if values else opt.min_value


def contains_count(points, g: UnitLine, eps: float | None = None) -> int:
    """Number of input points lying on the line within ``eps``."""
    if eps is None:
        eps = default_eps_zero(points)
    return int(np.sum(distance_vector(points, g) <= eps))


def golden_section_reference(f, lo: float, hi: float, tol: float, max_iters: int = 200):
    """``numeric.golden_section`` without its early stop: runs to ``tol`` or the cap."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iters):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def bisect_sign_reference(f, lo: float, hi: float, iters: int, width: float = 0.0) -> float:
    """``numeric.bisect_sign`` without its early stop: runs to ``width`` or the cap."""
    for _ in range(iters):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def remainder_partial_sum_reference(coefficients, t):
    """``remainder_partial_sum`` with a fresh accumulator per Horner step."""
    arr = np.asarray(t, dtype=float)
    t2 = arr * arr
    acc = np.zeros_like(arr)
    for cn in reversed(coefficients):
        acc = acc * t2 + cn
    out = acc * t2
    return float(out) if arr.ndim == 0 else out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
