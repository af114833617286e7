"""Shared test helpers: random and fixed point sets, isometries, family
members, the brute-force grid oracles, the reference search loops that
the solver's early stops must reproduce exactly, the golden-section theta
scan that the solver's Newton scan replaced, the per-start Newton
refinement that its lane-parallel refinement replaced, the through-point
and pair snaps that ``minimize`` no longer runs, the pair loop of
``solve_pinf``, the per-b verification battery and the per-row sweep that
the grid-sharing battery and sweep must reproduce exactly, and the readers
and distances that only the tests use."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

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
from lpline.exact import (
    OptimalSet, ParallelStrip, PencilThroughPoint, ReducedCurve, _SAME_LINE, _check_points,
    _resolution, _ties)
from lpline.fileio import SWEEP_HEADER, SweepRow
from lpline.geometry import _as_xy, _eps_zero, _offsets, _power_sum, _slope_sum
from lpline.numeric import _EPS, _INV_PHI, _NEWTON_ITERS
from lpline.triangle import (
    SQRT3, TrianglePhase, bisect_sign, classify_phase, family_indicator, family_member,
    reduced_to_line, side_parallel_offset, side_parallel_value, stationarity_gap)
from lpline.verification import (
    CheckResult, SuiteReport, _horner_t2, binomial_series_coefficient, default_b_grid,
    default_t_grid, remainder_coefficients)


def _curvature_sum(r: np.ndarray, p: float, weight=None) -> np.ndarray:
    """``sum |r|^(p-2)`` along axis 0, each term times ``weight`` when one is
    given: the objective's curvature in the residuals, divided by p (p - 1).
    A zero residual adds 0 for p >= 2, and nan for p < 2, where its term is
    infinite."""
    sign = np.sign(r)
    return _slope_sum(r, p - 1.0, sign if weight is None else sign * weight)


def point_line_distance(p, g: UnitLine) -> float:
    """Distance from one point (a ``Point2`` or an (x, y) pair) to a line."""
    px, py = p
    nx, ny = g.normal()
    return abs(g.c - (nx * px + ny * py))


def lp_distance(points, g: UnitLine, p) -> float:
    """The L^p norm of the distance vector, ``(sum d_j^p)^(1/p)``."""
    pn = PNorm.coerce(p)
    value = lp_objective(points, g, pn)
    if pn.is_inf:
        return value
    return value ** (1.0 / pn.value)


def read_sweep_csv(path) -> list[SweepRow]:
    """The rows of a file written by ``fileio.write_sweep_csv``."""
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line == SWEEP_HEADER:
            continue
        p_text, phase, value, x0, family, count = line.split(",")
        rows.append(SweepRow(
            p=math.inf if p_text == "inf" else float(p_text),
            phase=phase,
            min_value=float(value),
            x0=None if x0 == "" else float(x0),
            family=family or None,
            line_count=count if count == "family" else int(count),
        ))
    return rows


def remainder_partial_sum(t, b: float, n_max: int):
    """``sum_{n=2}^{n_max} a_n t^(2n-2)`` for a scalar or an array of t."""
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("series requires |t| < 1")
    arr = np.asarray(t, dtype=float)
    out = _horner_t2(remainder_coefficients(b, n_max), arr * arr)
    return float(out) if arr.ndim == 0 else out


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


def golden_scan_reference(arr: np.ndarray, thetas: np.ndarray, pv: float, iters: int):
    """The theta scan that ``numeric._scan_values`` replaced: golden-section
    search in c, run on every lane theta at once for ``iters`` steps;
    returns the (c, value) arrays."""
    a = arr @ np.stack([np.cos(thetas), np.sin(thetas)])  # (m, T)
    lo = a.min(axis=0)
    hi = a.max(axis=0)

    def fvec(c):
        return _power_sum(c[None, :] - a, pv)

    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fvec(x1), fvec(x2)
    for _ in range(iters):
        keep_low = f1 <= f2
        # keep_low lanes shrink to [lo, x2] and reuse x1 as the new x2;
        # the rest shrink to [x1, hi] and reuse x2 as the new x1
        hi = np.where(keep_low, x2, hi)
        lo = np.where(keep_low, lo, x1)
        new_x1 = np.where(keep_low, hi - _INV_PHI * (hi - lo), x2)
        new_x2 = np.where(keep_low, x1, lo + _INV_PHI * (hi - lo))
        fq = fvec(np.where(keep_low, new_x1, new_x2))
        f1, f2 = np.where(keep_low, fq, f2), np.where(keep_low, f1, fq)
        x1, x2 = new_x1, new_x2
    best_first = f1 <= f2
    return np.where(best_first, x1, x2), np.where(best_first, f1, f2)


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


def solve_p1_reference(points) -> OptimalSet:
    """``exact.solve_p1`` as a loop over point pairs, each pair's line scored
    exactly: the brute-force oracle of the p = 1 solver."""
    arr = _check_points(points)
    eps, delta = _eps_zero(arr), _resolution(arr)

    candidates: list[tuple[float, UnitLine]] = []
    for i, j in combinations(range(len(arr)), 2):
        if np.array_equal(arr[i], arr[j]):
            continue
        g = line_through(arr[i], arr[j])
        candidates.append((float(_power_sum(g.c - _offsets(arr, *g.normal()), 1.0)), g))
    best, lines = _ties(arr, candidates, 1.0, delta)

    d = arr - arr.mean(axis=0)
    extent = 2.0 * float(np.max(np.hypot(d[:, 0], d[:, 1])))
    families = []
    for g1, g2 in combinations(lines, 2):
        dt = abs(g1.theta - g2.theta)
        if abs(math.sin(dt)) * extent > _SAME_LINE * delta:
            continue
        c1, c2 = g1.c, (g2.c if dt < 1.0 else -g2.c)
        offsets = _offsets(arr, *g1.normal())
        lo, hi = min(c1, c2), max(c1, c2)
        inside = np.any((offsets > lo + eps) & (offsets < hi - eps))
        if not inside:
            families.append(ParallelStrip(g1, g2))
    return OptimalSet(best, tuple(lines), tuple(families))


def solve_pinf_reference(points) -> OptimalSet:
    """``exact.solve_pinf`` as a loop over point pairs, one candidate line
    per pair: the brute-force oracle of the p = inf solver."""
    arr = _check_points(points)

    candidates: list[tuple[float, UnitLine]] = []
    for i, j in combinations(range(len(arr)), 2):
        dx, dy = arr[j] - arr[i]
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            continue
        nx, ny = -dy / norm, dx / norm
        offsets = _offsets(arr, nx, ny)
        lo, hi = float(np.min(offsets)), float(np.max(offsets))
        g = canonicalize(UnitLine(math.atan2(ny, nx), 0.5 * (lo + hi)))
        candidates.append((0.5 * (hi - lo), g))
    best, lines = _ties(arr, candidates, math.inf, _resolution(arr))
    return OptimalSet(best, tuple(lines))


def _newton_sign_reference(fd, lo: float, hi: float, x: float) -> float:
    """Root of an increasing ``f`` between ``lo`` (f < 0) and ``hi`` (f > 0)
    by scalar safeguarded Newton (``rtsafe``) from ``x``: a Newton step only
    inside the bracket and at most half the step before last, else
    bisection; stops on an exact 0, when the step no longer moves x, when the
    bracket holds no float at the scale of its ends, or after
    ``_NEWTON_ITERS`` calls of ``fd``."""
    resolution = _EPS * max(abs(lo), abs(hi))
    last = before = hi - lo
    for _ in range(_NEWTON_ITERS):
        f, df = fd(x)
        if f == 0.0:
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= resolution:
            break
        step = f / df if 0.0 < df < math.inf else math.nan
        new = x - step
        if new == x:
            break
        if lo < new < hi and abs(step) <= 0.5 * abs(before):
            before, last = last, step
        else:
            new = 0.5 * (lo + hi)
            before, last = last, 0.5 * (hi - lo)
        x = new
    return x


def _offset_root_reference(a: np.ndarray, pv: float, start: float, counter=None) -> float:
    """c*: the root of the offset slope by :func:`_newton_sign_reference` from
    ``start`` clipped to [min a, max a]."""
    lo, hi = float(np.min(a)), float(np.max(a))
    if lo == hi:
        return lo

    def fd(c):
        if counter is not None:
            counter.n += 1
        r = c - a
        return float(_slope_sum(r, pv)), (pv - 1.0) * float(_curvature_sum(r, pv))

    return _newton_sign_reference(fd, lo, hi, min(max(start, lo), hi))


def refine_reference(arr: np.ndarray, pv: float, thetas: np.ndarray, scan_c: np.ndarray,
                     starts: list[int], counter):
    """The refinement that ``numeric._refine`` replaced, with its signature:
    one start at a time, scalar safeguarded Newton on the profile slope in
    the lane's bracket, each step a scalar offset solve warm-started from the
    last root; then each line's offset and value on the input from the mean
    offset.  Returns the (theta*, c*, value) arrays."""
    step = math.pi / len(thetas)
    centre = arr.mean(axis=0)
    centred = arr - centre
    pin = 1e-9 * float(np.max(np.ptp(arr, axis=0)))
    c_prev = 0.0

    def profile_derivatives(theta: float) -> tuple[float, float]:
        nonlocal c_prev
        counter.n += 1
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        a = _offsets(centred, cos_t, sin_t)
        b = _offsets(centred, -sin_t, cos_t)
        c_prev = _offset_root_reference(a, pv, c_prev, counter)
        r = c_prev - a
        q = int(np.argmin(np.abs(r)))
        if abs(r[q]) <= pin:
            r = a[q] - a
            w = b[q] - b
            slope = pv * float(_slope_sum(r, pv, w))
            curvature = (pv * (pv - 1.0) * float(_curvature_sum(np.delete(r, q), pv,
                                                                  np.delete(w, q) ** 2))
                         - pv * float(_power_sum(r, pv)))
        else:
            s0, s1, s2 = _curvature_sum(r[:, None], pv, np.stack([np.ones_like(b), b, b * b], 1))
            slope = -pv * float(_slope_sum(r, pv, b))
            curvature = (pv * (pv - 1.0) * float(s2 - s1 * s1 / s0)
                         + pv * float(_slope_sum(r, pv, a)))
        return slope, curvature

    def newton_theta(idx: int) -> float:
        nonlocal c_prev
        th0 = float(thetas[idx])
        c0 = float(scan_c[idx] - _offsets(centre[None, :], math.cos(th0), math.sin(th0))[0])
        ends = []
        for end in (th0 - step, th0 + step):
            c_prev = c0
            ends.append(profile_derivatives(end)[0])
        if not ends[0] < 0.0 < ends[1]:
            return th0
        c_prev = c0
        return _newton_sign_reference(profile_derivatives, th0 - step, th0 + step, th0)

    out = []
    for idx in starts:
        theta = newton_theta(idx)
        a = _offsets(arr, math.cos(theta), math.sin(theta))
        c = _offset_root_reference(a, pv, float(np.mean(a)))
        out.append((theta, c, float(_power_sum(c - a, pv))))
    return tuple(np.array(v) for v in zip(*out))


def snap_reference(arr: np.ndarray, p: float, line: UnitLine, value: float):
    """(value, line): the better of ``line`` (whose value is ``value``) and
    its snap, the second path to lines through points that ``minimize`` ran
    before its kernels reached them.  Within ``1e-6 (1 + max |coordinate|)``
    of one point the snap is the optimum constrained through that point, by
    sign bisection of its angular slope within 1e-4 of ``line``'s theta;
    within that radius of two or more points, the line through the farthest
    two of them."""
    scale = 1.0 + float(np.max(np.abs(arr)))
    near = np.flatnonzero(np.abs(arr @ np.array(line.normal()) - line.c) <= 1e-6 * scale)
    if len(near) == 1:
        q = arr[near[0]]
        rel = arr - q

        def slope(alpha: float) -> float:
            r = rel @ np.array([math.cos(alpha), math.sin(alpha)])
            dn = rel @ np.array([-math.sin(alpha), math.cos(alpha)])
            return p * float(_slope_sum(r, p, dn))

        t_lo, t_hi = line.theta - 1e-4, line.theta + 1e-4
        if slope(t_lo) < 0.0 < slope(t_hi):
            alpha = bisect_sign(slope, t_lo, t_hi, 70)
            n = np.array([math.cos(alpha), math.sin(alpha)])
            c = float(n @ q)
            snapped = float(_power_sum(arr @ n - c, p))
            if snapped <= value + 1e-12 * (1.0 + value):
                return snapped, UnitLine(alpha, c)
    elif len(near) >= 2:
        span = arr[near]
        d2 = np.sum((span[:, None, :] - span[None, :, :]) ** 2, axis=-1)
        i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
        if d2[i, j] > 0.0:
            dx, dy = span[j] - span[i]
            norm = math.hypot(dx, dy)
            n = np.array([-dy / norm, dx / norm])
            c = float(n @ span[i])
            snapped = float(_power_sum(arr @ n - c, p))
            if snapped < value:
                return snapped, UnitLine(math.atan2(n[1], n[0]), c)
    return value, line


def remainder_partial_sum_reference(coefficients, t):
    """``remainder_partial_sum`` with a fresh accumulator per Horner step."""
    arr = np.asarray(t, dtype=float)
    t2 = arr * arr
    acc = np.zeros_like(arr)
    for cn in reversed(coefficients):
        acc = acc * t2 + cn
    out = acc * t2
    return float(out) if arr.ndim == 0 else out


def _gap_over_t_reference(t_grid: np.ndarray, b: float) -> np.ndarray:
    """``stationarity_gap_over_t`` on an array, with the series coefficients
    of one b from scalar recurrences."""
    arr = np.asarray(t_grid, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise ValueError("t must lie in (0, 1]")
    small = arr < 1e-4
    out = np.empty_like(arr)
    if np.any(~small):
        tt = arr[~small]
        out[~small] = stationarity_gap(tt, b) / tt
    if np.any(small):
        coeffs = [
            2.0 * (binomial_series_coefficient(b, 2 * n)
                   - 3.0 * binomial_series_coefficient(b, 2 * n + 1))
            for n in range(9)
        ]
        t2 = arr[small] ** 2
        acc = np.zeros_like(t2)
        for cn in reversed(coeffs):
            acc = acc * t2 + cn
        out[small] = 2.0 * 2.0 ** b + acc
    return out


def _check_identically_zero_reference(b: float, t_grid: np.ndarray) -> CheckResult:
    values = stationarity_gap(t_grid, b)
    scale = 4.0 * 2.0 ** b
    worst = int(np.argmax(np.abs(values)))
    margin = float(np.abs(values[worst])) / scale
    status = "pass" if margin <= 1e-12 else "fail"
    return CheckResult(f"identically-zero[b={b:g}]", status, margin, float(t_grid[worst]),
                       note="max |gap| / scale")


def _check_sign_constant_reference(b: float, t_grid: np.ndarray) -> CheckResult:
    h = _gap_over_t_reference(t_grid, b)
    target = family_indicator(b)
    signs_ok = bool(np.all(np.sign(h) == math.copysign(1.0, target))) and target != 0.0
    worst = int(np.argmin(np.abs(h)))
    margin = float(np.abs(h[worst]))
    status = "pass" if signs_ok and margin > 0.0 else "fail"
    return CheckResult(f"sign-constant[b={b:g}]", status, margin, float(t_grid[worst]),
                       note="min |h| with sign matching the t->0 limit")


def _tail_bound_reference(coeffs: np.ndarray, t_grid: np.ndarray):
    """``remainder_tail_bound`` for one row of coefficients, its decay test
    on the finite ratios of the row's upper half alone."""
    a_last = abs(float(coeffs[-1]))
    if a_last == 0.0:
        return np.zeros_like(t_grid)
    half = coeffs[len(coeffs) // 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(half[1:] / half[:-1])
    ratios = ratios[np.isfinite(ratios)]
    if len(ratios) == 0 or float(np.max(ratios)) >= 1.0:
        return None
    with np.errstate(divide="ignore"):
        return a_last * t_grid ** (2 * (len(coeffs) + 1)) / (1.0 - t_grid * t_grid)


def _check_remainder_bound_reference(b: float, t_grid: np.ndarray) -> CheckResult:
    name = f"remainder-lower-bound[b={b:g}]"
    n_terms = 64
    all_coeffs = remainder_coefficients(b, 2 * n_terms)
    coeffs = all_coeffs[:n_terms - 1]
    partial = remainder_partial_sum_reference(coeffs, t_grid)
    if b <= 2.0:
        if float(np.min(coeffs)) < 0.0:
            return CheckResult(name, "fail", float(np.min(coeffs)),
                               note="expected non-negative coefficients")
        margin = 0.5 + float(np.min(partial))
        return CheckResult(name, "pass", margin, None, note="non-negative series")

    tail = _tail_bound_reference(coeffs, t_grid)
    extended = all_coeffs[n_terms - 1:]
    ns = np.arange(n_terms + 1, 2 * n_terms + 1, dtype=float)
    normalized = np.abs(extended) * 2.0 * ns * (ns - 1.0)
    if np.all(normalized <= 1.0) and np.all(np.diff(normalized) <= 1e-12):
        harmonic = np.full_like(t_grid, 1.0 / (2.0 * n_terms))
        tail = harmonic if tail is None else np.minimum(tail, harmonic)
    if tail is None:
        return CheckResult(name, "inconclusive", math.nan,
                           note="observed coefficient growth cannot bound the tail")
    lower = partial - tail + 0.5
    worst = int(np.argmin(lower))
    margin = float(lower[worst])
    status = "pass" if margin > 0.0 else "fail"
    return CheckResult(name, status, margin, float(t_grid[worst]),
                       note="min of partial - tail + 1/2")


def run_verification_suite_reference(b_grid=None, t_grid=None) -> SuiteReport:
    """``run_verification_suite`` with every check computed afresh for
    each b: the grid split, the powers of t and the coefficient recurrences
    once per b."""
    bs = default_b_grid() if b_grid is None else np.asarray(b_grid, dtype=float)
    ts = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if len(bs) == 0 or len(ts) == 0:
        raise ValueError("grids must be non-empty")
    checks = []
    for b in (float(b) for b in bs):
        if b == 1.0 or b == 3.0:
            checks.append(_check_identically_zero_reference(b, ts))
        else:
            checks.append(_check_sign_constant_reference(b, ts))
        if b > 1.0:
            checks.append(_check_remainder_bound_reference(b, ts))
    return SuiteReport(checks)


def _sweep_row_reference(p: PNorm) -> SweepRow:
    phase = classify_phase(p)
    if p.is_inf:
        return SweepRow(math.inf, phase.value, SQRT3 / 4.0, None, None, 3)
    if p.value == 1.0:
        value = SQRT3 / 2.0
    elif phase is TrianglePhase.PARALLEL:
        value = side_parallel_value(p)
    else:
        value = 2.0 ** (1.0 - p.value)
    x0 = None if p.value <= 1.0 else side_parallel_offset(p)
    if phase in (TrianglePhase.FAMILY_P2, TrianglePhase.FAMILY_P43):
        return SweepRow(p.value, phase.value, value, x0, phase.value, "family")
    return SweepRow(p.value, phase.value, value, x0, None, 3)


def triangle_sweep_reference(p_min: float, p_max: float, steps: int,
                             include_inf: bool = False) -> list[SweepRow]:
    """``fileio.triangle_sweep`` with the phase, the minimum and the offset of
    each row computed apart, each from its own coercion and log(1 + 2^b)."""
    if steps == 1:
        ps = [PNorm.coerce(p_min)]
    else:
        ps = [PNorm.coerce(p_min + (p_max - p_min) * k / (steps - 1))
              for k in range(steps)]
    for q in (Fraction(4, 3), Fraction(2)):
        if p_min < q < p_max and not any(pn.value == float(q) for pn in ps):
            ps.append(PNorm.coerce(q))
    ps.sort(key=lambda pn: pn.value)
    rows = [_sweep_row_reference(p) for p in ps]
    if include_inf:
        rows.append(_sweep_row_reference(PNorm.infinity()))
    return rows


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
