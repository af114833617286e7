"""General-p line minimization (1 < p < inf).

The objective ``f(theta, c) = sum_j |c - a_j(theta)|^p`` with
``a_j(theta) = <n(theta), p_j>`` is convex in ``c`` for every fixed direction.
The outer problem over ``theta`` is non-convex, and symmetric inputs have
whole orbits of global minimizers (2n lines for some regular n-gons).  A
dense scan of ``theta`` brackets every local minimum of the profile
``theta -> min_c f``, and each is refined by safeguarded Newton on the
profile's slope.  Every optimal offset c*(theta) for p > 1 is the root of the
monotone offset slope found by safeguarded Newton: on all scan lanes at once
in :func:`_scan_values`, and one direction at a time, in the refinement and
in :func:`best_offset_for_direction`, by :func:`_offset_root`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PNorm,
    UnitLine,
    canonicalize,
    first_order_residual,
    lp_objective,
    _as_xy,
    _curvature_sum,
    _offsets,
    _power_sum,
    _slope_sum,
)
from .exact import OptimalSet, _check_points, _ties, solve_p1, solve_p2, solve_pinf

__all__ = [
    "SolveReport",
    "golden_section",
    "bisect_sign",
    "best_offset_for_direction",
    "minimize",
    "solve",
    "objective_gradient",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)
# candidates closer than this in theta are considered the same start
MIN_THETA_SEPARATION = math.pi / 36.0
# scan arcs agreeing with the optimum at this relative level flag a family
_DEGENERATE_RTOL = 1e-8
_DEGENERATE_ARCS = 12
# theta scan: lanes over [0, pi)
_THETA_SAMPLES = 720
# scan start: the mean offset (the root at p = 2) up to this p, the midrange
# (the root as p -> inf) above
_MEAN_START_P = 4.0
# for p < 2 a scan lane linearizes the slope term of its nearest offset when
# that term carries more than this share of the curvature
_KINK_SHARE = 0.25
# refinement: the tie tolerance (relative), and the starts refined when the
# scan already shows a family
_VALUE_TOL = 1e-10
_MULTISTART_KEEP = 8
# cap on the evaluations of one safeguarded Newton search
_NEWTON_ITERS = 100


@dataclass(frozen=True)
class SolveReport:
    """Solver result plus diagnostics.

    ``stationarity_residual`` is the worst first-order offset defect over the
    returned lines, in the scaled copy that :func:`minimize` solves when the
    input's sums overflow.  It vanishes (within ~1e-7 of the value scale) at
    regular optima; when p is very close to 1 and the optimum continues into a
    line through two points, the balancing terms sit below float resolution
    and the reported defect stays O(1) even though the line is exact.

    ``evaluations`` counts the Newton rounds of the theta scan (one per lane
    and round, while the lane runs); each profile-slope evaluation of the
    Newton refinement and each Newton iteration of its inner offset
    searches; and each through-point slope call of the kink snap.  The
    offset solves of :func:`best_offset_for_direction` (the final offset of
    every refined line) are not counted.
    """

    optimal: OptimalSet
    stationarity_residual: float
    evaluations: int


def golden_section(f, lo: float, hi: float, tol: float, max_iters: int = 200):
    """Minimize a unimodal ``f`` on [lo, hi]; returns (argmin, min).

    Shrinks the bracket by the inverse golden ratio per iteration until its
    width drops below ``tol`` or ``max_iters`` iterations have run.  Once the
    bracket has no floats left to split, the state ``(a, b, x1, x2)`` repeats
    every one or two steps; ``f`` must be deterministic, so the loop then
    stops at the first repeat of the state from two steps back that leaves
    an even number of iterations under the cap, and returns exactly what
    running to the cap would.
    """
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    prev = prev2 = None
    for left in range(max_iters, 0, -1):
        if b - a <= tol:
            break
        state = (a, b, x1, x2)
        if left % 2 == 0 and state == prev2:
            break
        prev2, prev = prev, state
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


def bisect_sign(f, lo: float, hi: float, iters: int, width: float = 0.0) -> float:
    """Bisect the sign change of ``f`` between ``lo`` (f < 0) and ``hi`` (f >= 0).

    Halves the bracket at most ``iters`` times, stopping early once it is no
    wider than ``width`` or once its midpoint rounds to one of its ends (no
    float is left inside, so further halvings would return that midpoint),
    and returns its midpoint.  The caller checks the bracket: nothing here
    evaluates ``f`` at the ends.
    """
    for _ in range(iters):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_sign(fd, lo: float, hi: float, x: float) -> float:
    """Root of an increasing ``f`` between ``lo`` (f < 0) and ``hi`` (f > 0),
    searched from ``x`` by safeguarded Newton (``rtsafe``).

    ``fd(x)`` returns ``(f(x), f'(x))``, and each call narrows the sign
    bracket.  The Newton step is taken only when it lands inside the bracket
    and is at most half the step before last; otherwise the bracket is
    bisected, so a slope that Newton crosses only a fraction of the way per
    step (large p) still converges.  Stops on an exact 0, when the Newton step
    no longer moves ``x``, when no float at the scale of the initial bracket
    is left inside the bracket, or after ``_NEWTON_ITERS`` calls.
    """
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


def best_offset_for_direction(points, theta: float, p) -> tuple[float, float]:
    """Optimal signed offset and value for a fixed direction.

    For p > 1, ``c -> sum |c - a_j|^p`` is strictly convex, and its optimum
    is the root of its monotone slope: :func:`_offset_root`, started from the
    mean offset, to float resolution.  Sums that overflow give an infinite
    value and no numpy warning.  For p = 1 the exact answer is a median of
    the offsets.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf:
        raise ValueError("use exact solver")
    arr = _as_xy(points)
    if len(arr) == 0:
        raise ValueError("empty input")
    a = _offsets(arr, math.cos(theta), math.sin(theta))
    pv = pn.value
    if pv == 1.0:
        a = np.sort(a)
        c = float(a[(len(a) - 1) // 2])
        return c, float(_power_sum(c - a, 1.0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = _offset_root(a, pv, float(np.mean(a)))
        return c, float(_power_sum(c - a, pv))


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _offset_root(a: np.ndarray, pv: float, start: float,
                 counter: _Counter | None = None) -> float:
    """c*: the root of the offset slope ``sum sign(c - a_j)|c - a_j|^(p-1)``,
    which increases in c, by :func:`_newton_sign` from ``start`` clipped to
    [min a, max a].  Each iteration adds one to ``counter`` when one is
    given.  The caller sets ``np.errstate``: for p < 2 a zero residual makes
    the curvature nan, and that step bisects."""
    lo, hi = float(np.min(a)), float(np.max(a))
    if lo == hi:
        return lo

    def fd(c):
        if counter is not None:
            counter.n += 1
        r = c - a
        return float(_slope_sum(r, pv)), (pv - 1.0) * float(_curvature_sum(r, pv))

    return _newton_sign(fd, lo, hi, min(max(start, lo), hi))


def _scan_values(arr: np.ndarray, thetas: np.ndarray, pv: float,
                 iters: int, counter: _Counter) -> tuple[np.ndarray, np.ndarray]:
    """(c*, sum |c* - a_j|^p) on every lane theta: the offset slope's root by
    safeguarded Newton on all lanes at once, as in :func:`_newton_sign` (a
    step only inside the sign bracket and at most half the step before last,
    else bisection), from the mean offset (the midrange above
    ``_MEAN_START_P``).  For p < 2, where the nearest offset's term carries
    more than ``_KINK_SHARE`` of the curvature, the step is Newton's in
    u = sign(t)|t|^(p-1) of that residual t, in which the term is linear.  A
    lane stops on an exact 0, when its bracket is within eps * max|a| or its
    step within twice that, or after ``iters`` rounds; each round adds one
    per running lane to ``counter``.  The sums run on residuals divided by
    the largest one, so they stay finite."""
    a = arr @ np.stack([np.cos(thetas), np.sin(thetas)])  # (m, T)
    a_min, a_max = a.min(axis=0), a.max(axis=0)
    c = (np.clip(a.mean(axis=0), a_min, a_max) if pv <= _MEAN_START_P
         else 0.5 * (a_min + a_max))
    resolution = _EPS * np.maximum(np.abs(a_min), np.abs(a_max))
    # the running lanes: bracket, iterate, offset range, resolution
    lane = np.flatnonzero(a_max - a_min > resolution)
    lo, hi, x, a_lo, a_hi, tol = (v[lane] for v in (a_min, a_max, c, a_min, a_max, resolution))
    off = a[:, lane]
    last = before = hi - lo
    q = pv - 1.0
    for _ in range(iters):
        if lane.size == 0:
            break
        counter.n += lane.size
        w = 1.0 / np.maximum(x - a_lo, a_hi - x)
        r = (x - off) * w
        f = _slope_sum(r, pv)
        curvature = _curvature_sum(r, pv)
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        new = x - f / (q * w * curvature)
        if pv < 2.0:
            cols = np.arange(lane.size)
            near = np.argmin(np.abs(r), axis=0)
            t = r[near, cols]
            share = _curvature_sum(t[None, :], pv) / curvature
            # on an offset (t = 0, share nan) du/df is 1 / (offsets there)
            zeros = np.count_nonzero(r == 0.0, axis=0)
            u = _slope_sum(t[None, :], pv) - f * np.where(zeros > 0, 1.0 / np.maximum(zeros, 1), share)
            linear = off[near, cols] + _slope_sum(u[None, :], 1.0 + 1.0 / q) / w
            new = np.where(share <= _KINK_SHARE, new, linear)
        step = np.abs(x - new)
        newton = (lo <= new) & (new <= hi) & (step <= 0.5 * before)
        before, last = last, np.where(newton, step, 0.5 * (hi - lo))
        done = (f == 0.0) | (hi - lo <= tol) | (step <= 2.0 * tol)
        x = np.where(newton, new, np.where(done, x, 0.5 * (lo + hi)))
        if done.any():
            c[lane[done]] = x[done]
            run = ~done
            lane, lo, hi, x, a_lo, a_hi, tol, last, before = (
                v[run] for v in (lane, lo, hi, x, a_lo, a_hi, tol, last, before))
            off = off[:, run]
    c[lane] = x
    return c, _power_sum(c - a, pv)


def minimize(points, p) -> SolveReport:
    """Global line minimization for finite p in (1, inf).

    Scans ``theta`` over [0, pi), solving every lane's offset to float
    resolution, and refines every circular local minimum of the scan inside
    its lane's bracket by safeguarded Newton on the profile slope, in the
    frame centred on the centroid.  When the scan already shows a family,
    the best well-separated lanes are the starts instead.  A start whose
    profile slope does not change sign in its bracket keeps its lane's
    direction.  Each line then takes its offset and value from
    :func:`best_offset_for_direction` on the input, may snap to a line
    through one or two points, and all distinct lines tying with the best
    value are returned.  A wide spread of near-optimal directions marks a
    one-parameter optimal family.

    If every refined direction overflows, the search reruns on the points
    times 2^-k, 2^k <= largest coordinate spread < 2^(k+1), which is exact;
    lines map back as (theta, 2^k c) and ``min_value`` is taken on the input.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf or pn.value <= 1.0:
        raise ValueError("use exact solver")
    arr = _check_points(points)
    counter = _Counter()
    # sums far from the optimum may overflow to inf (or to nan, for a slope
    # with terms of both signs); they then lose every comparison, as they
    # should.  A zero residual makes a curvature term infinite for p < 2; the
    # Newton searches then bisect
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        found = _search(arr, pn, counter)
        if found is None:
            k = math.frexp(float(np.max(np.ptp(arr, axis=0))))[1] - 1
            found = _search(np.ldexp(arr, -k), pn, counter) if k > 0 else None
            if found is not None:
                lines = [UnitLine(g.theta, math.ldexp(g.c, k)) for g in found[1]]
                found = (min(lp_objective(arr, g, pn) for g in lines), lines, *found[2:])
    if found is None or math.isinf(found[0]):
        raise ValueError(f"objective overflows float at p = {pn.value!r}: "
                         "no refined direction has a finite value")
    best, lines, degenerate, residual = found
    return SolveReport(OptimalSet(best, tuple(lines), (), degenerate=degenerate),
                       residual, counter.n)


def _search(arr: np.ndarray, pn: PNorm, counter: _Counter):
    """:func:`minimize` on ``arr``: (best, lines, degenerate, stationarity
    residual), or None if the refined direction of a start overflows."""
    pv = pn.value

    thetas = np.arange(_THETA_SAMPLES) * (math.pi / _THETA_SAMPLES)
    scan_c, scan_values = _scan_values(arr, thetas, pv, _NEWTON_ITERS, counter)

    # family test: how many well-separated scan arcs tie a value
    arcs = np.minimum((thetas / MIN_THETA_SEPARATION).astype(int), 35)
    arc_best = np.full(36, math.inf)
    np.minimum.at(arc_best, arcs, scan_values)

    def family(value: float) -> bool:
        near = int(np.sum(arc_best <= value + _DEGENERATE_RTOL * (1.0 + abs(value))))
        return near >= _DEGENERATE_ARCS

    # starts, best scan value first: every circular local minimum of the scan,
    # or, when the scan already shows a family, the best well-separated lanes
    order = np.argsort(scan_values, kind="stable")
    if family(float(scan_values[order[0]])):
        starts: list[int] = []
        for idx in order:
            th = thetas[idx]
            sep = min(
                (min(abs(th - thetas[k]), math.pi - abs(th - thetas[k])) for k in starts),
                default=math.inf,
            )
            if sep >= MIN_THETA_SEPARATION:
                starts.append(int(idx))
            if len(starts) >= _MULTISTART_KEEP:
                break
    else:
        minimum = ((scan_values <= np.roll(scan_values, 1))
                   & (scan_values < np.roll(scan_values, -1)))
        starts = [int(idx) for idx in order if minimum[idx]]

    scale = 1.0 + float(np.max(np.abs(arr)))

    def through_point_solution(q: np.ndarray, theta0: float):
        # optimum constrained to pass through q: with the contact point's kink
        # removed the angular slope is smooth, so sign bisection is exact
        rel = arr - q

        def slope(alpha: float) -> float:
            counter.n += 1
            r = rel @ np.array([math.cos(alpha), math.sin(alpha)])
            dn = rel @ np.array([-math.sin(alpha), math.cos(alpha)])
            return pv * float(_slope_sum(r, pv, dn))

        t_lo, t_hi = theta0 - 1e-4, theta0 + 1e-4
        if not (slope(t_lo) < 0.0 < slope(t_hi)):
            return None
        alpha = bisect_sign(slope, t_lo, t_hi, 70)
        n = np.array([math.cos(alpha), math.sin(alpha)])
        c = float(n @ q)
        value = float(_power_sum(arr @ n - c, pv))
        return value, UnitLine(alpha, c)

    # Newton refinement, in the frame centred on the centroid; each offset
    # search starts from the last one's root
    step = math.pi / _THETA_SAMPLES
    centre = arr.mean(axis=0)
    centred = arr - centre
    pin = 1e-9 * float(np.max(np.ptp(arr, axis=0)))
    c_prev = 0.0

    def profile_derivatives(theta: float) -> tuple[float, float]:
        # first and second derivative of theta -> min_c f(theta, c)
        nonlocal c_prev
        counter.n += 1
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        a = _offsets(centred, cos_t, sin_t)
        b = _offsets(centred, -sin_t, cos_t)
        c_prev = _offset_root(a, pv, c_prev, counter)
        r = c_prev - a
        q = int(np.argmin(np.abs(r)))
        if abs(r[q]) <= pin:
            # c* sits on point q, where f_c is not resolved: differentiate
            # the line through q instead (the envelope slope with q's term
            # eliminated)
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
        # the root of the profile slope in the lane's bracket, or the lane's
        # direction when the slope does not change sign there
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
        return _newton_sign(profile_derivatives, th0 - step, th0 + step, th0)

    refined: list[tuple[float, UnitLine]] = []
    for idx in starts:
        theta_star = newton_theta(idx)
        c_star, value = best_offset_for_direction(arr, theta_star, pn)
        if not value < math.inf:
            return None
        line = UnitLine(theta_star, c_star)
        near = np.flatnonzero(
            np.abs(arr @ np.array(line.normal()) - c_star) <= 1e-6 * scale)
        if len(near) == 1:
            snapped = through_point_solution(arr[near[0]], theta_star)
            if snapped is not None and snapped[0] <= value + 1e-12 * (1.0 + value):
                value, line = snapped
        elif len(near) >= 2:
            # toward p = 1 the optimum continues into a line through two
            # points, where the envelope slope oscillates; snap to the exact
            # pair line when it wins
            span = arr[near]
            d2 = np.sum((span[:, None, :] - span[None, :, :]) ** 2, axis=-1)
            i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
            if d2[i, j] > 0.0:
                dx, dy = span[j] - span[i]
                norm = math.hypot(dx, dy)
                n = np.array([-dy / norm, dx / norm])
                c_pair = float(n @ span[i])
                v_pair = float(_power_sum(arr @ n - c_pair, pv))
                if v_pair < value:
                    value = v_pair
                    line = UnitLine(math.atan2(n[1], n[0]), c_pair)
        refined.append((value, canonicalize(line)))

    best, lines = _ties(sorted(refined, key=lambda t: t[0]), _VALUE_TOL, 1e-7)

    residual = max(abs(first_order_residual(arr, g, pn)) for g in lines)
    return best, lines, family(best), residual


def solve(points, p) -> OptimalSet:
    """Optimal set for any p in [1, inf]: closed form at p in {1, 2, inf},
    :func:`minimize` otherwise."""
    pn = PNorm.coerce(p)
    if pn.is_inf:
        return solve_pinf(points)
    if pn.value == 1.0:
        return solve_p1(points)
    if pn.value == 2.0:
        return solve_p2(points)
    return minimize(points, pn).optimal


def objective_gradient(points, g: UnitLine, p) -> tuple[float, float]:
    """Analytic gradient ``(df/dtheta, df/dc)`` of the finite-p objective.

    ``df/dc = p * (sum_{J-} d^(p-1) - sum_{J+} d^(p-1))`` and the theta term
    follows from the chain rule with ``n'(theta) = (-sin theta, cos theta)``.
    Not meaningful when a point lies exactly on the line with p < 2.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf:
        raise ValueError("gradient requires finite p")
    pv = pn.value
    arr = _as_xy(points)
    resid = g.c - _offsets(arr, *g.normal())
    df_dc = pv * float(_slope_sum(resid, pv))
    df_dtheta = pv * float(_slope_sum(resid, pv, -_offsets(arr, *g.direction())))
    return df_dtheta, df_dc
