"""General-p line minimization (1 < p < inf).

The objective ``f(theta, c) = sum_j |c - a_j(theta)|^p`` with
``a_j(theta) = <n(theta), p_j>`` is convex in ``c`` for every fixed direction,
so the inner problem is solved by golden-section search.  The outer problem
over ``theta`` is non-convex with up to six global minimizers on symmetric
inputs; a dense scan plus multistart refinement recovers all of them.
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
    _as_xy,
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
# candidates closer than this in theta are considered the same start
MIN_THETA_SEPARATION = math.pi / 36.0
# scan arcs agreeing with the optimum at this relative level flag a family
_DEGENERATE_RTOL = 1e-8
_DEGENERATE_ARCS = 12
# theta scan: lanes over [0, pi), and golden steps per lane and per refinement
_THETA_SAMPLES = 720
_REFINE_ITERS = 60
# refinement: offset-search and tie tolerances (relative), and starts refined
_C_TOL = 1e-12
_VALUE_TOL = 1e-10
_MULTISTART_KEEP = 8


@dataclass(frozen=True)
class SolveReport:
    """Solver result plus diagnostics.

    ``stationarity_residual`` is the worst first-order offset defect over the
    returned lines.  It vanishes (within ~1e-7 of the value scale) at regular
    optima; when p is very close to 1 and the optimum continues into a line
    through two points, the balancing terms sit below float resolution and the
    reported defect stays O(1) even though the line is exact.

    ``evaluations`` counts the objective evaluations of the theta scan (one
    per scan lane and step), those of the inner offset searches in the theta
    refinement, and each angular-slope call (envelope or through-point).
    The offset solves inside each envelope slope call are not counted.
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


def _offsets(arr: np.ndarray, theta: float) -> np.ndarray:
    return arr[:, 0] * math.cos(theta) + arr[:, 1] * math.sin(theta)


def best_offset_for_direction(points, theta: float, p) -> tuple[float, float]:
    """Optimal signed offset and value for a fixed direction.

    ``c -> sum |c - a_j|^p`` is convex for p >= 1; golden-section over
    ``[min a_j, max a_j]`` converges.  Because value comparisons saturate at
    sqrt(eps) resolution near a flat minimum, the result is polished by
    bisecting the sign of the (monotone) derivative.  For p = 1 the exact
    answer is a median of the offsets.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf:
        raise ValueError("use exact solver")
    arr = _as_xy(points)
    if len(arr) == 0:
        raise ValueError("empty input")
    a = np.sort(_offsets(arr, theta))
    pv = pn.value
    if pv == 1.0:
        c = float(a[(len(a) - 1) // 2])
        return c, float(_power_sum(c - a, 1.0))
    lo, hi = float(a[0]), float(a[-1])
    if lo == hi:
        return lo, 0.0
    f = lambda c: float(_power_sum(c - a, pv))
    c, value = golden_section(f, lo, hi, tol=1e-9 * (1.0 + hi - lo))
    # the slope in c over p, monotone in c
    slope = lambda c: float(_slope_sum(c - a, pv))
    width = 1e-6 * (hi - lo)
    b_lo, b_hi = max(c - width, lo), min(c + width, hi)
    if not (slope(b_lo) < 0.0 < slope(b_hi)):
        b_lo, b_hi = lo, hi
    c = bisect_sign(slope, b_lo, b_hi, 80, width=1e-15 * (1.0 + hi - lo))
    return c, f(c)


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _scan_values(arr: np.ndarray, thetas: np.ndarray, pv: float,
                 iters: int, counter: _Counter) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section over c, run for every theta in parallel."""
    a = arr @ np.stack([np.cos(thetas), np.sin(thetas)])  # (m, T)
    lo = a.min(axis=0)
    hi = a.max(axis=0)

    def fvec(c):
        counter.n += len(thetas)
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
        carried_f1 = f2
        carried_f2 = f1
        xq = np.where(keep_low, new_x1, new_x2)
        fq = fvec(xq)
        f1 = np.where(keep_low, fq, carried_f1)
        f2 = np.where(keep_low, carried_f2, fq)
        x1, x2 = new_x1, new_x2
    best_first = f1 <= f2
    c = np.where(best_first, x1, x2)
    values = np.where(best_first, f1, f2)
    return c, values


def minimize(points, p) -> SolveReport:
    """Global line minimization for finite p in (1, inf).

    Scans ``theta`` over [0, pi), keeps the best well-separated starts, refines
    each by golden-section over theta (inner offset solved per evaluation), and
    returns all distinct refined minimizers tying with the best value.  A wide
    spread of near-optimal directions marks a one-parameter optimal family.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf or pn.value <= 1.0:
        raise ValueError("use exact solver")
    arr = _check_points(points)
    pv = pn.value
    counter = _Counter()

    thetas = np.arange(_THETA_SAMPLES) * (math.pi / _THETA_SAMPLES)
    _, scan_values = _scan_values(arr, thetas, pv, _REFINE_ITERS, counter)

    # multistart selection: best scan values, separated in theta
    order = np.argsort(scan_values, kind="stable")
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

    def profile(theta: float) -> float:
        a = np.sort(_offsets(arr, theta))
        lo, hi = float(a[0]), float(a[-1])
        if lo == hi:
            return 0.0

        def f(c):
            counter.n += 1
            return float(_power_sum(c - a, pv))

        _, value = golden_section(f, lo, hi, tol=_C_TOL * (1.0 + hi - lo),
                                  max_iters=2 * _REFINE_ITERS)
        return value

    def profile_slope(theta: float) -> float:
        # envelope derivative: df/dtheta at the inner-optimal offset
        c, _ = best_offset_for_direction(arr, theta, pn)
        counter.n += 1
        return objective_gradient(arr, UnitLine(theta, c), pn)[0]

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

    step = math.pi / _THETA_SAMPLES
    refined: list[tuple[float, UnitLine]] = []
    for idx in starts:
        th0 = thetas[idx]
        theta_golden, _ = golden_section(profile, th0 - step, th0 + step,
                                         tol=1e-14, max_iters=_REFINE_ITERS)
        # value-based search stalls at sqrt(eps) near the minimum; bisecting
        # the slope sign recovers full precision in theta (near p = 1 the
        # narrow bracket can miss the sign change, so retry at the scan step,
        # where sign bisection handles even quasi-kinked minima)
        candidates = [theta_golden]
        for width in (1e-5, step):
            t_lo, t_hi = theta_golden - width, theta_golden + width
            if profile_slope(t_lo) < 0.0 < profile_slope(t_hi):
                candidates.append(bisect_sign(profile_slope, t_lo, t_hi, 60))
                break
        value = math.inf
        theta_star = c_star = None
        for th in candidates:
            c_th, v_th = best_offset_for_direction(arr, th, pn)
            if v_th < value:
                theta_star, c_star, value = th, c_th, v_th
        if theta_star is None:
            raise ValueError(f"objective overflows float at p = {pv!r}: "
                             "no refined direction has a finite value")
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

    # family detection: how many well-separated scan arcs already tie the optimum
    arcs = np.minimum((thetas / MIN_THETA_SEPARATION).astype(int), 35)
    arc_best = np.full(36, math.inf)
    np.minimum.at(arc_best, arcs, scan_values)
    near = int(np.sum(arc_best <= best + _DEGENERATE_RTOL * (1.0 + abs(best))))
    degenerate = near >= _DEGENERATE_ARCS

    residual = max(abs(first_order_residual(arr, g, pn)) for g in lines)
    return SolveReport(
        optimal=OptimalSet(best, tuple(lines), (), degenerate=degenerate),
        stationarity_residual=residual,
        evaluations=counter.n,
    )


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
    a = _offsets(arr, g.theta)
    resid = g.c - a
    da_dtheta = arr[:, 0] * (-math.sin(g.theta)) + arr[:, 1] * math.cos(g.theta)
    df_dc = pv * float(_slope_sum(resid, pv))
    df_dtheta = pv * float(_slope_sum(resid, pv, -da_dtheta))
    return df_dtheta, df_dc
