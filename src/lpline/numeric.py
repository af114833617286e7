"""General-p line minimization (1 < p < inf).

The objective ``f(theta, c) = sum_j |c - a_j(theta)|^p`` with
``a_j(theta) = <n(theta), p_j>`` is convex in ``c`` for every fixed direction.
The outer problem over ``theta`` is non-convex, and symmetric inputs have
whole orbits of global minimizers (2n lines for some regular n-gons).  A
dense scan of ``theta`` brackets every local minimum of the profile
``theta -> min_c f``, all of them refined at once on the profile's slope.
One lane-parallel safeguarded Newton kernel, :func:`_newton_lanes`, finds
every root: each refined theta, and by :func:`_offset_roots` every c*(theta).
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
    _offsets,
    _power_sum,
    _power_terms,
    _slope_sum,
)
from .exact import (EveryDirection, OptimalSet, _EPS, _ROUNDING, _check_points, _resolution,
                    _tie_bound, _ties, solve_p1, solve_p2, solve_pinf)

__all__ = [
    "SolveReport",
    "golden_section",
    "best_offset_for_direction",
    "minimize",
    "solve",
    "objective_gradient",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# theta scan: lanes over [0, pi)
_THETA_SAMPLES = 720
# scan start: the mean offset (the root at p = 2) up to this p, the midrange
# (the root as p -> inf) above
_MEAN_START_P = 4.0
# for p < 2 a scan lane linearizes the slope term of its nearest offset when
# that term carries more than this share of the curvature
_KINK_SHARE = 0.25
# cap on the evaluations of one safeguarded Newton search
_NEWTON_ITERS = 100


@dataclass(frozen=True)
class SolveReport:
    """Solver result plus diagnostics.  Tied lines, and a family
    (``optimal.degenerate``), mean "indistinguishable at the input's
    resolution" (8 beta, :func:`minimize`).

    ``stationarity_residual`` is the worst first-order offset defect over the
    returned lines (a family's best scan lane), in the centred copy that
    :func:`minimize` solves (scaled when its sums overflow).  It vanishes (within
    ~1e-7 of the value scale) at regular optima; when p is very close to 1 and
    the optimum continues into a line through two points, the balancing terms
    sit below float resolution and the reported defect stays O(1) though exact.

    ``evaluations`` counts one per lane and round of every Newton search: the
    scan's offsets, the refinement's theta (a lane stops at its slope's
    rounding bound) and its offsets, and the final offsets.
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


def best_offset_for_direction(points, theta: float, p) -> tuple[float, float]:
    """Optimal signed offset and value for a fixed direction.

    For p > 1, ``c -> sum |c - a_j|^p`` is strictly convex; its optimum is
    the root of its slope, from :func:`_offset_roots` on one lane started at
    the mean offset, to float resolution.  A value that overflows is inf,
    with no numpy warning.  For p = 1 the exact answer is a median offset.
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
    a = a[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = _offset_roots(a, pv, a.mean(axis=0), _NEWTON_ITERS, _Counter())
        return float(c[0]), float(_power_sum(c - a, pv)[0])


@dataclass
class _Counter:
    n: int = 0


def _newton_lanes(fd, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, iters: int,
                  counter: _Counter, *aux: np.ndarray) -> np.ndarray:
    """The root of an increasing function on each lane, between ``lo``
    (f < 0) and ``hi`` (f > 0), by safeguarded Newton (``rtsafe``) from ``x``.
    ``fd(x, *aux)`` returns (f, f's rounding bound or 0, Newton iterate, *aux)
    on the running lanes, ``aux`` being per-lane arrays (lanes last).  A lane
    takes its iterate only inside its sign bracket and at most half the step
    before last, else bisects.  It stops where |f| <= bound (on an exact 0 for
    bound 0), when its bracket is within eps times its larger end or its step
    within twice that (a step at rounding noise would creep an ulp at a
    time), or after ``iters`` rounds, adding one per running lane and round
    to ``counter``."""
    out, lane = x.copy(), np.arange(x.size)
    tol = _EPS * np.maximum(np.abs(lo), np.abs(hi))
    last = before = hi - lo
    done = before <= tol
    for _ in range(iters):
        if done.all():
            break
        if done.any():
            out[lane[done]] = x[done]
            run = ~done
            lane, lo, hi, x, tol, last, before = (
                v[run] for v in (lane, lo, hi, x, tol, last, before))
            aux = [v[..., run] for v in aux]
        counter.n += lane.size
        f, bound, new, *aux = fd(x, *aux)
        below = f < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        width = hi - lo
        step = np.abs(x - new)
        newton = (lo <= new) & (new <= hi) & (step <= 0.5 * before)
        before, last = last, np.where(newton, step, 0.5 * width)
        settled = np.abs(f) <= bound
        done = settled | (width <= tol) | (step <= 2.0 * tol)
        x = np.where(newton & ~settled, new, np.where(done, x, 0.5 * (lo + hi)))
    out[lane] = x
    return out


def _offset_roots(a: np.ndarray, pv: float, start: np.ndarray, iters: int,
                  counter: _Counter) -> np.ndarray:
    """c* on each lane (column) of the offsets ``a``: the root of the offset
    slope by :func:`_newton_lanes` in [min a, max a] from ``start``, on
    residuals divided by the largest one, so no sum overflows.  For p < 2,
    where the nearest offset's term carries over ``_KINK_SHARE`` of the
    curvature, the iterate is Newton's in u = sign(r)|r|^(p-1) of that
    residual r, in which that term is linear.  A round's sums come from one
    :func:`_power_terms` call; the caller sets np.errstate."""
    a_min, a_max = a.min(axis=0), a.max(axis=0)
    q = pv - 1.0

    def fd(x, off, a_lo, a_hi):
        w = 1.0 / np.maximum(x - a_lo, a_hi - x)
        r = (x - off) * w
        s, t = _power_terms(r, pv)
        f, curvature = s.sum(axis=0), t.sum(axis=0)
        new = x - f / (q * w * curvature)
        if pv < 2.0:
            cols = np.arange(x.size)
            near = np.argmin(np.abs(r), axis=0)
            r_near, share = r[near, cols], t[near, cols] / curvature
            kink = ~(share <= _KINK_SHARE)
            if kink.any():
                if not r_near.all():
                    # on an offset (t inf, share nan) du/df is 1 / (offsets there)
                    share = np.where(r_near == 0.0, 1.0 / np.maximum(
                        np.count_nonzero(r == 0.0, axis=0), 1), share)
                u = s[near, cols] - f * share
                new = np.where(kink, off[near, cols] + _slope_sum(u[None, :], 1.0 + 1.0 / q) / w,
                               new)
        return f, 0.0, new, off, a_lo, a_hi

    return _newton_lanes(fd, a_min, a_max, np.minimum(np.maximum(start, a_min), a_max), iters,
                         counter, a, a_min, a_max)


def _scan_values(arr: np.ndarray, thetas: np.ndarray, pv: float,
                 iters: int, counter: _Counter) -> tuple[np.ndarray, np.ndarray]:
    """(c*, sum |c* - a_j|^p) on every lane theta, from one
    :func:`_offset_roots` call of at most ``iters`` rounds started at the
    mean offset (the midrange above ``_MEAN_START_P``)."""
    a = arr @ np.stack([np.cos(thetas), np.sin(thetas)])  # (m, T)
    start = (a.mean(axis=0) if pv <= _MEAN_START_P
             else 0.5 * (a.min(axis=0) + a.max(axis=0)))
    # each lane's offsets contiguous, so that its sums run pairwise
    c = _offset_roots(np.asfortranarray(a), pv, start, iters, counter)
    return c, _power_sum(c - a, pv)


def minimize(points, p) -> SolveReport:
    """Global line minimization for finite p in (1, inf).

    Centres the points on their centroid once and solves there: scans
    ``theta`` over [0, pi), solving every lane's offset to float resolution,
    and refines every circular local minimum of the scan at once inside its
    lane's bracket (:func:`_refine`).  All distinct lines tying with the best
    value are returned, each mapped back once as (theta, c + <n(theta), centroid>);
    ``min_value`` is the value on the centred points.  Lines tie, and a scan
    is flat (its values spread over a positive, finite minimum), within
    ``_ROUNDING`` = 8 times beta (:func:`_tie_bound`), and tying lines are one
    within ``_SAME_LINE`` delta (:func:`~lpline.exact._ties`): "indistinguishable
    at the input's resolution".  A flat scan returns no lines, the best lane's
    value and one :class:`~lpline.exact.EveryDirection` family.  So orbits flat
    at float resolution read as families (the 21- and 25-gons at p = 19.5).

    If every refined direction overflows, the search reruns on the centred
    points times 2^-k, 2^k <= largest coordinate spread < 2^(k+1), which is
    exact; the back-map takes 2^k c, and ``min_value`` is taken unscaled.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf or pn.value <= 1.0:
        raise ValueError("use exact solver")
    arr = _check_points(points)
    centre = arr.mean(axis=0)
    delta = max(_resolution(arr), _resolution(arr - centre))
    arr = arr - centre
    counter, k = _Counter(), 0
    # sums far from the optimum may overflow to inf (or to nan, for a slope
    # with terms of both signs); they then lose every comparison, as they
    # should.  A zero residual makes a curvature term infinite for p < 2; the
    # Newton searches then bisect
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        found = _search(arr, pn, delta, counter)
        if found is None:
            k = math.frexp(float(np.max(np.ptp(arr, axis=0))))[1] - 1
            found = (_search(np.ldexp(arr, -k), pn, math.ldexp(delta, -k), counter)
                     if k > 0 else None)
            if found is not None:
                # a flat scan has no line to value on arr, whose lanes overflowed
                found = (min((lp_objective(arr, UnitLine(g.theta, math.ldexp(g.c, k)), pn)
                              for g in found[1]), default=math.inf), *found[1:])
    if found is None or math.isinf(found[0]):
        raise ValueError(f"objective overflows float at p = {pn.value!r}: "
                         "no refined direction has a finite value")
    best, lines, flat, residual = found
    lines = tuple(UnitLine(g.theta, math.ldexp(g.c, k) + float(centre @ g.normal()))
                  for g in lines)
    families = (EveryDirection(pn.value),) if flat else ()
    return SolveReport(OptimalSet(best, lines, families, degenerate=flat), residual, counter.n)


def _search(arr: np.ndarray, pn: PNorm, delta: float, counter: _Counter):
    """:func:`minimize` on ``arr``: (best, lines, flat, stationarity residual),
    or None if the refined direction of a start overflows.  A flat scan returns
    at once, with no lines: every lane's offset is solved to float resolution."""
    pv = pn.value

    thetas = np.arange(_THETA_SAMPLES) * (math.pi / _THETA_SAMPLES)
    scan_c, scan_values = _scan_values(arr, thetas, pv, _NEWTON_ITERS, counter)

    order = np.argsort(scan_values, kind="stable")
    i, lo = int(order[0]), float(scan_values[order[0]])
    g = UnitLine(thetas[i], scan_c[i])
    if 0.0 < lo < math.inf and float(scan_values.max()) - lo <= _tie_bound(arr, g, lo, pv, delta):
        return lo, [], True, abs(first_order_residual(arr, g, pn))

    # starts, best scan value first: every circular local minimum (the best lane if all equal)
    minimum = ((scan_values <= np.roll(scan_values, 1))
               & (scan_values < np.roll(scan_values, -1)))
    starts = order[minimum[order]].tolist() or [int(order[0])]

    theta_star, c_star, values = _refine(arr, pv, thetas, scan_c, starts, counter)
    if not np.all(values < math.inf):
        return None
    refined = [(value, canonicalize(UnitLine(theta, c)))
               for theta, c, value in zip(theta_star.tolist(), c_star.tolist(), values.tolist())]
    refined.sort(key=lambda t: t[0])
    best, lines = _ties(arr, refined, pv, delta)

    residual = max(abs(first_order_residual(arr, g, pn)) for g in lines)
    return best, lines, False, residual


def _profile_slopes(arr: np.ndarray, theta: np.ndarray, c: np.ndarray, pv: float,
                    pin: float, counter: _Counter):
    """(phi', bound, phi'', c*) of the profile phi = min_c f on each lane
    theta, with c* from :func:`_offset_roots` warm-started at ``c``.  Where
    c* sits within ``pin`` of a point q, f_c is not resolved, so they are the
    derivatives along the line through q (q's term eliminated), the
    search's only through-point path.  ``bound`` is the rounding of phi' =
    -p sum s_j b_j (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, 4.2); within it phi' has no sign, and Newton steps random-walk."""
    cos_t, sin_t = np.cos(theta)[:, None], np.sin(theta)[:, None]
    a = _offsets(arr, cos_t, sin_t).T  # (m, lanes), each lane contiguous
    b = _offsets(arr, -sin_t, cos_t).T
    c = _offset_roots(a, pv, c, _NEWTON_ITERS, counter)
    r = c - a
    s, t = _power_terms(r, pv)
    s0, s1, s2 = (v.sum(axis=0) for v in (t, t * b, t * (b * b)))
    sb = s * b
    curvature = pv * (pv - 1.0) * (s2 - s1 * (s1 / s0)) + pv * (s * a).sum(axis=0)
    cols, q = np.arange(theta.size), np.argmin(np.abs(r), axis=0)
    pinned = np.abs(r[q, cols]) <= pin
    if pinned.any():
        r, w = a[q, cols] - a, b[q, cols] - b
        s, t = _power_terms(r, pv)
        t[q, cols] = 0.0  # q's own term (r = w = 0) adds 0
        sb = np.where(pinned, -s * w, sb)
        curvature = np.where(pinned, pv * (pv - 1.0) * (t * (w * w)).sum(axis=0)
                             - pv * _power_sum(r, pv), curvature)
    slope, bound = -pv * sb.sum(axis=0), _ROUNDING * _EPS * pv * np.abs(sb).sum(axis=0)
    return slope, bound, curvature, c


def _refine(arr: np.ndarray, pv: float, thetas: np.ndarray, scan_c: np.ndarray,
            starts: list[int], counter: _Counter):
    """(theta*, c*, value) arrays for the start lanes of the scan: theta* is
    the root of the profile slope in the lane's bracket by :func:`_newton_lanes`
    on all starts at once, or the lane's theta when the slope keeps its sign
    there; c* and sum |c* - a_j|^p then come from one :func:`_offset_roots`
    call from the mean offset.  Each theta round's offsets are warm-started
    from its lane's last roots."""
    step = math.pi / len(thetas)
    pin = 1e-9 * float(np.max(np.ptp(arr, axis=0)))
    idx = np.asarray(starts)
    th0 = thetas[idx]

    # the bracket ends are the neighbouring scan lanes; lane -1 is lane 719,
    # and lane 720 lane 0, with the normal and so the offset negated
    side = np.concatenate([idx - 1, idx + 1])
    ends = np.concatenate([th0 - step, th0 + step])
    wrap = np.where((side < 0) | (side >= len(thetas)), -1.0, 1.0)
    counter.n += ends.size
    slope, *_ = _profile_slopes(arr, ends, wrap * scan_c[side % len(thetas)], pv, pin, counter)
    bracket = np.flatnonzero((slope[:idx.size] < 0.0) & (0.0 < slope[idx.size:]))

    c = scan_c[idx]  # each start's last root

    def fd(theta, ids):
        slope, bound, curvature, c[ids] = _profile_slopes(arr, theta, c[ids], pv, pin, counter)
        valid = (0.0 < curvature) & (curvature < math.inf)
        return slope, bound, np.where(valid, theta - slope / curvature, math.nan), ids

    theta, x = th0.copy(), th0[bracket]
    theta[bracket] = _newton_lanes(fd, x - step, x + step, x, _NEWTON_ITERS, counter, bracket)
    a = _offsets(arr, np.cos(theta)[:, None], np.sin(theta)[:, None]).T
    c = _offset_roots(a, pv, a.mean(axis=0), _NEWTON_ITERS, counter)
    return theta, c, _power_sum(c - a, pv)


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
    terms = _power_terms(g.c - _offsets(arr, *g.normal()), pv)[0]
    df_dc = pv * float(terms.sum())
    df_dtheta = pv * float((terms * -_offsets(arr, *g.direction())).sum())
    return df_dtheta, df_dc
