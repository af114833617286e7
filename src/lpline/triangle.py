"""Complete analytic solution for the unit equilateral triangle.

Candidate optimal lines reduce, by the triangle's symmetry, to lines through
``(0, x)`` and ``(1/2, x + y)`` with reduced coordinates constrained to
``M = {0 <= y <= x <= sqrt(3)/4}``.  In those coordinates the finite-p
objective has the closed form

    f(x, y) = (1 + 4 y^2)^(-p/2) * ((x - y)^p + (x + y)^p + (sqrt(3)/2 - x)^p)

and the optimal set undergoes phase transitions at p = 4/3 and p = 2:

* side-parallel lines at offset ``x0(p)`` for 1 <= p < 4/3 and 2 < p <= inf,
* the three perpendicular bisectors for 4/3 < p < 2,
* one-parameter families exactly at p = 2 (all lines through the centroid)
  and at p = 4/3 (a curve ``x(y)`` in reduced coordinates).

The interior critical-point analysis substitutes ``b = 1/(p - 1)`` and
``t = 2 sqrt(3) y``; interior critical points exist iff the map
:func:`stationarity_gap` vanishes somewhere in (0, 1), which happens only for
b in {1, 3}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import PNorm, Point2, UnitLine, canonicalize, line_through, lines_close
from .exact import OptimalSet, PencilThroughPoint, ReducedCurve
from .numeric import solve

__all__ = [
    "SQRT3",
    "ReducedPoint",
    "TrianglePhase",
    "canonical_triangle",
    "centroid",
    "reduced_to_line",
    "reduced_objective",
    "reduced_gradient",
    "critical_x_of_y",
    "stationarity_gap",
    "family_indicator",
    "regime_indicator",
    "side_parallel_offset",
    "side_parallel_value",
    "triangle_min_value",
    "classify_phase",
    "bisect_sign",
    "locate_transitions",
    "family_member",
    "symmetry_orbit",
    "triangle_optimal_set",
]

SQRT3 = math.sqrt(3.0)
_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)
_X_MAX = SQRT3 / 4.0
_Y_FAMILY_MAX = SQRT3 / 6.0
_MEMBER_TOL = 1e-12  # slack of the membership tests in M and on a family
_SCAN_STEPS = 512  # grid of locate_transitions before bisection
_TRANSITION_WIDTH = 1e-12
_ORBIT_ATOL = 1e-9


@dataclass(frozen=True)
class ReducedPoint:
    """Reduced line coordinates; membership in M means 0 <= y <= x <= sqrt(3)/4."""

    x: float
    y: float

    def in_domain(self) -> bool:
        tol = _MEMBER_TOL
        return (-tol <= self.y <= self.x + tol) and (self.x <= _X_MAX + tol)


class TrianglePhase(enum.Enum):
    """Qualitative shape of the optimal set as a function of p."""

    PARALLEL = "parallel"      # 1 <= p < 4/3 or 2 < p <= inf: three side-parallel lines
    BISECTOR = "bisector"      # 4/3 < p < 2: three perpendicular bisectors
    FAMILY_P2 = "family-p2"    # p = 2: pencil through the centroid
    FAMILY_P43 = "family-p43"  # p = 4/3: one-parameter reduced curve


def canonical_triangle() -> tuple[Point2, Point2, Point2]:
    """Vertices (-1/2, 0), (1/2, 0), (0, sqrt(3)/2); side length 1."""
    return Point2(-0.5, 0.0), Point2(0.5, 0.0), Point2(0.0, SQRT3 / 2.0)


def centroid() -> Point2:
    return Point2(0.0, SQRT3 / 6.0)


def reduced_to_line(r: ReducedPoint) -> UnitLine:
    """Line through ``(0, x)`` and ``(1/2, x + y)``: normal (-2y, 1) normalized."""
    scale = 1.0 / math.sqrt(1.0 + 4.0 * r.y * r.y)
    theta = math.atan2(1.0, -2.0 * r.y)
    return canonicalize(UnitLine(theta, r.x * scale))


def _check_p_finite(p) -> float:
    pn = PNorm.coerce(p)
    if pn.is_inf:
        raise ValueError("finite p required")
    return pn.value


def reduced_objective(r: ReducedPoint, p) -> float:
    """The finite-p objective in reduced coordinates."""
    pv = _check_p_finite(p)
    if not r.in_domain():
        raise ValueError("reduced point outside domain")
    w = (1.0 + 4.0 * r.y * r.y) ** (-pv / 2.0)
    return w * ((r.x - r.y) ** pv + (r.x + r.y) ** pv + (SQRT3 / 2.0 - r.x) ** pv)


def reduced_gradient(r: ReducedPoint, p) -> tuple[float, float]:
    """Partial derivatives (f_x, f_y) of the reduced objective, interior only.
    Kept as a step of the paper's derivation: interior critical points are its zeros."""
    pv = _check_p_finite(p)
    if not (0.0 < r.y < r.x < _X_MAX):
        raise ValueError("interior only")
    x, y = r.x, r.y
    w = (1.0 + 4.0 * y * y) ** (-pv / 2.0)
    q = pv - 1.0
    fx = pv * w * ((x - y) ** q + (x + y) ** q - (SQRT3 / 2.0 - x) ** q)
    fy = (
        -4.0 * pv * y * (1.0 + 4.0 * y * y) ** (-pv / 2.0 - 1.0)
        * ((x - y) ** pv + (x + y) ** pv + (SQRT3 / 2.0 - x) ** pv)
        + pv * w * ((x + y) ** q - (x - y) ** q)
    )
    return fx, fy


def critical_x_of_y(y: float, b: float) -> float:
    """The x-coordinate at which f_y vanishes for given y, as a function of b.

    ``x = y * (u^b + v^b) / (u^b - v^b)`` with ``u = 1 + 2 sqrt(3) y`` and
    ``v = 1 - 2 sqrt(3) y``; defined for 0 < y < sqrt(3)/6.
    Kept as a step of the paper's derivation: at this x, f_x = 0 becomes stationarity_gap = 0.
    """
    if not (0.0 < y < _Y_FAMILY_MAX):
        raise ValueError("y must lie in (0, sqrt(3)/6)")
    t = 2.0 * SQRT3 * y
    up = (1.0 + t) ** b
    um = (1.0 - t) ** b
    return y * (up + um) / (up - um)


def stationarity_gap(t, b: float):
    """Residual of the interior critical-point condition in t = 2*sqrt(3)*y.

    ``2^(b+1) t + 3((1-t)^b - (1+t)^b) + t((1+t)^b + (1-t)^b)``; it vanishes
    identically iff b is 1 or 3, and is exactly zero at t = 0 and t = 1 for
    every b > 0 (the grouping below keeps those endpoint zeros exact in
    floating point).  Accepts scalars or arrays of t.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    if not b > 0.0:
        raise ValueError("b must be > 0")
    two_b = np.float64(2.0) ** b
    up = (1.0 + arr) ** b
    um = (1.0 - arr) ** b
    out = arr * (2.0 * two_b + up + um) - 3.0 * (up - um)
    if arr.ndim == 0:
        return float(out)
    return out


def family_indicator(b: float) -> float:
    """``2^b - 3b + 1``: half the limit of stationarity_gap(t, b) / t at t = 0.

    Its zeros b in {1, 3} mark the exponents with degenerate optimal families
    (p = 2 and p = 4/3); elsewhere its sign is the sign of that quotient on
    all of (0, 1).  The function is convex in b.
    """
    try:
        return 2.0 ** b - 3.0 * b + 1.0
    except OverflowError:
        return math.inf


def regime_indicator(b: float) -> float:
    """``1 + 2^b - 3^((b+1)/2)``: compares the two boundary minima.

    Positive iff the side-parallel optimum beats the bisector one, i.e. for
    b in (0, 1) or b > 3 (p > 2 or p < 4/3); zero exactly at the phase
    transitions b in {1, 3}.
    """
    try:
        return 1.0 + 2.0 ** b - 3.0 ** ((b + 1.0) / 2.0)
    except OverflowError:
        # 2^b outgrows 3^((b+1)/2) once b exceeds log(3)/(2 log 2 - log 3) < 4,
        # so an overflowing b is deep in the positive regime
        return math.inf


def _log1p_2pow(b: float) -> float:
    """log(1 + 2^b), stable for large b."""
    z = b * _LOG2
    if z > 40.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _side_parallel(pv: float) -> tuple[float, float]:
    """Offset and value of the optimal side-parallel line at a finite p > 1,
    from one b = 1/(p - 1) and one log(1 + 2^b)."""
    b = 1.0 / (pv - 1.0)
    log_sum = _log1p_2pow(b)
    x0 = SQRT3 / 2.0 * math.exp(-log_sum)
    log_value = pv * 0.5 * _LOG3 - (pv - 1.0) * (_LOG2 + log_sum)
    return x0, math.exp(log_value)


def side_parallel_offset(p) -> float:
    """Distance x0 = sqrt(3) / (2 (2^b + 1)) of the optimal side-parallel line.

    Evaluated in the log domain so that p near 1 underflows to 0 gracefully
    instead of overflowing 2^b.
    """
    pv = _check_p_finite(p)
    if pv <= 1.0:
        raise ValueError("p must be > 1 (the limit toward 1 is 0)")
    return _side_parallel(pv)[0]


def side_parallel_value(p) -> float:
    """Objective value sqrt(3)^p / (2^(p-1) (1 + 2^b)^(p-1)) at the offset x0.

    Log-domain evaluation; the limit toward p = 1 is sqrt(3)/2.  For large p
    the value itself tends to 0 while its p-th root tends to sqrt(3)/4 (the
    max-norm optimum).
    """
    pv = _check_p_finite(p)
    if pv <= 1.0:
        raise ValueError("p must be > 1")
    return _side_parallel(pv)[1]


def classify_phase(p) -> TrianglePhase:
    """Which qualitative optimal set holds at p; boundaries are sharp.

    Rational exponents (including those parsed from text like ``"4/3"``)
    compare exactly against 4/3 and 2; plain floats compare with zero
    tolerance.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf:
        return TrianglePhase.PARALLEL
    if pn.exact is not None:
        q = pn.exact
        if q == 2:
            return TrianglePhase.FAMILY_P2
        if q == Fraction(4, 3):
            return TrianglePhase.FAMILY_P43
        if Fraction(4, 3) < q < 2:
            return TrianglePhase.BISECTOR
        return TrianglePhase.PARALLEL
    return _float_phase(pn.value)


def _float_phase(v: float) -> TrianglePhase:
    """:func:`classify_phase` of a float exponent v in [1, inf]."""
    if v == 2.0:
        return TrianglePhase.FAMILY_P2
    if v == 4.0 / 3.0:
        return TrianglePhase.FAMILY_P43
    if 4.0 / 3.0 < v < 2.0:
        return TrianglePhase.BISECTOR
    return TrianglePhase.PARALLEL


def _value_offset(phase: TrianglePhase, v: float) -> tuple[float, float | None]:
    """``triangle_min_value`` and ``side_parallel_offset`` at a float exponent
    v in [1, inf] of the given phase (the offset None at v = 1 and v = inf),
    from one b and one log(1 + 2^b)."""
    if v == math.inf:
        return SQRT3 / 4.0, None
    if v == 1.0:
        return SQRT3 / 2.0, None
    x0, side_value = _side_parallel(v)
    if phase is TrianglePhase.PARALLEL:
        return side_value, x0
    # the bisectors and both families share the bisector value
    return 2.0 ** (1.0 - v), x0


def triangle_min_value(p) -> float:
    """Global minimum of the objective over all lines, for any p in [1, inf]."""
    pn = PNorm.coerce(p)
    return _value_offset(classify_phase(pn), pn.value)[0]


def _indicator_at_p(p: float) -> float:
    return regime_indicator(1.0 / (p - 1.0))


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


def locate_transitions(p_min: float, p_max: float) -> list[float]:
    """Phase-transition exponents in (p_min, p_max), found by bisecting the
    sign changes of the boundary-comparison indicator."""
    lo = max(p_min, 1.0 + 1e-9)
    if p_max <= lo:
        return []
    ps = [lo + (p_max - lo) * k / _SCAN_STEPS for k in range(_SCAN_STEPS + 1)]
    values = [_indicator_at_p(p) for p in ps]
    found = []
    for (p1, v1), (p2, v2) in zip(zip(ps, values), zip(ps[1:], values[1:])):
        if v1 == 0.0:
            found.append(p1)
            continue
        if v1 * v2 < 0.0:
            # orient the indicator negative at p1; the width test ends the
            # search, and the cap ends it only for a width below float spacing
            sign = math.copysign(1.0, v1)
            found.append(bisect_sign(lambda p: -sign * _indicator_at_p(p),
                                     p1, p2, 200, _TRANSITION_WIDTH))
    if values[-1] == 0.0:
        found.append(ps[-1])
    return found


def family_member(p, y: float) -> ReducedPoint:
    """Reduced point of the optimal family at p = 2 or p = 4/3.

    * p = 2: ``(sqrt(3)/6, y)`` (all lines through the centroid);
    * p = 4/3: ``x(y) = (1 + 36 y^2) / (6 sqrt(3) (1 + 4 y^2))``, strictly
      increasing in y.
    """
    if not (-_MEMBER_TOL <= y <= _Y_FAMILY_MAX + _MEMBER_TOL):
        raise ValueError("y must lie in [0, sqrt(3)/6]")
    y = min(max(y, 0.0), _Y_FAMILY_MAX)
    phase = classify_phase(p)
    if phase is TrianglePhase.FAMILY_P2:
        return ReducedPoint(SQRT3 / 6.0, y)
    if phase is TrianglePhase.FAMILY_P43:
        x = (1.0 + 36.0 * y * y) / (6.0 * SQRT3 * (1.0 + 4.0 * y * y))
        return ReducedPoint(x, y)
    raise ValueError("families exist only at p = 2 and p = 4/3")


def _symmetry_maps():
    """The six isometries of the canonical triangle as point maps."""
    cx, cy = 0.0, SQRT3 / 6.0
    maps = []
    for k in range(3):
        ang = 2.0 * math.pi * k / 3.0
        cos_a, sin_a = math.cos(ang), math.sin(ang)
        for flip in (1.0, -1.0):
            def apply(q, cos_a=cos_a, sin_a=sin_a, flip=flip):
                x, y = q[0] * flip - cx * flip, q[1] - cy
                return (cos_a * x - sin_a * y + cx, sin_a * x + cos_a * y + cy)
            maps.append(apply)
    return maps


_SYMMETRY_MAPS = _symmetry_maps()


def symmetry_orbit(g: UnitLine) -> list[UnitLine]:
    """Orbit of a line under the triangle's dihedral group, deduplicated."""
    nx, ny = g.normal()
    dx, dy = g.direction()
    p0 = (g.c * nx, g.c * ny)
    p1 = (p0[0] + dx, p0[1] + dy)
    orbit: list[UnitLine] = []
    for mapping in _SYMMETRY_MAPS:
        image = line_through(mapping(p0), mapping(p1))
        if not any(lines_close(image, h, _ORBIT_ATOL) for h in orbit):
            orbit.append(image)
    return sorted(orbit, key=lambda h: (h.theta, h.c))


def triangle_optimal_set(p) -> OptimalSet:
    """The full optimal set for the canonical triangle at any p in [1, inf]."""
    pn = PNorm.coerce(p)
    if pn.is_inf or pn.value == 1.0:
        return solve(canonical_triangle(), pn)
    phase = classify_phase(pn)
    value = triangle_min_value(pn)
    if phase is TrianglePhase.PARALLEL:
        seed = reduced_to_line(ReducedPoint(side_parallel_offset(pn), 0.0))
        return OptimalSet(value, tuple(symmetry_orbit(seed)))
    if phase is TrianglePhase.BISECTOR:
        seed = reduced_to_line(ReducedPoint(SQRT3 / 6.0, SQRT3 / 6.0))
        return OptimalSet(value, tuple(symmetry_orbit(seed)))
    if phase is TrianglePhase.FAMILY_P2:
        return OptimalSet(value, (), (PencilThroughPoint(centroid()),), degenerate=True)
    curve = ReducedCurve(4.0 / 3.0, (0.0, _Y_FAMILY_MAX), "critical-offset")
    return OptimalSet(value, (), (curve,), degenerate=True)
