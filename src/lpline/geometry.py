"""Planar line/point primitives and the L^p distance objectives.

A line is stored in Hesse normal form: a unit normal at angle ``theta`` and a
signed offset ``c``, so the line is ``{q : <n(theta), q> = c}`` with
``n(theta) = (cos theta, sin theta)``.  The distance from a point ``q`` to the
line is ``|c - <n, q>|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Point2",
    "UnitLine",
    "PNorm",
    "SignPartition",
    "canonicalize",
    "line_through",
    "lines_close",
    "default_eps_zero",
    "distance_vector",
    "point_line_distance",
    "lp_objective",
    "lp_distance",
    "sign_partition",
    "first_order_residual",
]


@dataclass(frozen=True)
class Point2:
    """A point in the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite coordinate")

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class UnitLine:
    """Line in normal form: unit normal angle ``theta`` and signed offset ``c``."""

    theta: float
    c: float

    def normal(self) -> tuple[float, float]:
        return math.cos(self.theta), math.sin(self.theta)

    def direction(self) -> tuple[float, float]:
        return -math.sin(self.theta), math.cos(self.theta)


@dataclass(frozen=True)
class PNorm:
    """Exponent of the norm combining the point-line distances, p in [1, inf].

    ``value`` is ``math.inf`` for the max norm.  ``exact`` optionally carries
    the exponent as an exact rational (used to classify the sharp phase
    boundaries without floating-point ambiguity).
    """

    value: float
    exact: Fraction | None = None

    def __post_init__(self):
        if math.isnan(self.value) or self.value < 1.0:
            raise ValueError("p must be >= 1")
        if self.exact is not None and not math.isinf(self.value):
            if float(self.exact) != self.value:
                raise ValueError("exact exponent does not match value")

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @classmethod
    def infinity(cls) -> "PNorm":
        return cls(math.inf)

    @classmethod
    def coerce(cls, p) -> "PNorm":
        """Accept a PNorm, a number, a Fraction, or text like ``"2"``/``"4/3"``/``"inf"``."""
        if isinstance(p, PNorm):
            return p
        if isinstance(p, Fraction):
            return cls(float(p), exact=p)
        if isinstance(p, str):
            text = p.strip().lower()
            if text in ("inf", "infinity", "oo"):
                return cls.infinity()
            try:
                frac = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse p from {p!r}") from exc
            return cls(float(frac), exact=frac)
        value = float(p)
        if math.isinf(value):
            return cls.infinity()
        if isinstance(p, int) or value.is_integer():
            return cls(value, exact=Fraction(int(value)))
        return cls(value)


@dataclass(frozen=True)
class SignPartition:
    """Indices (0-based) of points above / on / below a line, by normal side."""

    j_plus: tuple[int, ...]
    j_zero: tuple[int, ...]
    j_minus: tuple[int, ...]


_WRAP_TOL = 1e-12


def canonicalize(g: UnitLine) -> UnitLine:
    """Return the canonical representative of ``g``: theta in [0, pi).

    Wrapping theta by multiples of pi flips the sign of ``c`` per flip, so the
    represented line set is unchanged exactly.  Near-vertical lines may
    legitimately land near either end of the interval; :func:`lines_close`
    compares across that wrap.
    """
    theta, c = g.theta, g.c
    k = math.floor(theta / math.pi)
    theta -= k * math.pi
    if k % 2:
        c = -c
    # rounding can leave theta a hair outside [0, pi); tiny magnitudes can even
    # land exactly on pi after the adjustment, so keep correcting
    while theta >= math.pi:
        theta -= math.pi
        c = -c
    while theta < 0.0:
        theta += math.pi
        c = -c
        if theta >= math.pi:
            theta -= math.pi
            c = -c
            break
    return UnitLine(theta, c)


def line_through(p: Point2 | Sequence[float], q: Point2 | Sequence[float]) -> UnitLine:
    """The canonical line through two distinct points."""
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("coincident points do not define a line")
    nx, ny = -dy / norm, dx / norm
    theta = math.atan2(ny, nx)
    c = nx * px + ny * py
    return canonicalize(UnitLine(theta, c))


def lines_close(g1: UnitLine, g2: UnitLine, atol: float = 1e-9) -> bool:
    """Whether two canonical lines describe the same line within ``atol``.

    Directions are compared modulo pi; when the angles sit on opposite ends of
    the wrap boundary the offset comparison flips sign (the c >= 0 tie rule for
    near-vertical lines lives here rather than in :func:`canonicalize`, which
    must preserve the line exactly).
    """
    a, b = canonicalize(g1), canonicalize(g2)
    dt = a.theta - b.theta
    if abs(dt) <= atol:
        return abs(a.c - b.c) <= atol
    if abs(abs(dt) - math.pi) <= atol:
        return abs(a.c + b.c) <= atol
    return False


def _as_xy(points) -> np.ndarray:
    """The points as an (m, 2) float array; an ndarray passes through uncopied
    when it is already a C-contiguous float array."""
    if isinstance(points, np.ndarray):
        arr = np.ascontiguousarray(points, dtype=float)
    else:
        pairs = [(p.x, p.y) if isinstance(p, Point2) else tuple(p) for p in points]
        if not pairs:
            return np.empty((0, 2))
        arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must be pairs of coordinates")
    return arr


def default_eps_zero(points) -> float:
    """Scale-aware membership tolerance: 1e-9 * (1 + max coordinate magnitude)."""
    arr = _as_xy(points)
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    return 1e-9 * (1.0 + scale)


def distance_vector(points, g: UnitLine) -> np.ndarray:
    """Distances ``|c - <n, p_j>|`` from each point to the line, in input order."""
    arr = _as_xy(points)
    nx, ny = g.normal()
    return np.abs(g.c - (arr[:, 0] * nx + arr[:, 1] * ny))


def point_line_distance(p: Point2 | Sequence[float], g: UnitLine) -> float:
    px, py = p
    nx, ny = g.normal()
    return abs(g.c - (nx * px + ny * py))


def _power_sum(r: np.ndarray, p: float) -> np.ndarray:
    """``sum |r|^p`` along axis 0: the objective at the residuals ``r``."""
    return np.add.reduce(np.abs(r) ** p, axis=0)


def _slope_sum(r: np.ndarray, p: float, weight=None) -> np.ndarray:
    """``sum sign(r) |r|^(p-1)`` along axis 0, each term times ``weight`` when
    one is given: the objective's slope in the residuals, divided by p."""
    terms = np.sign(r) * np.abs(r) ** (p - 1.0)
    if weight is not None:
        terms = terms * weight
    return np.add.reduce(terms, axis=0)


def lp_objective(points, g: UnitLine, p) -> float:
    """``sum d_j^p`` for finite p, ``max d_j`` for p = inf."""
    pn = PNorm.coerce(p)
    d = distance_vector(points, g)
    if d.size == 0:
        raise ValueError("empty input")
    if pn.is_inf:
        return float(np.max(d))
    return float(_power_sum(d, pn.value))


def lp_distance(points, g: UnitLine, p) -> float:
    """The L^p norm of the distance vector, ``(sum d_j^p)^(1/p)``."""
    pn = PNorm.coerce(p)
    value = lp_objective(points, g, pn)
    if pn.is_inf:
        return value
    return value ** (1.0 / pn.value)


def sign_partition(points, g: UnitLine) -> SignPartition:
    """Partition point indices by the sign of ``<n, p_j> - c``.

    Offsets within :func:`default_eps_zero` of the line go to ``j_zero``.
    """
    eps_zero = default_eps_zero(points)
    arr = _as_xy(points)
    nx, ny = g.normal()
    resid = arr[:, 0] * nx + arr[:, 1] * ny - g.c
    on = np.abs(resid) <= eps_zero
    above = resid > 0.0
    plus, zero, minus = (tuple(np.flatnonzero(mask).tolist())
                         for mask in (~on & above, on, ~on & ~above))
    return SignPartition(plus, zero, minus)


def first_order_residual(points, g: UnitLine, p) -> float:
    """Stationarity defect of the offset: ``sum_{J-} d^(p-1) - sum_{J+} d^(p-1)``.

    This equals ``(1/p) * df/dc``; it must vanish at any optimal line for
    finite p > 1.
    """
    pn = PNorm.coerce(p)
    if pn.is_inf or pn.value <= 1.0:
        raise ValueError("first-order residual requires finite p > 1")
    arr = _as_xy(points)
    part = sign_partition(arr, g)
    d = distance_vector(arr, g)
    q = pn.value - 1.0
    lo = sum(d[j] ** q for j in part.j_minus)
    hi = sum(d[j] ** q for j in part.j_plus)
    return float(lo - hi)
