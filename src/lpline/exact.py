"""Closed-form optimal-line solvers for p = 1, 2 and infinity.

* p = 1: the optimum is attained at lines through at least two of the points;
  enumerate all point pairs.  When two minimizing pair-lines are parallel and
  no point lies strictly between them, every line in the strip is optimal.
* p = 2: the optimum passes through the centroid with normal along the
  eigenvector of the smallest eigenvalue of the scatter matrix.  An isotropic
  scatter (equal eigenvalues) makes every line through the centroid optimal.
* p = inf: the optimum is the mid-line of the minimal-width parallel strip;
  the width direction is realized by some point pair, so enumerate pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Union

import numpy as np

from .geometry import (
    Point2,
    UnitLine,
    canonicalize,
    default_eps_zero,
    line_through,
    lines_close,
    lp_objective,
    _as_xy,
)

__all__ = [
    "DegenerateInputError",
    "PencilThroughPoint",
    "ParallelStrip",
    "ReducedCurve",
    "FamilyDescriptor",
    "OptimalSet",
    "solve_p1",
    "solve_p2",
    "solve_pinf",
]

# relative tie tolerance when collecting equal-value minimizers
_TIE_RTOL = 1e-12
# relative eigenvalue-gap tolerance for declaring the scatter isotropic
TOL_ISO = 1e-9


class DegenerateInputError(ValueError):
    """Raised when a point set admits no well-posed line fit."""


@dataclass(frozen=True)
class PencilThroughPoint:
    """All lines containing a fixed point (the p = 2 isotropic family)."""

    center: Point2


@dataclass(frozen=True)
class ParallelStrip:
    """All lines between two parallel optimal lines (p = 1 ties)."""

    g1: UnitLine
    g2: UnitLine


@dataclass(frozen=True)
class ReducedCurve:
    """A one-parameter optimal family given by a named curve in reduced
    triangle coordinates, parametrized over ``y_range``."""

    p: float
    y_range: tuple[float, float]
    curve: str


FamilyDescriptor = Union[PencilThroughPoint, ParallelStrip, ReducedCurve]


@dataclass(frozen=True)
class OptimalSet:
    """Minimal objective value plus the optimal lines and/or line families."""

    min_value: float
    lines: tuple[UnitLine, ...] = ()
    families: tuple[FamilyDescriptor, ...] = ()
    degenerate: bool = False


def _check_points(points) -> np.ndarray:
    arr = _as_xy(points)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite coordinate")
    if len(arr) < 2:
        raise DegenerateInputError("degenerate point set")
    spread = np.max(arr, axis=0) - np.min(arr, axis=0)
    if float(np.max(spread)) == 0.0:
        raise DegenerateInputError("degenerate point set")
    return arr


def _ties(candidates: list[tuple[float, UnitLine]], rtol: float = _TIE_RTOL,
          atol: float = 1e-9) -> tuple[float, list[UnitLine]]:
    """The best value and the distinct lines tying with it within ``rtol``
    (relative to ``1 + |best|``), sorted by (theta, c).

    Candidates are taken in the given order; a tying line within ``atol`` of
    one already kept is dropped.
    """
    best = min(v for v, _ in candidates)
    tol = rtol * (1.0 + abs(best))
    kept: list[UnitLine] = []
    for v, g in candidates:
        if v <= best + tol and not any(lines_close(g, h, atol) for h in kept):
            kept.append(g)
    return best, sorted(kept, key=lambda g: (g.theta, g.c))


def solve_p1(points) -> OptimalSet:
    """Minimize the sum of distances: enumerate all lines through point pairs."""
    arr = _check_points(points)
    eps = default_eps_zero(arr)

    candidates: list[tuple[float, UnitLine]] = []
    for i, j in combinations(range(len(arr)), 2):
        if np.array_equal(arr[i], arr[j]):
            continue
        g = line_through(arr[i], arr[j])
        candidates.append((lp_objective(arr, g, 1.0), g))

    best, lines = _ties(candidates)

    families: list[FamilyDescriptor] = []
    for g1, g2 in combinations(lines, 2):
        dt = abs(g1.theta - g2.theta)
        if min(dt, abs(dt - math.pi)) > 1e-9:
            continue
        c1, c2 = g1.c, (g2.c if dt < 1.0 else -g2.c)
        nx, ny = g1.normal()
        offsets = arr[:, 0] * nx + arr[:, 1] * ny
        lo, hi = min(c1, c2), max(c1, c2)
        inside = np.any((offsets > lo + eps) & (offsets < hi - eps))
        if not inside:
            families.append(ParallelStrip(g1, g2))
    return OptimalSet(best, tuple(lines), tuple(families))


def _scatter(arr: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    centroid = arr.mean(axis=0)
    d = arr - centroid
    sxx = float(np.dot(d[:, 0], d[:, 0]))
    syy = float(np.dot(d[:, 1], d[:, 1]))
    sxy = float(np.dot(d[:, 0], d[:, 1]))
    return centroid, sxx, sxy, syy


def solve_p2(points) -> OptimalSet:
    """Minimize the sum of squared distances via the 2x2 scatter matrix.

    The closed-form eigenvalues of ``[[sxx, sxy], [sxy, syy]]`` are
    ``(tr -+ sqrt((sxx-syy)^2 + 4 sxy^2)) / 2``; the minimum of the objective
    equals the smaller one.
    """
    arr = _check_points(points)
    centroid, sxx, sxy, syy = _scatter(arr)
    tr = sxx + syy
    gap = math.hypot(sxx - syy, 2.0 * sxy)
    lam_min = max(0.5 * (tr - gap), 0.0)

    center = Point2(float(centroid[0]), float(centroid[1]))
    if gap <= TOL_ISO * tr:
        return OptimalSet(lam_min, (), (PencilThroughPoint(center),), degenerate=True)

    # eigenvector for lam_min; pick the better-conditioned formula
    lam = 0.5 * (tr - gap)
    v1 = (sxy, lam - sxx)
    v2 = (lam - syy, sxy)
    vx, vy = max(v1, v2, key=lambda v: v[0] * v[0] + v[1] * v[1])
    norm = math.hypot(vx, vy)
    nx, ny = vx / norm, vy / norm
    theta = math.atan2(ny, nx)
    c = nx * center.x + ny * center.y
    return OptimalSet(lam_min, (canonicalize(UnitLine(theta, c)),))


def solve_pinf(points) -> OptimalSet:
    """Minimize the maximal distance: the mid-line of the narrowest strip.

    For every point pair take the pair direction, compute the extreme signed
    offsets over all points, and place a candidate line at the middle offset;
    its value is half the offset spread.
    """
    arr = _check_points(points)

    candidates: list[tuple[float, UnitLine]] = []
    for i, j in combinations(range(len(arr)), 2):
        dx, dy = arr[j] - arr[i]
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            continue
        nx, ny = -dy / norm, dx / norm
        offsets = arr[:, 0] * nx + arr[:, 1] * ny
        lo, hi = float(np.min(offsets)), float(np.max(offsets))
        g = canonicalize(UnitLine(math.atan2(ny, nx), 0.5 * (lo + hi)))
        candidates.append((0.5 * (hi - lo), g))

    best, lines = _ties(candidates)
    return OptimalSet(best, tuple(lines))
