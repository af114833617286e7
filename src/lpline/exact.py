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
    line_through,
    lines_close,
    _as_xy,
    _eps_zero,
    _offsets,
    _power_sum,
)

__all__ = [
    "DegenerateInputError",
    "PencilThroughPoint",
    "ParallelStrip",
    "ReducedCurve",
    "EveryDirection",
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
# offsets scored at once by solve_p1 and solve_pinf
_PAIR_BLOCK = 1 << 16


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


@dataclass(frozen=True)
class EveryDirection:
    """An optimal line in every direction, within 8 beta over all of [0, pi) (a flat
    :func:`~lpline.numeric.minimize` scan; a family covering only part of it is not flat):
    each theta's line of offset ``best_offset_for_direction(points, theta, p)``.  Not an
    exact family: orbits flat at float resolution (21-, 25-gons, p = 19.5) read so too."""

    p: float


FamilyDescriptor = Union[PencilThroughPoint, ParallelStrip, ReducedCurve, EveryDirection]


@dataclass(frozen=True)
class OptimalSet:
    """Minimal objective value plus the optimal lines and/or line families."""

    min_value: float
    lines: tuple[UnitLine, ...] = ()
    families: tuple[FamilyDescriptor, ...] = ()
    degenerate: bool = False


def _check_points(points) -> np.ndarray:
    arr = _as_xy(points)
    if len(arr) < 2:
        raise DegenerateInputError("degenerate point set")
    spread = np.max(arr, axis=0) - np.min(arr, axis=0)
    if float(np.max(spread)) == 0.0:
        raise DegenerateInputError("degenerate point set")
    return arr


def _ties(candidates: list[tuple[float, UnitLine]], tol: float,
          atol: float = 1e-9) -> tuple[float, list[UnitLine]]:
    """The best value and the distinct lines within ``tol`` of it, sorted by
    (theta, c).  The closed forms pass ``_TIE_RTOL (1 + |best|)``, and
    :func:`~lpline.numeric.minimize` 8 beta: "indistinguishable at the input's resolution".

    Candidates are taken in the given order; a tying line within ``atol`` of
    one already kept is dropped.
    """
    best = min(v for v, _ in candidates)
    kept: list[UnitLine] = []
    for v, g in candidates:
        if v <= best + tol and not any(lines_close(g, h, atol) for h in kept):
            kept.append(g)
    return best, sorted(kept, key=lambda g: (g.theta, g.c))


def solve_p1(points) -> OptimalSet:
    """Minimize the sum of distances over the lines through point pairs, scored
    as arrays ``_PAIR_BLOCK`` offsets at a time; the pairs whose scores can tie
    the best become lines, in pair order, with exact values for :func:`_ties`."""
    arr = _check_points(points)
    eps = _eps_zero(arr)
    first, second = np.triu_indices(len(arr), 1)
    d = arr[second] - arr[first]
    norm = np.hypot(d[:, 0], d[:, 1])
    keep = norm != 0.0
    first, second, d, norm = first[keep], second[keep], d[keep], norm[keep]
    nx, ny = -d[:, 1] / norm, d[:, 0] / norm
    c, scores = _offsets(arr[first], nx, ny), np.empty_like(nx)
    size = max(1, _PAIR_BLOCK // len(arr))
    for k in range(0, len(nx), size):
        offsets = _offsets(arr, nx[k:k + size, None], ny[k:k + size, None])
        scores[k:k + size] = np.abs(c[k:k + size, None] - offsets).sum(axis=1)
    # |score - exact value| < delta: the rounding of the normal, offsets and sum
    best = float(scores.min())
    delta = 32.0 * np.finfo(float).eps * len(arr) * (float(np.max(np.abs(arr).sum(axis=1))) + best)
    limit = best + 2.0 * delta + _TIE_RTOL * (1.0 + best + delta)
    near = scores <= limit if math.isfinite(limit) else np.ones(scores.shape, bool)

    candidates: list[tuple[float, UnitLine]] = []
    for i, j in zip(first[near].tolist(), second[near].tolist()):
        g = line_through(arr[i], arr[j])
        candidates.append((float(_power_sum(g.c - _offsets(arr, *g.normal()), 1.0)), g))
    best = min(v for v, _ in candidates)
    best, lines = _ties(candidates, _TIE_RTOL * (1.0 + abs(best)))

    families: list[FamilyDescriptor] = []
    for g1, g2 in combinations(lines, 2):
        dt = abs(g1.theta - g2.theta)
        if min(dt, abs(dt - math.pi)) > 1e-9:
            continue
        c1, c2 = g1.c, (g2.c if dt < 1.0 else -g2.c)
        offsets = _offsets(arr, *g1.normal())
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
    its value is half the offset spread.  The pairs are scored as arrays,
    ``_PAIR_BLOCK`` offsets at a time, and only the candidates that can tie
    the best become lines, in pair order, for :func:`_ties`.
    """
    arr = _check_points(points)
    first, second = np.triu_indices(len(arr), 1)
    d = arr[second] - arr[first]
    norm = np.array([math.hypot(dx, dy) for dx, dy in d.tolist()])
    d, norm = d[norm != 0.0], norm[norm != 0.0]
    nx, ny = -d[:, 1] / norm, d[:, 0] / norm
    lo, hi = np.empty_like(nx), np.empty_like(nx)
    size = max(1, _PAIR_BLOCK // len(arr))
    for k in range(0, len(nx), size):
        offsets = _offsets(arr, nx[k:k + size, None], ny[k:k + size, None])
        lo[k:k + size], hi[k:k + size] = offsets.min(axis=1), offsets.max(axis=1)
    values, mids = 0.5 * (hi - lo), 0.5 * (lo + hi)
    best = min(values.tolist())
    tol = _TIE_RTOL * (1.0 + abs(best))
    near = (values <= best + tol) | math.isnan(best)
    best, lines = _ties([(v, canonicalize(UnitLine(math.atan2(y, x), c))) for v, x, y, c
                         in zip(*(u[near].tolist() for u in (values, nx, ny, mids)))], tol)
    return OptimalSet(best, tuple(lines))
