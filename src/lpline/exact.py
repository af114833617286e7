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

_EPS = float(np.finfo(float).eps)
# ties, isotropy and minimize's theta stop and family test: within this many rounding bounds
_ROUNDING = 8.0
# two lines are one when every point's signed distances to them agree within this many delta
_SAME_LINE = 64.0
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


def _resolution(arr: np.ndarray) -> float:
    """delta = eps max |coordinate|: how far the input's own rounding may move a point."""
    return _EPS * float(np.abs(arr).max())


def _tie_bound(arr: np.ndarray, g: UnitLine | None, value: float, pv: float,
               delta: float) -> float:
    """``_ROUNDING`` beta for the line g of value sum |r_j|^p: beta = p delta
    sqrt(2) sum |r_j|^(p-1) + eps log2(m) sum |r_j|^p is the value's first-order
    change when every coordinate moves by delta, plus its pairwise sum's rounding
    (Higham 2002, 4.2); at p = inf, of a half-width, sqrt(2) delta + eps value (g unused)."""
    if pv == math.inf:
        return _ROUNDING * (math.sqrt(2.0) * delta + _EPS * value)
    s = float(_power_sum(g.c - _offsets(arr, *g.normal()), pv - 1.0))
    return _ROUNDING * (pv * delta * math.sqrt(2.0) * s + _EPS * math.log2(len(arr)) * value)


def _ties(arr: np.ndarray, candidates: list[tuple[float, UnitLine]], pv: float,
          delta: float) -> tuple[float, list[UnitLine]]:
    """The best value and the distinct lines within :func:`_tie_bound` of it (on the
    first best candidate), sorted by (theta, c).  Taken in order, each kept line drops
    every later tying line whose signed distances to the points agree with its own
    (oriented to match) within ``_SAME_LINE`` delta, in one array expression."""
    best, first = min(candidates, key=lambda t: t[0])
    bound = _tie_bound(arr, first, best, pv, delta)
    tying = [g for v, g in candidates if v <= best + bound]
    kept, rest = [], np.arange(len(tying))
    if rest.size > 1:
        normals = np.array([g.normal() for g in tying])
        residuals = arr @ normals.T - np.array([g.c for g in tying])  # (m, lines)
    while rest.size > 1:
        h, rest = rest[0], rest[1:]
        kept.append(tying[h])
        sign = np.copysign(1.0, normals[rest] @ normals[h])
        copies = np.abs(residuals[:, rest] * sign - residuals[:, h, None]).max(axis=0)
        rest = rest[~(copies <= _SAME_LINE * delta)]
    return best, sorted(kept + [tying[h] for h in rest], key=lambda g: (g.theta, g.c))


def solve_p1(points) -> OptimalSet:
    """Minimize the sum of distances over the lines through point pairs, scored
    as arrays ``_PAIR_BLOCK`` offsets at a time; the pairs whose scores can tie
    the best become lines, in pair order, with exact values for :func:`_ties`."""
    arr = _check_points(points)
    eps, delta = _eps_zero(arr), _resolution(arr)
    first, second = np.nonzero(np.arange(len(arr))[:, None] < np.arange(len(arr)))  # i < j
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
    # |score - exact value| < 32 eps m (max |x| + |y| + best), the rounding of the
    # normal, offsets and sum; the tie bound at p = 1 is below one more of it
    best = float(scores.min())
    limit = best + 3.0 * 32.0 * _EPS * len(arr) * (float(np.max(np.abs(arr).sum(axis=1))) + best)
    near = scores <= limit if math.isfinite(limit) else np.ones(scores.shape, bool)

    # the near pairs' lines, each valued by one pairwise sum over its own row of residuals
    lines = [line_through(arr[i], arr[j])
             for i, j in zip(first[near].tolist(), second[near].tolist())]
    n, c = np.array([g.normal() for g in lines]), np.array([g.c for g in lines])
    values = _power_sum((c[:, None] - _offsets(arr, n[:, :1], n[:, 1:])).T, 1.0)
    best, lines = _ties(arr, list(zip(values.tolist(), lines)), 1.0, delta)

    # a pair is parallel when its lines part by at most _SAME_LINE delta over the points' extent
    extent = 2.0 * float(np.max(np.hypot(*(arr - arr.mean(axis=0)).T))) if len(lines) > 1 else 0.0
    families: list[FamilyDescriptor] = []
    for g1, g2 in combinations(lines, 2):
        dt = abs(g1.theta - g2.theta)
        if abs(math.sin(dt)) * extent > _SAME_LINE * delta:
            continue
        c1, c2 = g1.c, (g2.c if dt < 1.0 else -g2.c)
        offsets = _offsets(arr, *g1.normal())
        lo, hi = min(c1, c2), max(c1, c2)
        if not np.any((offsets > lo + eps) & (offsets < hi - eps)):
            families.append(ParallelStrip(g1, g2))
    return OptimalSet(best, tuple(lines), tuple(families))


def solve_p2(points) -> OptimalSet:
    """Minimize the sum of squared distances via the 2x2 scatter matrix.

    The closed-form eigenvalues of ``[[sxx, sxy], [sxy, syy]]`` are
    ``(tr -+ sqrt((sxx-syy)^2 + 4 sxy^2)) / 2``; the minimum of the objective
    equals the smaller one.  It is isotropic when their gap is within ``_ROUNDING`` times
    2 sqrt(2) delta sum_j |p_j - centroid|, an eigenvalue's change as coordinates move by delta.
    """
    arr = _check_points(points)
    centroid = arr.mean(axis=0)
    d = arr - centroid
    sxx, syy, sxy = (float(np.dot(d[:, i], d[:, j])) for i, j in ((0, 0), (1, 1), (0, 1)))
    tr = sxx + syy
    gap = math.hypot(sxx - syy, 2.0 * sxy)
    lam_min = max(0.5 * (tr - gap), 0.0)

    center = Point2(float(centroid[0]), float(centroid[1]))
    if gap <= _ROUNDING * 2.0 * math.sqrt(2.0) * _resolution(arr) * float(np.hypot(*d.T).sum()):
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
    first, second = np.nonzero(np.arange(len(arr))[:, None] < np.arange(len(arr)))  # i < j
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
    best, delta = min(values.tolist()), _resolution(arr)
    near = (values <= best + _tie_bound(arr, None, best, math.inf, delta)) | math.isnan(best)
    best, lines = _ties(arr, [(v, canonicalize(UnitLine(math.atan2(y, x), c))) for v, x, y, c
                              in zip(*(u[near].tolist() for u in (values, nx, ny, mids)))],
                        math.inf, delta)
    return OptimalSet(best, tuple(lines))
