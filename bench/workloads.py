"""Seeded request streams for the benchmark workloads.

A workload is a fixed table of cases.  Each case names a shape, a size, an
exponent range and an input form.  One pass sends every case once; the seed
and the pass number draw the coordinates, the exact exponent inside its
range, the similarity transform of the twin copy inside its stratum, and the
order of the requests.  The table itself never depends on the seed, so every
pass of every seed sends the same mix of solver paths, sizes, input forms and
transform strata, and runs of different seeds stay comparable.

A case with a twin yields two requests: the shape in its own frame
(untransformed) and a copy moved by a random similarity q -> s R(a) q + t.
The twin uses the other input form (``Point2`` list or ``(m, 2)`` ndarray),
so each such case sends both forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lpline import PNorm, Point2

SQRT3 = math.sqrt(3.0)

WORKLOADS = ("fit-small", "fit-large", "certify")

# sweep and render arguments of one certification pass (certify workload)
SWEEP_ARGS = ("--p-min", "1.01", "--p-max", "3", "--steps", "2000", "--include-inf")


@dataclass(frozen=True)
class Shape:
    """A point set in its own frame; polygons carry their dihedral symmetry."""

    kind: str                 # "cloud" | "band" | "triangle" | "ngon"
    xy: np.ndarray            # (m, 2) coordinates in the shape's own frame
    center: tuple[float, float] = (0.0, 0.0)
    order: int = 0            # n of the symmetry group D_n; 0 when none
    axis: float = 0.0         # direction angle of one mirror axis through center


@dataclass(frozen=True)
class Transform:
    """The similarity q -> scale * R(angle) q + shift."""

    scale: float
    angle: float
    shift: tuple[float, float]

    def apply(self, xy: np.ndarray) -> np.ndarray:
        cos_a, sin_a = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
        return self.scale * (xy @ rot.T) + np.asarray(self.shift)

    def line_to_own_frame(self, theta: float, c: float) -> tuple[float, float]:
        """The preimage of the line <n(theta), q> = c in the shape's frame."""
        nx, ny = math.cos(theta), math.sin(theta)
        return theta - self.angle, (c - nx * self.shift[0] - ny * self.shift[1]) / self.scale

    @property
    def relative_shift(self) -> float:
        """Translation in units of the shape size; input rounding grows with it."""
        return math.hypot(*self.shift) / self.scale


@dataclass(frozen=True)
class Request:
    """One solve request as sent to the library."""

    index: int
    case: str
    shape: Shape
    p_text: str
    form: str                 # "list" | "ndarray"
    transform: Transform | None
    twin_of: int | None       # index of the untransformed request of the case
    xy: np.ndarray            # the coordinates the library receives

    def points(self):
        """The input as sent: a ``Point2`` list or an ``(m, 2)`` ndarray.  Built
        afresh for each send, so that large ``Point2`` lists do not stay alive
        between requests."""
        if self.form == "list":
            return [Point2(float(x), float(y)) for x, y in self.xy]
        return self.xy.copy()

    @property
    def pnorm(self) -> PNorm:
        return PNorm.coerce(self.p_text)

    @property
    def p(self) -> float:
        return self.pnorm.value

    @property
    def m(self) -> int:
        return len(self.xy)

    @property
    def path(self) -> str:
        """Solver chosen the way ``lpline solve`` chooses it."""
        pn = self.pnorm
        if pn.is_inf:
            return "pinf"
        if pn.value == 1.0:
            return "p1"
        if pn.value == 2.0:
            return "p2"
        return "numeric"


# --- shapes ---------------------------------------------------------------

def triangle() -> Shape:
    xy = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, SQRT3 / 2.0]])
    return Shape("triangle", xy, center=(0.0, SQRT3 / 6.0), order=3, axis=math.pi / 2.0)


def ngon(n: int) -> Shape:
    ang = 2.0 * math.pi * np.arange(n) / n
    xy = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Shape("ngon", xy, order=n, axis=0.0)


def cloud(rng: np.random.Generator, m: int) -> Shape:
    """Anisotropic Gaussian cloud at a random orientation."""
    spread = np.array([1.0, rng.uniform(0.15, 0.6)])
    ang = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    return Shape("cloud", (rng.normal(size=(m, 2)) * spread) @ rot.T)


def band(rng: np.random.Generator, m: int) -> Shape:
    """A noisy band along a random line plus one gross outlier."""
    slope, icpt = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)
    xs = rng.uniform(0.0, 4.0, size=m - 1)
    ys = slope * xs + icpt + rng.normal(0.0, 0.05, size=m - 1)
    outlier = (rng.uniform(0.0, 4.0), slope * 2.0 + icpt + rng.choice([-1.0, 1.0]) * 3.0)
    return Shape("band", np.vstack([np.stack([xs, ys], axis=1), outlier]))


# --- exponents ------------------------------------------------------------

def _p_text(rng: np.random.Generator, spec) -> str:
    """Exponent text for a case: a literal, ("uniform", lo, hi), ("log", lo, hi)
    or ("off", q, delta) for q shifted by +-delta."""
    if isinstance(spec, str):
        return spec
    kind, a, b = spec
    if kind == "uniform":
        return repr(float(rng.uniform(a, b)))
    if kind == "log":
        return repr(float(math.exp(rng.uniform(math.log(a), math.log(b)))))
    if kind == "off":
        return repr(float(Fraction(a)) + float(rng.choice([-1.0, 1.0])) * b)
    raise ValueError(f"unknown exponent spec {spec!r}")


# --- transforms -----------------------------------------------------------

def _transform(rng: np.random.Generator, scale_exp: tuple[float, float],
               shift_exp: tuple[float, float] | None) -> Transform:
    """Random similarity with log10 scale in ``scale_exp`` and log10 relative
    shift (translation over scale) in ``shift_exp``; the absolute translation
    is at most 1e9 and at most 1e9 shape sizes, so the copy stays resolvable."""
    scale = 10.0 ** rng.uniform(*scale_exp)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    if shift_exp is None:
        shift = (0.0, 0.0)
    else:
        size = min(10.0 ** rng.uniform(*shift_exp) * scale, 1e9)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        shift = (size * math.cos(direction), size * math.sin(direction))
    return Transform(scale, angle, shift)


# Case tables.  Columns: label, shape maker (rng -> Shape), exponent spec,
# form of the untransformed request, twin transform as (log10 scale range,
# log10 relative shift range or None), or None for no twin.
# Strata are fixed per case so that each pass covers the whole range of
# ROADMAP aim 3 (scale 1e-6..1e6, translation up to 1e9).

_FIT_SMALL = [
    ("triangle-p1", lambda r: triangle(), "1", "list", ((-2, 2), (0, 3))),
    ("triangle-p2", lambda r: triangle(), "2", "ndarray", ((2, 4), (3, 6))),
    ("triangle-pinf", lambda r: triangle(), "inf", "list", ((-4, -2), (0, 3))),
    ("triangle-p4/3", lambda r: triangle(), "4/3", "ndarray", ((0, 2), (0, 3))),
    ("triangle-near-4/3", lambda r: triangle(), ("off", "4/3", 1e-6), "list", ((-2, 0), None)),
    ("triangle-near-2", lambda r: triangle(), ("off", "2", 1e-6), "ndarray", ((4, 6), (0, 3))),
    ("triangle-bisector", lambda r: triangle(), ("uniform", 1.4, 1.9), "list", ((-6, -5), None)),
    ("triangle-parallel-low", lambda r: triangle(), ("uniform", 1.05, 1.3), "ndarray", ((-1, 1), (3, 6))),
    ("triangle-parallel-high", lambda r: triangle(), ("uniform", 2.2, 8.0), "list", ((-1, 1), (8.5, 9))),
    ("triangle-large-p", lambda r: triangle(), ("log", 50.0, 1000.0), "ndarray", ((-1, 1), (0, 3))),
    ("9-gon", lambda r: ngon(9), ("uniform", 1.4, 3.5), "list", ((-2, 2), (0, 3))),
    ("n-gon", lambda r: ngon(int(r.choice([4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15]))),
     ("uniform", 1.05, 4.0), "ndarray", ((2, 4), (3, 6))),
    ("n-gon-p1", lambda r: ngon(int(r.integers(4, 16))), "1", "list", ((-4, -2), (0, 3))),
    ("n-gon-pinf", lambda r: ngon(int(r.integers(4, 16))), "inf", "ndarray", ((2, 4), (0, 3))),
    ("cloud", lambda r: cloud(r, int(r.integers(10, 51))), ("uniform", 1.05, 4.0), "list", ((-2, 0), (0, 3))),
    ("band", lambda r: band(r, int(r.integers(8, 51))), ("uniform", 1.05, 4.0), "ndarray", ((0, 2), (3, 6))),
    ("cloud-p1", lambda r: cloud(r, int(r.integers(10, 51))), "1", "list", ((-2, 2), (3, 6))),
    ("band-pinf", lambda r: band(r, int(r.integers(8, 51))), "inf", "ndarray", ((-2, 2), (0, 3))),
    ("cloud-p2", lambda r: cloud(r, int(r.integers(10, 51))), "2", "list", ((4, 6), (3, 6))),
    ("band-large-p", lambda r: band(r, int(r.integers(8, 51))), ("log", 50.0, 1000.0), "list", None),
]

# Large sets.  Sizes are fixed (the seed draws coordinates and exponents) and
# capped by the run budget: minimize at m = 1e4 takes ~12 s and solve_p1 is
# O(m^3) (~1 s at m = 100 from an ndarray).  Cheap exact requests keep the
# op count of a pass high enough for a latency tail.  Large p stays in
# fit-small: at m = 3e3 its cost swings 4x with p (d^p over- and underflows).
_FIT_LARGE = [
    ("cloud-1e3", lambda r: cloud(r, 1000), ("uniform", 1.4, 3.0), "ndarray", ((-1, 1), (0, 3))),
    ("band-3e3", lambda r: band(r, 3000), ("uniform", 1.05, 4.0), "list", None),
    ("cloud-1e4", lambda r: cloud(r, 10000), ("uniform", 1.05, 4.0), "ndarray", None),
    ("cloud-p1-100", lambda r: cloud(r, 100), "1", "list", ((-2, 2), (0, 3))),
    ("band-p1-150", lambda r: band(r, 150), "1", "list", None),
    ("band-pinf-100", lambda r: band(r, 100), "inf", "list", ((-6, -4), (0, 3))),
    ("cloud-pinf-100", lambda r: cloud(r, 100), "inf", "ndarray", ((2, 4), (3, 6))),
    ("band-pinf-200", lambda r: band(r, 200), "inf", "list", ((4, 6), (0, 3))),
    ("cloud-pinf-250", lambda r: cloud(r, 250), "inf", "ndarray", None),
    ("cloud-pinf-300", lambda r: cloud(r, 300), "inf", "list", None),
    ("cloud-p2-1e5", lambda r: cloud(r, 100_000), "2", "list", ((-4, -2), (0, 3))),
    ("band-p2-1e5", lambda r: band(r, 100_000), "2", "ndarray", ((2, 4), (3, 6))),
    ("cloud-p2-1e5-b", lambda r: cloud(r, 100_000), "2", "ndarray", ((-1, 1), (6, 9))),
    ("band-p2-1e5-b", lambda r: band(r, 100_000), "2", "list", ((4, 6), (0, 3))),
    ("cloud-p2-1e5-c", lambda r: cloud(r, 100_000), "2", "list", ((-6, -4), (3, 6))),
    ("band-p2-1e5-c", lambda r: band(r, 100_000), "2", "ndarray", ((-2, 0), (0, 3))),
]

_TABLES = {"fit-small": _FIT_SMALL, "fit-large": _FIT_LARGE}


def fit_requests(workload: str, seed: int, pass_index: int) -> list[Request]:
    """The requests of one pass of a fit workload, in sending order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    requests: list[Request] = []
    for label, make, p_spec, form, twin in _TABLES[workload]:
        shape = make(rng)
        p_text = _p_text(rng, p_spec)
        base = Request(len(requests), label, shape, p_text, form, None, None, shape.xy)
        requests.append(base)
        if twin is not None:
            tf = _transform(rng, *twin)
            other = "ndarray" if form == "list" else "list"
            requests.append(Request(len(requests), label, shape, p_text, other, tf,
                                    base.index, tf.apply(shape.xy)))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def certify_renders(seed: int, pass_index: int) -> tuple[tuple[str, str, float | None], ...]:
    """(regime, p text, family member y or None) for the renders of one
    certification pass."""
    rng = np.random.default_rng([seed, WORKLOADS.index("certify"), pass_index])
    y_max = SQRT3 / 6.0
    return (
        ("parallel-low", _p_text(rng, ("uniform", 1.05, 1.3)), None),
        ("family-4/3", "4/3", float(rng.uniform(0.0, y_max))),
        ("bisector", _p_text(rng, ("uniform", 1.4, 1.9)), None),
        ("family-2", "2", float(rng.uniform(0.0, y_max))),
        ("parallel-high", _p_text(rng, ("uniform", 2.2, 8.0)), None),
    )
