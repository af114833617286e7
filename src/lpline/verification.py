"""Numeric verification of the no-interior-critical-point machinery.

The interior critical-point condition reduces to finding zeros of
``stationarity_gap(t, b)`` on (0, 1).  Writing ``h(t) = gap(t)/t`` one has

    h(0+) = 2 * (2^b - 3b + 1)        (the :func:`family_indicator`)
    h'(t) = 4 t b (b-1) (3-b) * (1/2 + r(t))

with ``r(t) = sum_{n>=2} a_n t^(2n-2)``.  Certifying ``r > -1/2`` for b > 1
pins the sign of ``h'`` and hence the absence of interior zeros of ``h`` for
b outside {1, 3}; at b in {1, 3} the gap vanishes identically and the optimal
set degenerates to a one-parameter family.

All checks here are numeric:  partial sums carry an explicit tail bound and a
check reports ``inconclusive`` rather than ``pass`` whenever the bound cannot
certify the claim.  :func:`triangle_cross_checks` complements the series-based
suite by tying the analytic triangle solution to the generic solvers; the
verify subcommand runs both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from .geometry import lp_objective
from .numeric import minimize
from .triangle import (
    SQRT3,
    ReducedPoint,
    canonical_triangle,
    family_indicator,
    family_member,
    locate_transitions,
    reduced_objective,
    reduced_to_line,
    side_parallel_value,
    stationarity_gap,
    triangle_min_value,
)

__all__ = [
    "stationarity_gap_over_t",
    "binomial_series_coefficient",
    "RemainderSeries",
    "remainder_coefficients",
    "remainder_partial_sum",
    "remainder_tail_bound",
    "CheckResult",
    "SuiteReport",
    "default_b_grid",
    "default_t_grid",
    "run_verification_suite",
    "triangle_cross_checks",
]

_SERIES_SWITCH = 1e-4
_SERIES_TERMS = 9  # n = 0..8 in the even-power expansion of h


def binomial_series_coefficient(b: float, k: int) -> float:
    """Generalized binomial coefficient C(b, k) by the rising-product recurrence."""
    value = 1.0
    for i in range(1, k + 1):
        value *= (b - i + 1.0) / i
    return value


def stationarity_gap_over_t(t, b: float):
    """``stationarity_gap(t, b) / t`` on (0, 1], stabilized near t = 0.

    For t below 1e-4 the direct quotient loses all precision to cancellation;
    the truncated even-power series (error far below 1e-20 there) is used
    instead.  h(1) = 0 exactly, and h(0+) = 2 * family_indicator(b).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise ValueError("t must lie in (0, 1]")
    small = arr < _SERIES_SWITCH
    out = np.empty_like(arr)
    if np.any(~small):
        tt = arr[~small]
        out[~small] = stationarity_gap(tt, b) / tt
    if np.any(small):
        coeffs = [
            2.0 * (binomial_series_coefficient(b, 2 * n)
                   - 3.0 * binomial_series_coefficient(b, 2 * n + 1))
            for n in range(_SERIES_TERMS)
        ]
        t2 = arr[small] ** 2
        acc = np.zeros_like(t2)
        for cn in reversed(coeffs):
            acc = acc * t2 + cn
        out[small] = 2.0 * 2.0 ** b + acc
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def remainder_coefficients(b: float, n_max: int = 64) -> np.ndarray:
    """Coefficients a_n, n = 2..n_max, of the derivative remainder series.

    ``a_n = 3 n * (b-2) * prod_{j=4}^{2n-1} (b-j) / (2n+1)! * (b - (8n+1)/3)``
    evaluated through the running ratio of consecutive terms so that neither
    the product nor the factorial is ever formed explicitly.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    coeffs = np.empty(n_max - 1)
    q = (b - 2.0) / 120.0  # P_2 / 5!
    for n in range(2, n_max + 1):
        coeffs[n - 2] = n * q * (3.0 * b - 8.0 * n - 1.0)
        q *= (b - 2.0 * n) * (b - 2.0 * n - 1.0) / ((2.0 * n + 2.0) * (2.0 * n + 3.0))
    return coeffs


@dataclass(frozen=True)
class RemainderSeries:
    """The remainder series of the scaled derivative of h, truncated at n_max."""

    b: float
    n_max: int = 64
    coefficients: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.coefficients:
            object.__setattr__(
                self, "coefficients", tuple(remainder_coefficients(self.b, self.n_max))
            )

    def partial_sum(self, t):
        arr = np.asarray(t, dtype=float)
        t2 = arr * arr
        acc = np.zeros_like(arr)
        for cn in reversed(self.coefficients):
            acc *= t2
            acc += cn
        out = acc * t2  # lowest power is t^2 (n = 2 term)
        return float(out) if arr.ndim == 0 else out

    def tail_bound(self, t):
        return remainder_tail_bound(np.asarray(self.coefficients), t)


def remainder_partial_sum(t, b: float, n_max: int) -> float:
    """``sum_{n=2}^{n_max} a_n t^(2n-2)``."""
    if abs(t) >= 1.0:
        raise ValueError("series requires |t| < 1")
    return RemainderSeries(b, n_max).partial_sum(t)


def remainder_tail_bound(coeffs: np.ndarray, t):
    """Upper bound for the dropped tail ``|sum_{n>N} a_n t^(2n-2)|``.

    Uses the observed decay of the trailing coefficients: once |a_(n+1)/a_n|
    stays below 1 the magnitudes are monotone, giving
    ``|a_N| * t^(2N) / (1 - t^2)``.  Returns None when the observed growth
    cannot justify the bound (the caller then reports inconclusive).
    """
    arr = np.asarray(t, dtype=float)
    n_max = len(coeffs) + 1
    a_last = abs(float(coeffs[-1]))
    if a_last == 0.0:
        # the recurrence keeps a zero factor forever: the series terminates
        return np.zeros_like(arr)
    half = coeffs[len(coeffs) // 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(half[1:] / half[:-1])
    ratios = ratios[np.isfinite(ratios)]
    if len(ratios) == 0 or float(np.max(ratios)) >= 1.0:
        return None
    return a_last * arr ** (2 * n_max) / (1.0 - arr * arr)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    margin: float
    worst_at: float | None = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "worst_at": self.worst_at,
            "note": self.note,
        }


@dataclass
class SuiteReport:
    checks: list[CheckResult]

    @property
    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def inconclusive(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "inconclusive"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]},
            indent=indent,
        )


def default_b_grid() -> np.ndarray:
    return np.round(np.arange(1, 201) * 0.1, 10)


def default_t_grid(count: int = 4096) -> np.ndarray:
    """Chebyshev nodes mapped to the open interval (0, 1)."""
    k = np.arange(count)
    nodes = np.cos(math.pi * (2 * k + 1) / (2 * count))
    return np.sort((1.0 + nodes) / 2.0)


def _check_identically_zero(b: float, t_grid: np.ndarray) -> CheckResult:
    values = stationarity_gap(t_grid, b)
    scale = 4.0 * 2.0 ** b
    worst = int(np.argmax(np.abs(values)))
    margin = float(np.abs(values[worst])) / scale
    status = "pass" if margin <= 1e-12 else "fail"
    return CheckResult(f"identically-zero[b={b:g}]", status, margin, float(t_grid[worst]),
                       note="max |gap| / scale")


def _check_sign_constant(b: float, t_grid: np.ndarray) -> CheckResult:
    h = stationarity_gap_over_t(t_grid, b)
    target = family_indicator(b)
    signs_ok = bool(np.all(np.sign(h) == math.copysign(1.0, target))) and target != 0.0
    worst = int(np.argmin(np.abs(h)))
    margin = float(np.abs(h[worst]))
    status = "pass" if signs_ok and margin > 0.0 else "fail"
    return CheckResult(f"sign-constant[b={b:g}]", status, margin, float(t_grid[worst]),
                       note="min |h| with sign matching the t->0 limit")


def _check_remainder_bound(b: float, t_grid: np.ndarray, n_terms: int) -> CheckResult:
    name = f"remainder-lower-bound[b={b:g}]"
    # the recurrence does not depend on n_max: the first n_terms - 1
    # coefficients of the extended range are the truncated series
    all_coeffs = remainder_coefficients(b, 2 * n_terms)
    series = RemainderSeries(b, n_terms, coefficients=tuple(all_coeffs[:n_terms - 1]))
    coeffs = np.asarray(series.coefficients)
    partial = series.partial_sum(t_grid)
    if b <= 2.0:
        # every coefficient is non-negative here (odd count of non-positive
        # factors times a negative trailing factor), so r >= 0 outright
        if float(np.min(coeffs)) < -1e-300:
            return CheckResult(name, "fail", float(np.min(coeffs)),
                               note="expected non-negative coefficients")
        margin = 0.5 + float(np.min(partial))
        return CheckResult(name, "pass", margin, None, note="non-negative series")

    tail = remainder_tail_bound(coeffs, t_grid)
    # the geometric bound degenerates as t -> 1; there the dropped terms obey
    # |a_n| <= 1/(2n(n-1)) (checked on an extended range, decaying below it),
    # whose full tail telescopes to 1/(2N)
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


def _is_family_b(b: float) -> bool:
    return b == 1.0 or b == 3.0


def run_verification_suite(b_grid=None, t_grid=None, n_terms: int = 64) -> SuiteReport:
    """Run the whole no-interior-critical-point battery over a grid of b.

    For b in {1, 3} the gap must vanish identically (scaled 1e-12); for other
    b the scaled gap h must keep a fixed sign matching ``family_indicator``;
    and for b > 1 the remainder partial sums must certify r > -1/2 including
    their tail bound.
    """
    bs = default_b_grid() if b_grid is None else np.asarray(b_grid, dtype=float)
    ts = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if len(bs) == 0 or len(ts) == 0:
        raise ValueError("grids must be non-empty")

    def one_b(b: float) -> list[CheckResult]:
        out = []
        if _is_family_b(b):
            out.append(_check_identically_zero(b, ts))
        else:
            out.append(_check_sign_constant(b, ts))
        if b > 1.0:
            out.append(_check_remainder_bound(b, ts, n_terms))
        return out

    checks: list[CheckResult] = []
    for group in parallel_map(one_b, [float(b) for b in bs]):
        checks.extend(group)
    return SuiteReport(checks)


def _consistency_check(rng: np.random.Generator, samples: int) -> CheckResult:
    worst = 0.0
    worst_at = None
    tri = canonical_triangle()
    for _ in range(samples):
        x = rng.uniform(1e-3, SQRT3 / 4.0 - 1e-3)
        y = rng.uniform(0.0, x)
        p = rng.uniform(1.05, 5.0)
        r = ReducedPoint(x, y)
        direct = lp_objective(tri, reduced_to_line(r), p)
        reduced = reduced_objective(r, p)
        rel = abs(direct - reduced) / (1.0 + abs(reduced))
        if rel > worst:
            worst, worst_at = rel, p
    status = "pass" if worst <= 1e-12 else "fail"
    return CheckResult("reduced-objective-consistency", status, worst, worst_at,
                       note="max relative gap between reduced and direct objectives")


def _family_constancy_check(p, label: str, samples: int) -> CheckResult:
    ys = np.linspace(0.0, SQRT3 / 6.0, samples)
    values = [reduced_objective(family_member(p, float(y)), p) for y in ys]
    spread = max(values) - min(values)
    status = "pass" if spread <= 1e-12 else "fail"
    return CheckResult(f"family-constancy[{label}]", status, spread,
                       note="value spread along the optimal family")


def _minimize_check(p: float) -> CheckResult:
    report = minimize(canonical_triangle(), p)
    gap = abs(report.optimal.min_value - triangle_min_value(p))
    status = "pass" if gap <= 1e-8 else "fail"
    return CheckResult(f"minimize-matches-closed-form[p={p:g}]", status, gap,
                       note="numeric minimum vs analytic value")


def _transition_check() -> CheckResult:
    found = locate_transitions(1.01, 3.0)
    targets = (4.0 / 3.0, 2.0)
    if len(found) != 2:
        return CheckResult("transition-location", "fail", math.nan,
                           note=f"expected 2 transitions, found {len(found)}")
    gap = max(abs(a - b) for a, b in zip(sorted(found), targets))
    status = "pass" if gap <= 1e-10 else "fail"
    return CheckResult("transition-location", status, gap,
                       note="distance of located transitions from 4/3 and 2")


def _trichotomy_check() -> CheckResult:
    ps = np.linspace(1.0125, 6.0, 400)
    worst = math.inf
    worst_at = None
    ok = True
    for p in ps:
        p = float(p)
        diff = side_parallel_value(p) - 2.0 ** (1.0 - p)
        if abs(p - 2.0) < 1e-12 or abs(p - 4.0 / 3.0) < 1e-12:
            ok = ok and abs(diff) < 1e-14  # exact tie at the transitions
            continue
        if 4.0 / 3.0 < p < 2.0:
            margin = diff  # bisector regime: side-parallel must lose
        else:
            margin = -diff  # side-parallel regime: it must win
        if margin < worst:
            worst, worst_at = margin, p
    status = "pass" if ok and worst > 0.0 else "fail"
    return CheckResult("boundary-trichotomy", status, worst, worst_at,
                       note="signed gap between the two boundary minima")


def triangle_cross_checks(quick: bool = False, seed: int = 20240817) -> list[CheckResult]:
    """Check the analytic triangle solution against the generic solvers;
    ``quick`` uses fewer samples and exponents."""
    rng = np.random.default_rng(seed)
    checks = [
        _consistency_check(rng, 100 if quick else 500),
        _family_constancy_check(2.0, "p=2", 100),
        _family_constancy_check(4.0 / 3.0, "p=4/3", 100),
        _transition_check(),
        _trichotomy_check(),
    ]
    for p in ((1.5, 3.0) if quick else (1.1, 1.25, 1.5, 1.9, 2.5, 4.0, 8.0)):
        checks.append(_minimize_check(p))
    return checks
