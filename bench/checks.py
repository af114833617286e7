"""References and output checks, written independently of ``lpline``.

Every value is compared in the L^p-norm domain, ``(sum d^p)^(1/p)`` evaluated
as ``d_max * (sum (d / d_max)^p)^(1/p)``, so that p up to 1000 neither
underflows nor ties.  References are computed once per run, before anything is
timed:

* the unit triangle: the closed forms of the source paper (the better of the
  side-parallel and the bisector candidate; p = 1 and p = inf directly);
* p = 1 and p = inf on other sets: enumeration of all point pairs (an optimal
  line passes through two points; the narrowest strip is flush with one);
* p = 2: the smallest eigenvalue of the centred scatter matrix;
* other p: a grid-oracle upper bound (exact inner offset on a direction grid)
  where affordable.

A transformed copy is checked against its untransformed request.  Tolerances
are relative and grow with the rounding of the input coordinates, which is
``eps * (translation / shape size)``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from workloads import SQRT3, Request, Shape

EPS = float(np.finfo(float).eps)
# relative accuracy required of values when the input is not rounded
VALUE_RTOL = 1e-9
# agreement of line directions (radians) and offsets (shape sizes)
LINE_TOL = 1e-6
# largest m for which the grid oracle runs
ORACLE_MAX_M = 1000


def lp_norm(d: np.ndarray, p: float) -> float:
    """``(sum d^p)^(1/p)`` (``max d`` for p = inf) without under- or overflow."""
    dmax = float(np.max(d))
    if math.isinf(p) or dmax == 0.0:
        return dmax
    return dmax * float(np.sum((d / dmax) ** p)) ** (1.0 / p)


def line_norm(xy: np.ndarray, theta: float, c: float, p: float) -> float:
    d = np.abs(c - (xy[:, 0] * math.cos(theta) + xy[:, 1] * math.sin(theta)))
    return lp_norm(d, p)


def reported_norm(min_value: float, p: float) -> float:
    """The norm a solver reports through ``min_value`` (sum d^p or max d)."""
    if math.isinf(p):
        return min_value
    return max(min_value, 0.0) ** (1.0 / p)


# --- closed forms for the unit equilateral triangle ----------------------

def triangle_norm(p: float) -> float:
    """Minimal L^p norm over all lines for the unit triangle.

    The optimum is the better of two boundary candidates: a line parallel to
    a side at offset x0 = (sqrt3/2) / (1 + 2^b), b = 1/(p-1), with
    ``f = 2 (sqrt3/2)^p (1 + 2^b)^(1-p)``, and a perpendicular bisector with
    ``f = 2 (1/2)^p``.  At p = 1 a side gives sqrt3/2; at p = inf the
    narrowest strip has half-width sqrt3/4.
    """
    if math.isinf(p):
        return SQRT3 / 4.0
    if p == 1.0:
        return SQRT3 / 2.0
    b = 1.0 / (p - 1.0)
    log1p_2b = b * math.log(2.0) + math.log1p(2.0 ** -b) if b > 30 else math.log1p(2.0 ** b)
    log_side = math.log(2.0) + p * math.log(SQRT3 / 2.0) + (1.0 - p) * log1p_2b
    log_bisector = math.log(2.0) - p * math.log(2.0)
    return math.exp(min(log_side, log_bisector) / p)


def triangle_family(p_text: str) -> bool:
    """Whether the unit triangle's optimum is a one-parameter family at p."""
    text = p_text.strip().lower()
    if text == "inf":
        return False
    return Fraction(text) in (Fraction(4, 3), Fraction(2))


# --- enumeration references -------------------------------------------------

def _dedupe_count(lines: list[tuple[float, float]], tol: float) -> int:
    kept: list[tuple[float, float]] = []
    for th, c in lines:
        if not any(same_line((th, c), h, tol, tol) for h in kept):
            kept.append((th, c))
    return len(kept)


def pair_enumeration(xy: np.ndarray, p: float, chunk: int = 4096) -> tuple[float, int]:
    """Exact optimum for p = 1 (lines through pairs) or p = inf (narrowest
    strip flush with a pair); returns (norm, number of optimal lines)."""
    i_all, j_all = np.triu_indices(len(xy), k=1)
    best_vals, best_lines = [], []
    for start in range(0, len(i_all), chunk):
        i, j = i_all[start:start + chunk], j_all[start:start + chunk]
        dx, dy = xy[j, 0] - xy[i, 0], xy[j, 1] - xy[i, 1]
        norm = np.hypot(dx, dy)
        ok = norm > 0.0
        nx, ny = -dy[ok] / norm[ok], dx[ok] / norm[ok]
        a = xy[:, :1] * nx + xy[:, 1:] * ny            # (m, pairs)
        if math.isinf(p):
            lo, hi = a.min(axis=0), a.max(axis=0)
            vals, cs = 0.5 * (hi - lo), 0.5 * (hi + lo)
        else:
            cs = nx * xy[i[ok], 0] + ny * xy[i[ok], 1]
            vals = np.sum(np.abs(a - cs), axis=0)
        thetas = np.arctan2(ny, nx)
        best_vals.append(vals)
        best_lines.append(np.stack([thetas, cs], axis=1))
    vals = np.concatenate(best_vals)
    lines = np.concatenate(best_lines)
    best = float(vals.min())
    ties = lines[vals <= best * (1.0 + 1e-9)]
    scale = float(np.max(np.ptp(xy, axis=0)))
    count = _dedupe_count([(float(t), float(c)) for t, c in ties], 1e-9 * (1.0 + scale))
    return best, count


def scatter_norm(xy: np.ndarray) -> float:
    """p = 2 optimum: sqrt of the smallest eigenvalue of the centred scatter."""
    d = xy - xy.mean(axis=0)
    lam = float(np.linalg.eigvalsh(d.T @ d)[0])
    return math.sqrt(max(lam, 0.0))


def grid_oracle(xy: np.ndarray, p: float, directions: int, iters: int = 60) -> float:
    """Upper bound on the minimal norm: the exact best offset for each of
    ``directions`` equally spaced directions (bisection on the monotone
    derivative of the convex inner problem), minimized over the grid."""
    th = np.arange(directions) * (math.pi / directions)
    a = xy @ np.stack([np.cos(th), np.sin(th)])      # (m, T)
    lo, hi = a.min(axis=0), a.max(axis=0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        r = mid - a
        scale = np.max(np.abs(r), axis=0)
        scale[scale == 0.0] = 1.0
        slope = np.sum(np.sign(r) * (np.abs(r) / scale) ** (p - 1.0), axis=0)
        below = slope < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    d = np.abs(0.5 * (lo + hi) - a)
    dmax = d.max(axis=0)
    dmax[dmax == 0.0] = 1.0
    norms = dmax * np.sum((d / dmax) ** p, axis=0) ** (1.0 / p)
    return float(norms.min())


@dataclass(frozen=True)
class Reference:
    """What the optimum of a request is known to be, in the shape's frame."""

    norm: float | None = None       # exact minimal norm
    upper: float | None = None      # oracle upper bound on the minimal norm
    family: bool | None = None      # the optimum is a one-parameter family
    lines: int | None = None        # number of optimal lines


def reference(req: Request) -> Reference:
    """Reference for an untransformed request (twins reuse it, scaled)."""
    shape, p, path = req.shape, req.p, req.path
    if shape.kind == "triangle":
        family = triangle_family(req.p_text)
        return Reference(norm=triangle_norm(p), family=family,
                         lines=None if family else 3)
    generic = shape.order == 0
    if path in ("p1", "pinf"):
        norm, count = pair_enumeration(shape.xy, p)
        # strip families of even polygons at p = 1 are not flagged degenerate
        return Reference(norm=norm, family=False if generic else None, lines=count)
    if path == "p2":
        # regular polygons have isotropic scatter: every line through the centre
        return Reference(norm=scatter_norm(shape.xy), family=not generic,
                         lines=1 if generic else None)
    upper = None
    if req.m <= ORACLE_MAX_M:
        upper = grid_oracle(shape.xy, p, 1440 if req.m <= 100 else 360)
    return Reference(upper=upper, family=False)


# --- line geometry ------------------------------------------------------------

def same_line(g: tuple[float, float], h: tuple[float, float],
              theta_tol: float, c_tol: float) -> bool:
    """Whether (theta, c) and (theta', c') describe the same line."""
    dt = g[0] - h[0]
    if abs(math.sin(dt)) > theta_tol:
        return False
    if math.cos(dt) > 0.0:
        return abs(g[1] - h[1]) <= c_tol
    return abs(g[1] + h[1]) <= c_tol


def _symmetry_images(shape: Shape, line: tuple[float, float]) -> list[tuple[float, float]]:
    """Images of a line under the dihedral group D_n of a regular polygon."""
    theta, c = line
    cx, cy = shape.center
    n = shape.order
    out = []
    for k in range(n):
        beta = 2.0 * math.pi * k / n
        for mirror in (False, True):
            # normal and foot point of the line, moved about the centre
            nx, ny = math.cos(theta), math.sin(theta)
            fx, fy = c * nx - cx, c * ny - cy
            if mirror:
                cos2, sin2 = math.cos(2.0 * shape.axis), math.sin(2.0 * shape.axis)
                nx, ny = cos2 * nx + sin2 * ny, sin2 * nx - cos2 * ny
                fx, fy = cos2 * fx + sin2 * fy, sin2 * fx - cos2 * fy
            cb, sb = math.cos(beta), math.sin(beta)
            nx, ny = cb * nx - sb * ny, sb * nx + cb * ny
            fx, fy = cb * fx - sb * fy + cx, sb * fx + cb * fy + cy
            out.append((math.atan2(ny, nx), nx * fx + ny * fy))
    return out


# --- the checks -------------------------------------------------------------

def _optimal(result):
    return getattr(result, "optimal", result)


def check(req: Request, result, ref: Reference, base_result) -> list[str]:
    """Names of the checks that ``result`` fails (empty when it is correct).

    ``base_result`` is the result of the untransformed request of the same
    case, for a transformed copy; ``None`` otherwise.
    """
    opt = _optimal(result)
    p = req.p
    tf = req.transform
    scale = 1.0 if tf is None else tf.scale
    rounding = 0.0 if tf is None else 64.0 * EPS * tf.relative_shift
    rtol = VALUE_RTOL + rounding
    line_tol = LINE_TOL + rounding
    failed = []

    got = reported_norm(opt.min_value, p)
    if ref.norm is not None and not abs(got - scale * ref.norm) <= rtol * scale * ref.norm:
        failed.append("value")
    if ref.upper is not None and not got <= scale * ref.upper * (1.0 + rtol):
        failed.append("oracle-bound")
    if any(not abs(line_norm(req.xy, g.theta, g.c, p) - got) <= rtol * got
           for g in opt.lines):
        failed.append("attained")
    if ref.family is not None and bool(opt.degenerate) != ref.family:
        failed.append("degenerate-flag")
    if ref.family and not opt.families:
        failed.append("family-descriptor")
    if ref.lines is not None and not ref.family and len(opt.lines) != ref.lines:
        failed.append("line-count")
    if req.shape.order and not ref.family and opt.lines:
        own = [(g.theta, g.c) if tf is None else tf.line_to_own_frame(g.theta, g.c)
               for g in opt.lines]
        closed = all(any(same_line(img, h, line_tol, line_tol) for h in own)
                     for g in own for img in _symmetry_images(req.shape, g))
        if not closed:
            failed.append("symmetry-closure")
    if base_result is not None:
        base = _optimal(base_result)
        want = scale * reported_norm(base.min_value, p)
        if not abs(got - want) <= rtol * want:
            failed.append("twin-value")
        if len(opt.lines) != len(base.lines) or bool(opt.degenerate) != bool(base.degenerate):
            failed.append("twin-lines")
    return failed


# --- known defects ----------------------------------------------------------------

@dataclass(frozen=True)
class Defect:
    """A known solver defect: the requests it affects and the checks it fails.

    A failing op is known only when every check it fails belongs to a defect
    that affects its request.  Any other failure, such as a wrong value
    against a closed form or an exception outside the out-of-range defect,
    makes the run incorrect.
    """

    name: str
    affects: Callable[[Request, Reference], bool]
    checks: frozenset[str]


def _numeric(req: Request) -> bool:
    return req.path == "numeric"


def _scale(req: Request) -> float:
    return 1.0 if req.transform is None else req.transform.scale


def _shift(req: Request) -> float:
    return 0.0 if req.transform is None else req.transform.relative_shift


def _out_of_range(req: Request, ref: Reference) -> bool:
    """Whether the optimal sum d^p of the request, or of the untransformed
    request it is compared with, leaves the normal range of a double, where
    ``min_value`` loses its precision or reads 0 or inf."""
    norm = ref.norm if ref.norm is not None else ref.upper
    if norm is None or not math.isfinite(req.p):
        return False
    info = np.finfo(float)
    logs = [req.p * math.log(s * norm) for s in (_scale(req), 1.0)]
    return min(logs) < math.log(1e3 * info.tiny) or max(logs) > math.log(info.max / 1e3)


_LINE_SET = ("line-count", "symmetry-closure", "twin-lines")

# ROADMAP lists the first seven, all in minimize; the rest, and the parts
# marked so, were found by this benchmark.  Thresholds sit below the smallest
# failing input that probes found, with a margin (BASELINE.md).
KNOWN_DEFECTS = (
    # multistart_keep = 8 cuts orbits of more than 8 lines, and the many tied
    # arcs trip the family test
    Defect("truncation",
           lambda req, ref: _numeric(req) and req.shape.order > 8,
           frozenset({"symmetry-closure", "degenerate-flag", "twin-lines"})),
    # 8 sample lines and no family descriptor at a family exponent
    Defect("family-samples",
           lambda req, ref: _numeric(req) and bool(ref.family),
           frozenset({"family-descriptor"})),
    # absolute floors in value_tol * (1 + |best|) and lines_close(..., 1e-7)
    Defect("small-scale",
           lambda req, ref: _numeric(req) and _scale(req) < 1.0,
           frozenset({"attained", "degenerate-flag", *_LINE_SET})),
    # 8 lines and degenerate=True at large p
    Defect("large-p",
           lambda req, ref: _numeric(req) and 50.0 <= req.p < math.inf,
           frozenset({"attained", "degenerate-flag", *_LINE_SET})),
    # sum d^p underflows and min_value reads 0; found here: where it overflows,
    # minimize raises
    Defect("out-of-range",
           lambda req, ref: _numeric(req) and _out_of_range(req, ref),
           frozenset({"value", "twin-value", "attained", "raised", "twin-base-raised"})),
    # 1 line instead of 3 on copies shifted 1e9 sizes; found here: from ~7e5 on
    Defect("translation",
           lambda req, ref: _numeric(req) and _shift(req) >= 1e4,
           frozenset(_LINE_SET)),
    # degenerate=True within 1e-6 of 4/3 and 2; found here: symmetry-closure
    Defect("near-transition",
           lambda req, ref: _numeric(req) and any(0.0 < abs(req.p - q) <= 1e-3
                                                  for q in (4.0 / 3.0, 2.0)),
           frozenset({"degenerate-flag", "symmetry-closure", "twin-lines"})),
    # a regular n-gon (n >= 5) has isotropic moments up to degree 4, so near
    # p = 4 the objective is almost flat in theta and the lines are off
    Defect("flat-near-4",
           lambda req, ref: _numeric(req) and req.shape.order >= 5 and abs(req.p - 4.0) <= 0.1,
           frozenset({"symmetry-closure", "twin-lines"})),
    # minimize does not centre its input, so on shifted copies it finds theta
    # only to ~sqrt(eps * shift)
    Defect("moderate-shift",
           lambda req, ref: _numeric(req) and _shift(req) >= 1e2,
           frozenset({"symmetry-closure", "twin-lines"})),
    # solve_p1 and solve_pinf drop or split tied optima of a moved regular
    # polygon (absolute floors in the tie and dedupe tolerances)
    Defect("exact-ties",
           lambda req, ref: req.path in ("p1", "pinf") and req.shape.order > 0
           and req.transform is not None,
           frozenset(_LINE_SET)),
)


def known_defects(req: Request, ref: Reference) -> list[Defect]:
    """The known defects that affect a request."""
    return [d for d in KNOWN_DEFECTS if d.affects(req, ref)]


def unexplained(req: Request, ref: Reference, failed: list[str]) -> list[str]:
    """The failed checks of a request that no known defect of it explains."""
    covered = set().union(*(d.checks for d in known_defects(req, ref)))
    return [name for name in failed if name not in covered]


# --- certify --------------------------------------------------------------------

def triangle_phase(p: float) -> str:
    if math.isinf(p):
        return "parallel"
    if p == 2.0:
        return "family-p2"
    if p == 4.0 / 3.0:
        return "family-p43"
    return "bisector" if 4.0 / 3.0 < p < 2.0 else "parallel"


def side_offset(p: float) -> float:
    """x0(p) = (sqrt3/2) / (2^(1/(p-1)) + 1), 0 in the limit p -> 1."""
    b = 1.0 / (p - 1.0)
    if b > 1000.0:
        return 0.0
    return (SQRT3 / 2.0) / (2.0 ** b + 1.0)


def triangle_value(p: float) -> float:
    """min sum d^p (max d at p = inf) for the unit triangle."""
    norm = triangle_norm(p)
    return norm if math.isinf(p) else norm ** p


def check_sweep_csv(text: str) -> list[str]:
    """Rows and transition comments of ``lpline sweep`` against the closed forms."""
    failed = []
    rows, transitions = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# transition p = "):
            transitions.append(float(line.split("=", 1)[1].split()[0]))
        elif line and not line.startswith("#") and not line.startswith("p,"):
            rows.append(line.split(","))
    finite = [float(r[0]) for r in rows if r[0] != "inf"]
    if len(finite) != 2002 or not any(r[0] == "inf" for r in rows):
        failed.append("sweep-row-count")
    for p_text, phase, value, x0, family, count in rows:
        p = math.inf if p_text == "inf" else float(p_text)
        want_phase = triangle_phase(p)
        want_value = triangle_value(p)
        ok = phase == want_phase and abs(float(value) - want_value) <= 1e-12 * want_value
        if math.isfinite(p) and x0:
            ok = ok and abs(float(x0) - side_offset(p)) <= 1e-12
        is_family = want_phase.startswith("family")
        ok = ok and (family == (want_phase if is_family else ""))
        ok = ok and count == ("family" if is_family else "3")
        if not ok:
            failed.append("sweep-row")
            break
    want = (4.0 / 3.0, 2.0)
    if len(transitions) != 2 or any(abs(a - b) > 1e-10 for a, b in zip(sorted(transitions), want)):
        failed.append("sweep-transitions")
    return failed


_SIZE, _MARGIN = 600.0, 60.0
_SPAN = _SIZE - 2.0 * _MARGIN
_Y_OFF = 0.5 * (_SIZE - _SPAN * SQRT3 / 2.0)


def check_svg(text: str, p: float, family: bool) -> list[str]:
    """Every line drawn by ``lpline render`` must be optimal for the triangle
    (to the 1e-3 pixel resolution of the file).  There are three lines, or
    for a family member its orbit under the triangle's symmetries (3 or 6)."""
    tri = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, SQRT3 / 2.0]])
    want = triangle_norm(p)
    lines = []
    for chunk in text.split("<line ")[1:]:
        attrs = dict(part.split("=") for part in chunk.split("/>")[0].split()
                     if "=" in part)
        x1, y1, x2, y2 = (float(attrs[k].strip('"')) for k in ("x1", "y1", "x2", "y2"))
        # back to world coordinates of the figure
        ax, ay = (x1 - _SIZE / 2.0) / _SPAN, (_SIZE - _Y_OFF - y1) / _SPAN
        bx, by = (x2 - _SIZE / 2.0) / _SPAN, (_SIZE - _Y_OFF - y2) / _SPAN
        theta = math.atan2(bx - ax, -(by - ay))
        lines.append((theta, ax * math.cos(theta) + ay * math.sin(theta)))
    failed = []
    if len(lines) not in ((3, 6) if family else (3,)) or not text.rstrip().endswith("</svg>"):
        failed.append("render-lines")
    if any(abs(line_norm(tri, th, c, p) - want) > 1e-4 * want for th, c in lines):
        failed.append("render-optimal")
    return failed


def expected_suite_checks(b_count: int = 200, step: float = 0.1) -> int:
    """Checks of the default verification suite: one sign or zero check for
    every b on the grid, plus a remainder bound for every b > 1."""
    return b_count + sum(1 for k in range(1, b_count + 1) if k * step > 1.0 + 1e-9)
