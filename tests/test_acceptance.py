"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary; the whole module is desk-scale (well under two minutes).
"""

import math

import numpy as np

from lpline import (
    UnitLine,
    lp_objective,
    minimize,
    objective_gradient,
    reduced_gradient,
    reduced_objective,
    reduced_to_line,
    side_parallel_offset,
    side_parallel_value,
    solve_p1,
    solve_p2,
    solve_pinf,
    family_member,
    symmetry_orbit,
)
from lpline.exact import PencilThroughPoint
from lpline.fileio import locate_transitions
from lpline.triangle import ReducedPoint, canonical_triangle
from lpline.verification import default_t_grid, run_verification_suite

from conftest import line_param_distance, point_line_distance, random_points, refined_oracle

SQRT3 = math.sqrt(3.0)
TRI = canonical_triangle()
SIDES = ((TRI[0], TRI[1]), (TRI[0], TRI[2]), (TRI[1], TRI[2]))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_triangle_p1_side_lines():
    opt = solve_p1(TRI)
    value_ok = abs(opt.min_value - SQRT3 / 2) <= 1e-12
    from lpline import line_through
    expected = [line_through(a, b) for a, b in SIDES]
    lines_ok = len(opt.lines) == 3 and all(
        min(line_param_distance(g, h) for h in expected) < 1e-9 for g in opt.lines)
    _report(1, value_ok and lines_ok,
            f"min={opt.min_value:.15f}, {len(opt.lines)} side lines")


def test_criterion_02_triangle_p2_pencil():
    opt = solve_p2(TRI)
    pencil = opt.families[0] if opt.families else None
    ok = (opt.degenerate
          and isinstance(pencil, PencilThroughPoint)
          and abs(pencil.center.x) <= 1e-12
          and abs(pencil.center.y - SQRT3 / 6) <= 1e-12
          and abs(opt.min_value - 0.5) <= 1e-12)
    _report(2, ok, f"min={opt.min_value:.15f}, pencil through centroid, degenerate flag")


def test_criterion_03_triangle_pinf_equioscillation():
    opt = solve_pinf(TRI)
    value_ok = abs(opt.min_value - SQRT3 / 4) <= 1e-12
    spread = max(
        max(point_line_distance(v, g) for v in TRI)
        - min(point_line_distance(v, g) for v in TRI)
        for g in opt.lines)
    ok = value_ok and len(opt.lines) == 3 and spread <= 1e-10
    _report(3, ok, f"min={opt.min_value:.15f}, 3 lines, distance spread {spread:.2e}")


def test_criterion_04_parallel_regime():
    worst_val, worst_line = 0.0, 0.0
    for p in (1.1, 1.25, 3.0, 5.0, 20.0):
        report = minimize(TRI, p)
        x0 = side_parallel_offset(p)
        worst_val = max(worst_val, abs(report.optimal.min_value - side_parallel_value(p)))
        for g in report.optimal.lines:
            gap = min(max(abs(point_line_distance(a, g) - x0),
                          abs(point_line_distance(b, g) - x0)) for a, b in SIDES)
            worst_line = max(worst_line, gap)
    ok = worst_val <= 1e-8 and worst_line <= 1e-6
    _report(4, ok, f"value gap {worst_val:.2e} <= 1e-8, offset gap {worst_line:.2e} <= 1e-6")


def test_criterion_05_bisector_regime():
    worst_val, worst_vertex = 0.0, 0.0
    for p in (1.4, 1.5, 1.9):
        report = minimize(TRI, p)
        worst_val = max(worst_val, abs(report.optimal.min_value - 2.0 ** (1.0 - p)))
        assert len(report.optimal.lines) == 3
        for g in report.optimal.lines:
            worst_vertex = max(worst_vertex, min(point_line_distance(v, g) for v in TRI))
    ok = worst_val <= 1e-10 and worst_vertex <= 1e-8
    _report(5, ok, f"value gap {worst_val:.2e} <= 1e-10, vertex distance {worst_vertex:.2e}")


def test_criterion_06_degenerate_families():
    spreads = []
    for p in (2.0, 4.0 / 3.0):
        values = [reduced_objective(family_member(p, float(y)), p)
                  for y in np.linspace(0.0, SQRT3 / 6, 100)]
        spreads.append(max(values) - min(values))
    orbit_ok = True
    for p in (2.0, 4.0 / 3.0):
        for y in (0.03, SQRT3 / 12, 0.13):
            orbit_ok &= len(symmetry_orbit(reduced_to_line(family_member(p, y)))) == 6
        for y in (0.0, SQRT3 / 6):
            orbit_ok &= len(symmetry_orbit(reduced_to_line(family_member(p, y)))) == 3
    ok = max(spreads) <= 1e-12 and orbit_ok
    _report(6, ok, f"family spread {max(spreads):.2e} <= 1e-12, orbit sizes 6/3")


def test_criterion_07_offset_limits():
    gaps = [
        abs(side_parallel_offset(2.0 - 1e-6) - SQRT3 / 6),
        abs(side_parallel_offset(2.0 + 1e-6) - SQRT3 / 6),
        abs(side_parallel_offset(4.0 / 3.0 - 1e-6) - SQRT3 / 18),
        abs(side_parallel_offset(4.0 / 3.0 + 1e-6) - SQRT3 / 18),
    ]
    ok = max(gaps) <= 1e-5
    _report(7, ok, f"offset limit gaps at p->2 and p->4/3: max {max(gaps):.2e} <= 1e-5")


def test_criterion_08_transition_detection():
    found = sorted(locate_transitions(1.01, 3.0))
    ok = (len(found) == 2
          and abs(found[0] - 4.0 / 3.0) <= 1e-10
          and abs(found[1] - 2.0) <= 1e-10)
    detail = ", ".join(f"{p:.12f}" for p in found)
    _report(8, ok, f"transitions at p = {detail}")


def test_criterion_09_proof_machinery():
    sign_bs = [0.3, 0.5, 2.0, 2.5, 5.0, 10.0, 20.0]
    b_grid = sorted(set(sign_bs) | {1.0, 3.0} | {1.2, 1.5, 3.5, 4.0, 8.0, 15.0})
    report = run_verification_suite(b_grid=b_grid, t_grid=default_t_grid(4096))
    zero = [c for c in report.checks if c.name.startswith("identically-zero")]
    sign = [c for c in report.checks
            if c.name.startswith("sign-constant")
            and any(f"[b={b:g}]" in c.name for b in sign_bs)]
    rem = [c for c in report.checks if c.name.startswith("remainder")]
    ok = (len(zero) == 2 and all(c.status == "pass" and c.margin <= 1e-12 for c in zero)
          and len(sign) == 7 and all(c.status == "pass" for c in sign)
          and len(rem) == len([b for b in b_grid if b > 1.0])
          and all(c.status == "pass" for c in rem))
    worst_rem = min((c.margin for c in rem), default=float("nan"))
    _report(9, ok, f"gap zero at b in {{1,3}}, 7 sign checks, "
                   f"{len(rem)} certified remainder bounds (worst margin {worst_rem:.3f})")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(20250808)
    exact = {1.0: solve_p1, 2.0: solve_p2, math.inf: solve_pinf}
    worst_hi, worst_lo = -math.inf, -math.inf
    for k in range(50):
        pts = random_points(rng)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            if p in exact:
                got = exact[p](pts).min_value
            else:
                got = minimize(pts, p).optimal.min_value
            _, oracle = refined_oracle(pts, p)
            worst_hi = max(worst_hi, got - oracle)       # must stay <= 1e-6
            worst_lo = max(worst_lo, oracle - got)       # must stay <= 2e-3
    ok = worst_hi <= 1e-6 and worst_lo <= 2e-3
    _report(10, ok, f"50 sets x 5 exponents: solver-oracle in "
                    f"[-{worst_lo:.2e}, {worst_hi:.2e}] within (+1e-6, -2e-3)")


def test_criterion_11_gradient_checks():
    rng = np.random.default_rng(1234)
    worst = 0.0
    h = 1e-6
    # reduced-coordinate gradient
    for _ in range(100):
        x = rng.uniform(0.05, SQRT3 / 4 - 0.01)
        y = rng.uniform(0.005, x - 0.005)
        p = rng.uniform(1.2, 4.5)
        fx, fy = reduced_gradient(ReducedPoint(x, y), p)
        fd_x = (reduced_objective(ReducedPoint(x + h, y), p)
                - reduced_objective(ReducedPoint(x - h, y), p)) / (2 * h)
        fd_y = (reduced_objective(ReducedPoint(x, y + h), p)
                - reduced_objective(ReducedPoint(x, y - h), p)) / (2 * h)
        scale = max(abs(fd_x), abs(fd_y), 1e-6)
        worst = max(worst, abs(fx - fd_x) / scale, abs(fy - fd_y) / scale)
    # line-parameter gradient
    count = 0
    while count < 100:
        pts = random_points(rng)
        g = UnitLine(rng.uniform(0.0, math.pi), rng.uniform(-0.3, 1.2))
        p = float(rng.choice([1.5, 2.5, 3.0]))
        if min(point_line_distance(q, g) for q in pts) < 1e-3:
            continue
        d_theta, d_c = objective_gradient(pts, g, p)
        fd_c = (lp_objective(pts, UnitLine(g.theta, g.c + h), p)
                - lp_objective(pts, UnitLine(g.theta, g.c - h), p)) / (2 * h)
        fd_t = (lp_objective(pts, UnitLine(g.theta + h, g.c), p)
                - lp_objective(pts, UnitLine(g.theta - h, g.c), p)) / (2 * h)
        scale = max(abs(fd_c), abs(fd_t), 1e-6)
        worst = max(worst, abs(d_c - fd_c) / scale, abs(d_theta - fd_t) / scale)
        count += 1
    ok = worst <= 1e-5
    _report(11, ok, f"200 samples, worst relative gradient error {worst:.2e} <= 1e-5")
