"""Command-line interface: solve | sweep | render | verify.

Exit codes: 0 success, 2 malformed input or a file that cannot be read or
written, 3 solver failure, and 1 when the verification suite reports a
failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exact import (
    DegenerateInputError,
    EveryDirection,
    ParallelStrip,
    PencilThroughPoint,
    ReducedCurve,
)
from .fileio import load_points, locate_transitions, triangle_sweep, write_sweep_csv
from .geometry import PNorm, UnitLine
from .numeric import solve
from .svgfig import render_triangle_figure
from .verification import run_verification_suite, SuiteReport, triangle_cross_checks

__all__ = ["main"]


def _line_dict(g: UnitLine) -> dict:
    return {"theta": g.theta, "c": g.c}


def _family_dict(fam) -> dict:
    if isinstance(fam, PencilThroughPoint):
        return {"kind": "pencil", "center": [fam.center.x, fam.center.y]}
    if isinstance(fam, ParallelStrip):
        return {"kind": "strip", "g1": _line_dict(fam.g1), "g2": _line_dict(fam.g2)}
    if isinstance(fam, ReducedCurve):
        return {"kind": "reduced-curve", "p": fam.p,
                "y_range": list(fam.y_range), "curve": fam.curve}
    if isinstance(fam, EveryDirection):
        return {"kind": "every-direction", "p": fam.p}
    raise TypeError(f"unknown family {fam!r}")


def _cmd_solve(args) -> int:
    try:
        pn = PNorm.coerce(args.p)
        points = load_points(args.points)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        opt = solve(points, pn)
    except (DegenerateInputError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    document = {
        "p": "inf" if pn.is_inf else pn.value,
        "min_value": opt.min_value,
        "lines": [_line_dict(g) for g in opt.lines],
        "families": [_family_dict(f) for f in opt.families],
        "degenerate": opt.degenerate,
    }
    print(json.dumps(document, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    try:
        rows = triangle_sweep(args.p_min, args.p_max, args.steps,
                              include_inf=args.include_inf)
        transitions = locate_transitions(args.p_min, args.p_max)
        write_sweep_csv(args.out, rows, transitions)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_render(args) -> int:
    try:
        pn = PNorm.coerce(args.p)
        svg = render_triangle_figure(pn, args.y)
        Path(args.out).write_text(svg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    if args.quick:
        import numpy as np

        from .verification import default_t_grid

        suite = run_verification_suite(
            b_grid=np.round(np.arange(1, 41) * 0.5, 10),
            t_grid=default_t_grid(512),
        )
    else:
        suite = run_verification_suite()
    extra = triangle_cross_checks(quick=args.quick)
    report = SuiteReport(suite.checks + extra)
    print(report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpline",
        description="Lines minimizing the L^p norm of point-to-line distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimal lines for a point-set file")
    p_solve.add_argument("--points", required=True, help="CSV 'x,y' lines or JSON array")
    p_solve.add_argument("--p", required=True, help="exponent: number, ratio like 4/3, or inf")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="triangle phase sweep to CSV")
    p_sweep.add_argument("--p-min", type=float, required=True)
    p_sweep.add_argument("--p-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--include-inf", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_render = sub.add_parser("render", help="SVG figure of the optimal lines")
    p_render.add_argument("--p", required=True)
    p_render.add_argument("--y", type=float, default=None,
                          help="family member parameter (p = 2 or 4/3 only)")
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=_cmd_render)

    p_verify = sub.add_parser("verify", help="run the numeric verification suite")
    p_verify.add_argument("--quick", action="store_true", help="coarser grids")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
