"""Point-set file parsing and the p-sweep CSV pipeline.

Point files are either CSV with one ``x,y`` pair per line ('#' starts a
comment) or a JSON array of ``[x, y]`` pairs.  All numbers are written with
17 significant digits so that parsing a written file reproduces the values
bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ._parallel import parallel_map
from .geometry import PNorm, Point2
from .triangle import TrianglePhase, _phase_value_offset, locate_transitions

__all__ = [
    "fmt",
    "parse_points_text",
    "load_points",
    "SweepRow",
    "triangle_sweep",
    "locate_transitions",
    "write_sweep_csv",
]

SWEEP_HEADER = "p,phase,min_value,x0,family,line_count"


def fmt(value: float) -> str:
    """Serialize a float with 17 significant digits (round-trip safe)."""
    return format(value, ".17g")


def parse_points_text(text: str) -> list[Point2]:
    stripped = text.lstrip()
    if stripped.startswith("["):
        pairs = []
        # parse_int=float leaves only floats, so a bool or a string fails the check
        for k, item in enumerate(json.loads(text, parse_int=float), start=1):
            if not (isinstance(item, list) and len(item) == 2
                    and all(isinstance(v, float) for v in item)):
                raise ValueError(f"item {k}: expected [x, y]")
            pairs.append(tuple(item))
    else:
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'x,y'")
            pairs.append((float(parts[0]), float(parts[1])))
    points = [Point2(x, y) for x, y in pairs]
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    return points


def load_points(path: str | Path) -> list[Point2]:
    return parse_points_text(Path(path).read_text())


@dataclass(frozen=True)
class SweepRow:
    p: float  # math.inf encodes the "inf" row
    phase: str
    min_value: float
    x0: float | None
    family: str | None
    line_count: int | str

    def to_csv(self) -> str:
        p_text = "inf" if math.isinf(self.p) else fmt(self.p)
        x0_text = "" if self.x0 is None else fmt(self.x0)
        fam_text = self.family or ""
        return f"{p_text},{self.phase},{fmt(self.min_value)},{x0_text},{fam_text},{self.line_count}"


def _row_for(p: PNorm) -> SweepRow:
    phase, value, x0 = _phase_value_offset(p)
    if p.is_inf:
        return SweepRow(math.inf, phase.value, value, None, None, 3)
    if phase in (TrianglePhase.FAMILY_P2, TrianglePhase.FAMILY_P43):
        return SweepRow(p.value, phase.value, value, x0, phase.value, "family")
    return SweepRow(p.value, phase.value, value, x0, None, 3)


def triangle_sweep(p_min: float, p_max: float, steps: int,
                   include_inf: bool = False) -> list[SweepRow]:
    if p_min < 1.0:
        raise ValueError("p must be >= 1")
    if p_max < p_min or steps < 1:
        raise ValueError("invalid sweep range")
    if steps == 1:
        ps: list[PNorm] = [PNorm.coerce(p_min)]
    else:
        ps = [PNorm.coerce(p_min + (p_max - p_min) * k / (steps - 1))
              for k in range(steps)]
    # the family exponents are measure-zero; surface them whenever in range
    for q in (Fraction(4, 3), Fraction(2)):
        if p_min < q < p_max and not any(pn.value == float(q) for pn in ps):
            ps.append(PNorm.coerce(q))
    ps.sort(key=lambda pn: pn.value)
    rows = parallel_map(_row_for, ps)
    if include_inf:
        rows.append(_row_for(PNorm.infinity()))
    return rows


def write_sweep_csv(path: str | Path, rows: list[SweepRow],
                    transitions: list[float] | None = None) -> None:
    lines = [SWEEP_HEADER]
    lines.extend(row.to_csv() for row in rows)
    if transitions:
        for p in transitions:
            lines.append(f"# transition p = {fmt(p)} (sign change of the regime indicator)")
    Path(path).write_text("\n".join(lines) + "\n")
