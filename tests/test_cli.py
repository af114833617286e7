import json
import math
import threading
import typing

import pytest

from lpline import verification
from lpline.cli import _family_dict, main
from lpline.exact import (
    EveryDirection, FamilyDescriptor, ParallelStrip, PencilThroughPoint, ReducedCurve)
from lpline.geometry import Point2, UnitLine
from lpline.fileio import (
    fmt,
    locate_transitions,
    parse_points_text,
    triangle_sweep,
    write_sweep_csv,
)
from lpline.triangle import canonical_triangle, triangle_min_value

from conftest import read_sweep_csv, triangle_sweep_reference

SQRT3 = math.sqrt(3.0)

TRIANGLE_CSV = """# unit equilateral triangle
-0.5,0.0
0.5,0.0
0.0,0.8660254037844386
"""


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.csv"
    path.write_text(TRIANGLE_CSV)
    return str(path)


class TestPointFiles:
    def test_csv_with_comments(self):
        pts = parse_points_text(TRIANGLE_CSV)
        assert len(pts) == 3
        assert pts[2].y == pytest.approx(SQRT3 / 2)

    def test_json_array(self):
        pts = parse_points_text("[[0, 0], [1, 0.5], [2, -1]]")
        assert len(pts) == 3
        assert pts[1].y == 0.5

    def test_rejects_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_points_text("0,0\n1;2\n")

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_points_text("0,0\n")

    @pytest.mark.parametrize("text,item", [
        ("[1, 2]", 1),                      # not a list of pairs
        ("[[1]]", 1),                       # too few coordinates
        ("[[1, 2, 3], [4, 5, 6]]", 1),      # a third coordinate
        ("[[true, 2], [3, 4]]", 1),         # a bool is not a number
        ('[[0, 0], [1, "2"]]', 2),          # nor is a string
    ])
    def test_rejects_malformed_json_items(self, text, item):
        with pytest.raises(ValueError, match=rf"item {item}: expected \[x, y\]"):
            parse_points_text(text)


class TestSweepPipeline:
    def test_rows_match_analytic_values(self):
        for row in triangle_sweep(1.05, 4.0, 25, include_inf=True):
            p = "inf" if math.isinf(row.p) else row.p
            assert row.min_value == pytest.approx(triangle_min_value(p), abs=1e-12)

    def test_family_rows_inserted(self):
        rows = triangle_sweep(1.01, 3.0, 50)
        tags = [r.family for r in rows if r.family]
        assert tags == ["family-p43", "family-p2"]
        assert [r.line_count for r in rows if r.family] == ["family", "family"]

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rows = triangle_sweep(1.1, 3.3, 17, include_inf=True)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows, transitions=[4.0 / 3.0, 2.0])
        back = read_sweep_csv(path)
        assert back == rows

    @pytest.mark.parametrize("p_min,p_max,steps", [
        (1.0, 3.0, 200), (1.2, 2.5, 57), (1.01, 1.5, 1), (1.3, 2.2, 2), (1.5, 40.0, 91)])
    def test_rows_match_the_per_row_reference(self, p_min, p_max, steps):
        rows = triangle_sweep(p_min, p_max, steps, include_inf=True)
        expected = triangle_sweep_reference(p_min, p_max, steps, include_inf=True)
        assert rows == expected

    def test_fmt_round_trip(self):
        for v in (1 / 3, math.pi, 1e-300, 123456.789, SQRT3 / 18):
            assert float(fmt(v)) == v

    def test_transitions_located(self):
        found = sorted(locate_transitions(1.01, 3.0))
        assert len(found) == 2
        assert found[0] == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert found[1] == pytest.approx(2.0, abs=1e-10)

    def test_no_transitions_outside_range(self):
        assert locate_transitions(2.5, 6.0) == []


class TestSolveCommand:
    def test_triangle_p1(self, triangle_file, capsys):
        assert main(["solve", "--points", triangle_file, "--p", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == 1.0
        assert doc["min_value"] == pytest.approx(SQRT3 / 2, abs=1e-12)
        assert len(doc["lines"]) == 3
        assert not doc["degenerate"]

    def test_triangle_pinf(self, triangle_file, capsys):
        assert main(["solve", "--points", triangle_file, "--p", "inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == "inf"
        assert doc["min_value"] == pytest.approx(SQRT3 / 4, abs=1e-12)

    def test_json_point_file(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text("[[-0.5, 0.0], [0.5, 0.0], [0.0, 0.8660254037844386]]")
        assert main(["solve", "--points", str(path), "--p", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_value"] == pytest.approx(SQRT3 / 2, abs=1e-12)

    def test_triangle_p2_family(self, triangle_file, capsys):
        assert main(["solve", "--points", triangle_file, "--p", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degenerate"]
        assert doc["families"][0]["kind"] == "pencil"
        assert doc["families"][0]["center"][1] == pytest.approx(SQRT3 / 6, abs=1e-12)

    def test_triangle_p43_family(self, triangle_file, capsys):
        assert main(["solve", "--points", triangle_file, "--p", "4/3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lines"] == []
        assert doc["families"] == [{"kind": "every-direction", "p": 4.0 / 3.0}]
        assert doc["degenerate"] is True

    @pytest.mark.parametrize("p_text,expected", [
        ("1", SQRT3 / 2),
        ("4/3", 2.0 ** (-1.0 / 3.0)),
        ("1.5", 2.0 ** -0.5),
        ("2", 0.5),
        ("3", 3.0 * SQRT3 / (4.0 * (1.0 + math.sqrt(2.0)) ** 2)),
        ("inf", SQRT3 / 4),
    ])
    def test_agrees_with_analytic_triangle(self, triangle_file, capsys, p_text, expected):
        assert main(["solve", "--points", triangle_file, "--p", p_text]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_value"] == pytest.approx(expected, abs=1e-8)

    def test_invalid_p_exits_2(self, triangle_file, capsys):
        assert main(["solve", "--points", triangle_file, "--p", "0.5"]) == 2
        assert "p must be >= 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "--points", "/nonexistent.csv", "--p", "2"]) == 2

    def test_flat_json_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text("[1, 2]")
        assert main(["solve", "--points", str(path), "--p", "2"]) == 2
        assert "item 1: expected [x, y]" in capsys.readouterr().err

    def test_unknown_config_exits_2(self, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--points", triangle_file, "--p", "2.5",
                  "--config", "theta_samples=360"])
        assert exc.value.code == 2

    def test_degenerate_points_exit_3(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("1,1\n1,1\n")
        assert main(["solve", "--points", str(path), "--p", "2"]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_overflowing_objective_exits_3(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("".join(f"{64 * x!r},{64 * y!r}\n" for x, y in canonical_triangle()))
        assert main(["solve", "--points", str(path), "--p", "672.69"]) == 3
        assert "overflows" in capsys.readouterr().err


# one instance of each family descriptor
FAMILIES = {
    PencilThroughPoint: PencilThroughPoint(Point2(0.0, 0.5)),
    ParallelStrip: ParallelStrip(UnitLine(0.5, 0.0), UnitLine(0.5, 1.0)),
    ReducedCurve: ReducedCurve(4.0 / 3.0, (0.0, 0.25), "x(y)"),
    EveryDirection: EveryDirection(1.5),
}


def test_every_family_descriptor_has_a_json_kind():
    assert set(FAMILIES) == set(typing.get_args(FamilyDescriptor))
    docs = [_family_dict(FAMILIES[kind]) for kind in typing.get_args(FamilyDescriptor)]
    assert len({doc["kind"] for doc in docs}) == len(docs)
    json.dumps(docs)


class TestSweepCommand:
    def test_rejects_p_below_one(self, tmp_path, capsys):
        assert main(["sweep", "--p-min", "0.5", "--p-max", "2", "--steps", "10",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_writes_rows_and_transitions(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--p-min", "1.01", "--p-max", "3", "--steps", "40",
                     "--out", str(out), "--include-inf"]) == 0
        text = out.read_text()
        assert text.startswith("p,phase,min_value,x0,family,line_count\n")
        footers = [l for l in text.splitlines() if l.startswith("# transition")]
        assert len(footers) == 2
        located = sorted(float(l.split("=")[1].split("(")[0]) for l in footers)
        assert located[0] == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert located[1] == pytest.approx(2.0, abs=1e-10)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.csv"
        assert main(["sweep", "--p-min", "1.01", "--p-max", "3", "--steps", "10",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRenderCommand:
    def test_p1_three_lines(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["render", "--p", "1", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<line ") == 3
        assert "<polygon" in svg

    def test_family_orbit_six_lines(self, tmp_path):
        out = tmp_path / "fig.svg"
        y = 5 * SQRT3 / 60
        assert main(["render", "--p", "4/3", "--y", str(y), "--out", str(out)]) == 0
        assert out.read_text().count("<line ") == 6

    def test_bisector_regime_three_vertex_lines(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["render", "--p", "1.5", "--out", str(out)]) == 0
        assert out.read_text().count("<line ") == 3

    def test_y_for_non_family_exits_2(self, tmp_path, capsys):
        assert main(["render", "--p", "3", "--y", "0.1", "--out",
                     str(tmp_path / "fig.svg")]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--p", "2", "--y", "0.05", "--out", str(a)]) == 0
        assert main(["render", "--p", "2", "--y", "0.05", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fig.svg"
        assert main(["render", "--p", "1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_injected_fault_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "_check_sign_constant",
                            lambda b, ts: verification.CheckResult("injected", "fail", -1.0))
        assert main(["verify", "--quick"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"]


class TestSerialMap:
    """Sweeps and the verification battery run in the calling thread."""

    @pytest.fixture
    def no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_sweep_starts_no_thread(self, no_threads):
        rows = triangle_sweep(1.01, 3.0, 2000, include_inf=True)
        assert len(rows) == 2003  # 2000 steps, 4/3 and 2 inserted, and inf
        assert [r.p for r in rows[:-1]] == sorted(r.p for r in rows[:-1])

    def test_suite_starts_no_thread(self, no_threads):
        assert verification.run_verification_suite().ok

    def test_suite_checks_follow_b_order(self):
        bs = [2.5, 1.0, 7.3, 0.5, 3.0, 1.1]
        ts = verification.default_t_grid(512)
        grid = verification._Grid(bs, ts)
        expected = []
        for b in bs:
            if b in (1.0, 3.0):
                expected.append(verification._check_identically_zero(b, grid))
            else:
                expected.append(verification._check_sign_constant(b, grid))
            if b > 1.0:
                expected.append(verification._check_remainder_bound(b, grid))
        report = verification.run_verification_suite(b_grid=bs, t_grid=ts)
        assert [c.as_dict() for c in report.checks] == [c.as_dict() for c in expected]
