"""Self-test of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

Takes a few minutes.  Runs the workloads that BENCHMARK.json names (fit-large
runs only when asked for by name).  Checks that the counts named in the
benchmark's contract repeat exactly for a seed, that every metric named in
BENCHMARK.json is emitted with its unit, that spans from the library's pool
threads keep their parent, that only the checks of a known defect are excused,
and that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = [
    "numeric.evaluations",
    "numeric.scan.evals",
    "geometry.as_xy.calls",
    "geometry.lp_objective.calls",
    "exact.pair_candidates",
    "verification.suite.checks",
]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


def run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    return doc


def assert_names(metrics: dict, specs: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    doc = result(run(workload, 0))
    assert_names(doc["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    # the ops a run sends, and so its failures, follow from its arguments only
    again = result(run(workload, 0))
    assert (again["attempted"], again["failed"]) == (doc["attempted"], doc["failed"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert_names(first["metrics"], SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_pool_spans_keep_parent():
    result(run("certify", 1, seed=3))
    spans = [json.loads(line) for line in
             (ROOT / ".bench_out" / "spans-certify-seed3.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    maps = [s for s in spans if s["name"] == "parallel.map"]
    assert maps and all(s["workers"] >= 1 for s in maps)
    pooled = [s for s in spans if s["name"] == "triangle.stationarity_gap"]
    assert pooled
    for s in pooled:
        parent = by_id[s["parent"]]
        while parent["name"] != "parallel.map":
            parent = by_id[parent["parent"]]
        assert parent["op"] == s["op"]


def test_covered_time_is_a_union():
    from tracing import _covered

    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert _covered([], 0.0, 1.0) == 0.0


def _request(shape, p_text, scale=1.0, shift=0.0):
    """A request for ``shape``, moved when a scale or shift is given."""
    from workloads import Request, Transform

    moved = (scale, shift) != (1.0, 0.0)
    tf = Transform(scale, 0.3, (shift * scale, 0.0)) if moved else None
    xy = shape.xy if tf is None else tf.apply(shape.xy)
    return Request(0, "probe", shape, p_text, "list", tf, None, xy)


def test_known_defects_excuse_only_their_checks():
    from checks import reference, unexplained
    from workloads import cloud, ngon, triangle

    import numpy as np

    def excused(req, failed):
        return not unexplained(req, reference(_request(req.shape, req.p_text)), failed)

    # ROADMAP defects of minimize, on the inputs where ROADMAP places them
    assert excused(_request(ngon(9), "1.5"), ["symmetry-closure"])
    assert excused(_request(triangle(), "4/3"), ["family-descriptor"])
    assert excused(_request(triangle(), "1.5", scale=1e-6), ["line-count", "attained"])
    assert excused(_request(triangle(), "100"), ["degenerate-flag", "line-count"])
    assert excused(_request(triangle(), "1000"), ["value"])        # sum d^p underflows
    assert excused(_request(triangle(), "3", shift=1e9), ["line-count"])
    assert excused(_request(triangle(), "2.000001"), ["degenerate-flag"])
    # a wrong value is never excused where the closed form is exact
    for p_text in ("1", "2", "inf", "1.5", "3", "100"):
        assert not excused(_request(triangle(), p_text), ["value"]), p_text
    # exact solvers, and minimize away from the defect inputs, excuse nothing
    assert not excused(_request(triangle(), "1"), ["line-count"])
    assert not excused(_request(ngon(7), "inf"), ["line-count"])
    assert not excused(_request(ngon(7), "1.5"), ["symmetry-closure"])
    assert not excused(_request(triangle(), "1.5", scale=2.0), ["line-count"])
    rng = np.random.default_rng(0)
    assert not excused(_request(cloud(rng, 20), "1.5"), ["oracle-bound"])
    assert not excused(_request(ngon(9), "1.5"), ["raised"])
    assert not excused(_request(triangle(), "629", scale=2.0), ["raised"])
    assert excused(_request(triangle(), "629", scale=8.8), ["raised"])   # sum d^p overflows


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("fit-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
