"""lpline benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fit-small --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports ``lpline`` from its
``src/`` directory.  One caller sends requests in a closed loop (the next
request only after the previous one returns) through the public API and
``lpline.cli.main``; the library's own pool is the only other thread.

Workloads (see ``workloads.py`` for the case tables):

* ``fit-small``: solve requests on sets of 3 to 50 points (triangle, regular
  n-gons, Gaussian clouds, noisy bands with an outlier), each also sent as a
  transformed copy; p from 1 to inf.  Per-call overhead in ``minimize``'s
  refinement dominates.
* ``fit-large``: the same kinds of request on 100 to 1e5 points, where the
  theta scan, the exact solvers' pair loops and memory dominate.
* ``certify``: ``lpline sweep`` and ``lpline render`` through ``cli.main``,
  then the full verification suite; the layers the fit workloads do not use.

A run sends a fixed number of passes, ``--seconds`` over the nominal time of
one pass (``PASS_SECONDS``), at least one; the count does not depend on how
fast the machine runs, so ``attempted`` and ``failed`` repeat exactly for a
seed.  Every pass sends the same mix of requests, drawn afresh from the seed
and the pass number.  Outputs are checked against references
computed before each pass is timed (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each of a
fixed number of passes (``TRACE_PASSES``) untraced and then again with timing
spans around every traced library function (``tracing.py``), and reports
per-layer counts and seconds per pass plus the tracing overhead; the spans are
written to ``.bench_out/``.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# fresh interpreters timed for setup_s; the median is reported
SETUP_RUNS = 9
# an op's latency tail is the highest percentile with this many ops above it
TAIL_ABOVE = 10
# nominal wall seconds of one pass (references, ops and checks) on a 2-core
# x86_64 machine; an untraced run sends --seconds / PASS_SECONDS passes
PASS_SECONDS = {"fit-small": 12.0, "fit-large": 25.0, "certify": 0.45}
# passes of a traced run (each run untraced, then traced); fixed, so that the
# counts repeat exactly for a seed
TRACE_PASSES = {"fit-small": 2, "fit-large": 1, "certify": 20}
# pass number of the untimed warm-up pass (no run reaches it)
WARM_UP_PASS = 2 ** 20


def import_lpline():
    """Import lpline from this checkout's sources, and nothing else."""
    package = SRC / "lpline"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no lpline sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lpline
    import lpline.cli  # noqa: F401  (cli.main is driven directly)

    if Path(lpline.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported lpline from {lpline.__file__}, not {package}")
    return lpline


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import lpline``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms, and
        # the times it reads fall on a 50 ms grid
        subprocess.run([sys.executable, "-c", "import lpline"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- the two kinds of op -------------------------------------------------

def solve(lpline, points, pn):
    """Dispatch one solve request the way ``lpline solve`` does."""
    if pn.is_inf:
        return lpline.solve_pinf(points)
    if pn.value == 1.0:
        return lpline.solve_p1(points)
    if pn.value == 2.0:
        return lpline.solve_p2(points)
    return lpline.minimize(points, pn)


class FitWorkload:
    def __init__(self, lpline, name: str, seed: int):
        self.lpline = lpline
        self.name = name
        self.seed = seed

    def warm_up(self) -> None:
        tri = self.lpline.canonical_triangle()
        for p in ("1", "2", "inf", "1.5"):
            solve(self.lpline, tri, self.lpline.PNorm.coerce(p))

    def run_pass(self, tracer, index: int) -> list[dict]:
        from checks import reference
        from workloads import fit_requests

        requests = fit_requests(self.name, self.seed, index)
        refs = {req.index: reference(req) for req in requests if req.twin_of is None}
        ops = []
        for k, req in enumerate(requests):
            pn = req.pnorm
            if tracer is not None:
                tracer.op = 1000 * index + k
            points = req.points()
            # start each op with empty GC generations: the op pays for its own
            # garbage, not for the harness's
            gc.collect()
            start = time.perf_counter()
            try:
                result = solve(self.lpline, points, pn)
            except Exception as exc:  # a raising op counts as failed
                result = exc
            seconds = time.perf_counter() - start
            del points
            ops.append({"req": req, "seconds": seconds, "result": result})
        self._check(ops, refs)
        return ops

    @staticmethod
    def _check(ops: list[dict], refs: dict) -> None:
        """Check every op of a pass and drop its result, so that the peak RSS
        of a run does not grow with the number of passes it sends."""
        from checks import check, unexplained

        by_index = {op["req"].index: op["result"] for op in ops}
        for op in ops:
            req, result = op["req"], op.pop("result")
            base = by_index[req.twin_of] if req.twin_of is not None else None
            ref = refs[req.index if req.twin_of is None else req.twin_of]
            op["ref"] = ref
            if isinstance(result, Exception):
                op["failed"] = ["raised"]
                op["error"] = f"{type(result).__name__}: {result}"
            elif isinstance(base, Exception):
                op["failed"] = check(req, result, ref, None) + ["twin-base-raised"]
            else:
                op["failed"] = check(req, result, ref, base)
            op["unexplained"] = unexplained(req, ref, op["failed"])


class CertifyWorkload:
    def __init__(self, lpline, name: str, seed: int):
        self.lpline = lpline
        self.seed = seed
        OUT.mkdir(exist_ok=True)

    def warm_up(self) -> None:
        self.run_pass(None, WARM_UP_PASS)

    def _op(self, renders):
        from workloads import SWEEP_ARGS

        cli = self.lpline.cli
        codes = [cli.main(["sweep", *SWEEP_ARGS, "--out", str(OUT / "sweep.csv")])]
        for k, (_, p_text, y) in enumerate(renders):
            argv = ["render", "--p", p_text, "--out", str(OUT / f"render-{k}.svg")]
            if y is not None:
                argv += ["--y", repr(y)]
            codes.append(cli.main(argv))
        suite = self.lpline.run_verification_suite()
        return codes, suite

    def run_pass(self, tracer, index: int) -> list[dict]:
        from checks import check_svg, check_sweep_csv, expected_suite_checks
        from workloads import certify_renders

        renders = certify_renders(self.seed, index)
        if tracer is not None:
            tracer.op = 1000 * index
        gc.collect()
        start = time.perf_counter()
        try:
            result = self._op(renders)
        except Exception as exc:  # a raising op counts as failed
            result = exc
        seconds = time.perf_counter() - start
        if isinstance(result, Exception):
            failed = ["raised"]
            print(f"raised {type(result).__name__}: {result}")
        else:
            codes, suite = result
            failed = ["exit-code"] if any(codes) else []
            failed += check_sweep_csv((OUT / "sweep.csv").read_text())
            for k, (regime, p_text, _) in enumerate(renders):
                p = float(self.lpline.PNorm.coerce(p_text).value)
                text = (OUT / f"render-{k}.svg").read_text()
                failed += [f"{name}[{regime}]" for name in
                           check_svg(text, p, regime.startswith("family"))]
            if not suite.ok:
                failed.append("suite-not-ok")
            if len(suite.checks) != expected_suite_checks():
                failed.append("suite-check-count")
        return [{"req": None, "seconds": seconds, "failed": failed, "unexplained": failed}]


# --- running and reporting --------------------------------------------------

def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes of a run: as many nominal passes as fit in ``seconds``,
    at least one.  Fixed for the arguments, so that a slower or faster minute
    of the machine changes the times of a run but not which ops it sends."""
    return max(1, int(seconds / PASS_SECONDS[workload]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE ops above."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_ABOVE - 1, 0)
    return xs[k], 100.0 * (k + 1) / n


def mix_report(ops: list[dict]) -> dict:
    """Shares of ops (and of timed seconds) by solver path, size, input form
    and transformed-or-not, and the share of ops each known defect affects."""
    reqs = [op["req"] for op in ops if op["req"] is not None]
    if not reqs:
        return {}
    total_s = sum(op["seconds"] for op in ops)

    def size(m):
        return f"m<{10 ** max(1, math.ceil(math.log10(m + 1)))}"

    keys = {
        "path": lambda r: r.path,
        "size": lambda r: size(r.m),
        "form": lambda r: r.form,
        "transformed": lambda r: "yes" if r.transform else "no",
    }
    out = {}
    for label, key in keys.items():
        count, secs = Counter(), Counter()
        for op in ops:
            count[key(op["req"])] += 1
            secs[key(op["req"])] += op["seconds"]
        out[label] = {k: {"ops": round(count[k] / len(ops), 4),
                          "time": round(secs[k] / total_s, 4)} for k in sorted(count)}
    from checks import known_defects

    affected = Counter(d.name for op in ops for d in known_defects(op["req"], op["ref"]))
    out["known-defect"] = {k: round(v / len(ops), 4) for k, v in sorted(affected.items())}
    return out


def failure_report(ops: list[dict], key: str) -> dict:
    """Failed checks (``key`` "failed") or unexplained ones ("unexplained"),
    counted by case and check."""
    seen = Counter()
    for op in ops:
        for name in op[key]:
            case = op["req"].case if op["req"] is not None else "certify"
            if "error" in op:
                name = f"{name} {op['error']}"
            seen[f"{case}: {name}"] += 1
    return dict(sorted(seen.items()))


def outcome(ops: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  A run is correct when every check an op
    fails is one that a known defect of its request fails (``checks.py``,
    ``KNOWN_DEFECTS``); all failing ops count in ``failed`` either way."""
    failed = [op for op in ops if op["failed"]]
    return not any(op["unexplained"] for op in failed), len(ops), len(failed)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# per-layer metric: (name, unit, span names, field); times and counts are per pass
LAYER_METRICS = [
    ("geometry.as_xy.calls", "count", ["geometry.as_xy"], "calls"),
    ("geometry.as_xy.s", "s", ["geometry.as_xy"], "s"),
    ("geometry.lp_objective.calls", "count", ["geometry.lp_objective"], "calls"),
    ("geometry.lp_objective.s", "s", ["geometry.lp_objective"], "s"),
    ("geometry.first_order_residual.s", "s", ["geometry.first_order_residual"], "s"),
    ("numeric.golden_section.calls", "count", ["numeric.golden_section"], "calls"),
    ("numeric.golden_section.self_s", "s", ["numeric.golden_section"], "self_s"),
    ("numeric.best_offset.calls", "count", ["numeric.best_offset"], "calls"),
    ("numeric.best_offset.s", "s", ["numeric.best_offset"], "s"),
    ("numeric.objective_gradient.calls", "count", ["numeric.objective_gradient"], "calls"),
    ("numeric.objective_gradient.s", "s", ["numeric.objective_gradient"], "s"),
    ("numeric.evaluations", "count", ["numeric.minimize"], "evaluations"),
    ("numeric.scan.s", "s", ["numeric.scan"], "s"),
    ("numeric.scan.evals", "count", ["numeric.scan"], "evals"),
    ("numeric.minimize.calls", "count", ["numeric.minimize"], "calls"),
    ("numeric.minimize.s", "s", ["numeric.minimize"], "s"),
    ("numeric.minimize.self_s", "s", ["numeric.minimize"], "self_s"),
    ("numeric.lines_returned", "count", ["numeric.minimize"], "lines"),
    ("numeric.degenerate_flags", "count", ["numeric.minimize"], "degenerate"),
    ("exact.solve_p1.calls", "count", ["exact.solve_p1"], "calls"),
    ("exact.solve_p1.s", "s", ["exact.solve_p1"], "s"),
    ("exact.solve_p2.calls", "count", ["exact.solve_p2"], "calls"),
    ("exact.solve_p2.s", "s", ["exact.solve_p2"], "s"),
    ("exact.solve_pinf.calls", "count", ["exact.solve_pinf"], "calls"),
    ("exact.solve_pinf.s", "s", ["exact.solve_pinf"], "s"),
    ("exact.pair_candidates", "count", ["exact.solve_p1", "exact.solve_pinf"], "pairs"),
    ("triangle.stationarity_gap.calls", "count", ["triangle.stationarity_gap"], "calls"),
    ("triangle.stationarity_gap.s", "s", ["triangle.stationarity_gap"], "s"),
    ("triangle.optimal_set.s", "s", ["triangle.optimal_set"], "s"),
    ("verification.suite.s", "s", ["verification.suite"], "s"),
    ("verification.suite.checks", "count", ["verification.suite"], "checks"),
    ("verification.checks_failed", "count", ["verification.suite"], "failed"),
    ("verification.checks_inconclusive", "count", ["verification.suite"], "inconclusive"),
    ("parallel.map.calls", "count", ["parallel.map"], "calls"),
    ("parallel.map.items", "count", ["parallel.map"], "items"),
    ("parallel.map.workers", "count", ["parallel.map"], "workers"),
    ("parallel.map.s", "s", ["parallel.map"], "s"),
    ("fileio.triangle_sweep.s", "s", ["fileio.triangle_sweep"], "s"),
    ("fileio.triangle_sweep.rows", "count", ["fileio.triangle_sweep"], "rows"),
    ("fileio.locate_transitions.s", "s", ["fileio.locate_transitions"], "s"),
    ("fileio.write_sweep_csv.s", "s", ["fileio.write_sweep_csv"], "s"),
    ("svgfig.render.s", "s", ["svgfig.render"], "s"),
    ("svgfig.render.bytes", "count", ["svgfig.render"], "bytes"),
    ("cli.main.s", "s", ["cli.main"], "s"),
    ("cli.main.nonzero_exits", "count", ["cli.main"], "nonzero"),
]


def layer_metrics(totals: dict, passes: int) -> dict:
    out = {}
    for name, unit, spans, field in LAYER_METRICS:
        value = float(sum(totals.get(s, {}).get(field, 0.0) for s in spans))
        # the pool width is a maximum, not a per-pass sum
        if field != "workers":
            value /= passes
        out[name] = metric(int(value) if unit == "count" and value.is_integer() else value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-small", "fit-large", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    lpline = import_lpline()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy

    setup_s = measure_setup() if not args.trace else None
    kind = CertifyWorkload if args.workload == "certify" else FitWorkload
    workload = kind(lpline, args.workload, args.seed)
    workload.warm_up()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"python {platform.python_version()} numpy {numpy.__version__} "
          f"nproc {os.cpu_count()} {platform.machine()}")

    if not args.trace:
        passes = [workload.run_pass(None, index)
                  for index in range(pass_count(args.workload, args.seconds))]
        ops = [op for ops in passes for op in ops]
        latencies = [op["seconds"] for op in ops]
        correct, attempted, failed = outcome(ops)
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(len(ops) / sum(latencies), "1/s"),
            "op_s_p50": metric(statistics.median(latencies), "s"),
            "op_s_tail": metric(tail_s, "s"),
            "pass_rate": metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"passes {len(passes)}, ops {len(ops)} ({len(passes[0])} per pass), "
              f"timed {sum(latencies):.3f} s")
        print(f"op_s_tail is p{tail_pct:.1f} of {len(ops)} ops ({TAIL_ABOVE} above it)")
        print(f"fail_rate {failed / attempted:.4f} ({failed}/{attempted}); "
              f"correct={correct} (a failed check no known defect explains makes it false)")
        print("mix " + json.dumps(mix_report(ops)))
        print("failures per pass " + json.dumps({k: v / len(passes) for k, v in
                                                 failure_report(ops, "failed").items()}))
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = [], []
        # each pass runs untraced and then traced, so that drift in the
        # machine's speed hits both alike
        for index in range(TRACE_PASSES[args.workload]):
            plain.append(workload.run_pass(None, index))
            tracer.install()
            try:
                traced.append(workload.run_pass(tracer, index))
            finally:
                tracer.remove()
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        ops = [op for ops in traced for op in ops]
        correct, attempted, failed = outcome(ops)
        plain_s = sum(op["seconds"] for ops in plain for op in ops)
        traced_s = sum(op["seconds"] for op in ops)
        metrics = layer_metrics(tracer.totals(), len(traced))
        metrics["trace.overhead_ratio"] = metric(traced_s / plain_s - 1.0, "ratio")
        print(f"{len(plain)} untraced and {len(traced)} traced passes: "
              f"{plain_s:.3f} s vs {traced_s:.3f} s timed; "
              f"{len(tracer.spans)} spans in {span_file.relative_to(ROOT)}")

    if not correct:
        print("unexplained failures " + json.dumps(failure_report(ops, "unexplained")))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
