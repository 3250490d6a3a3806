"""The hfroots benchmark.

Usage:
  python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/run.py --quick      # smallest rung of every workload, gated
  python3 bench/run.py --selftest   # --quick, then check the gate fires

One closed-loop caller drives `hfroots.cli.main` in-process: the next
document is requested only after the previous one is written.  Each
repetition runs every document of the workload in a fresh interpreter
(`worker.py`), so the package's caches start cold, as they do for a CLI
user.  A repetition is started only while it is expected to end within
`--seconds`.

With `--trace 0` the end-to-end metrics are reported: the median set-up time
of interpreters that only import `hfroots.cli`, the median repetition wall
time, the median and 90th percentile of the per-document latencies pooled
over the repetitions, and the median peak RSS.  With `--trace 1` untraced
and traced repetitions alternate; the traced ones wrap the layers
(`tracer.py`) and give the per-layer metrics, and their difference in wall
time is the tracing overhead.  Every document is gated (`gate.py`) after its
repetition ends.

Times are in reference seconds: each one is scaled by how fast a fixed
calibration task ran around it (`calibration.py`), which cancels the
slowdown other tenants of a shared machine cause.  A set-up is scaled by
calibrations just before and after it, a repetition by the mean of those
run between its documents.

The last stdout line is one JSON object with keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it list every metric with its unit
and sample count.  The spans of the first traced repetition are written to
`bench/_work/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gate
import workloads
from calibration import calibrate_for, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKER = HERE / "worker.py"

SETUP_PROBES = 5  # set-up-only interpreters before the first repetition
MIN_REPS = 3
HARD_STOP_S = 150.0  # start no repetition after this; the run must end by 180 s
REP_TIMEOUT_S = 170.0

# (metric, span, ladder, what x is) for each fitted log-log slope
SLOPES = (
    ("root.module_from_root.slope", "root.module_from_root", "tau", "tau length"),
    ("root.root_from_tau.slope", "root.root_from_tau", "tau", "tau length"),
    ("hfcore.grading_shift.slope", "hfcore.grading_shift", "p", "p"),
    ("plumbing.laufer_sequence.slope", "plumbing.laufer_sequence", "laufer", "Laufer steps"),
)
SELF_TIMES = (
    "root.module_from_root", "root.root_from_tau", "root.render",
    "hfcore.grading_shift", "hfcore.sw_invariant", "numtheory.dedekind_sum",
    "plumbing.grading_shift_formula", "plumbing.sublevel_root", "plumbing.laufer_sequence",
    "plumbing.spinc_classes", "plumbing.embedded_resolution", "plumbing.lattice_grading_shift",
    "knot.from_newton_pairs", "cli.main",
)
CALLS = ("hfcore.grading_shift", "numtheory.dedekind_sum")
COUNTS = ("hfcore.tau_len", "root.leaves", "root.vertices", "plumbing.laufer_steps",
          "plumbing.box_volume")
LAYERS = ("knot", "numtheory", "hfcore", "root", "plumbing", "cli")


class Run:
    """The repetitions of one workload, with their gate results."""

    def __init__(self, docs: list[dict], work: Path):
        self.docs = docs
        self.work = work
        self.digests = gate.load_digests()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _spawn(self, job_path=None):
        """Start a worker; return it once set up, with the set-up time."""
        cmd = [sys.executable, str(WORKER)] + ([str(job_path)] if job_path else [])
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready != b"ready\n":
            proc.wait()
            raise RuntimeError(f"worker failed to import hfroots (exit {proc.returncode})")
        return proc, setup

    def probe(self):
        """Time one set-up, in reference seconds (`calibration.py`)."""
        before = calibrate_for(0.01)
        proc, setup = self._spawn()
        proc.communicate(timeout=REP_TIMEOUT_S)
        self.setups.append(setup * speed(before + calibrate_for(0.01)))

    def repetition(self, index: int, trace: bool, spans: Path | None = None) -> dict:
        rep = self.work / f"rep{index}"
        rep.mkdir(parents=True)
        outs = [rep / f"d{i}.{'svg' if d['kind'] == 'svg' else 'json'}"
                for i, d in enumerate(self.docs)]
        job = {
            "argvs": [d["argv"] + ["--out", str(o)] for d, o in zip(self.docs, outs)],
            "trace": trace,
            "result_path": str(rep / "result.json"),
            "spans_path": str(spans) if spans else None,
        }
        job_path = rep / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc, _ = self._spawn(job_path)
        try:
            proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        try:
            result = json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            print(f"repetition {index}: worker exited {proc.returncode}", file=sys.stderr)
            result = {"codes": [-1] * len(self.docs), "latencies_s": [], "cals_s": [],
                      "errors": [], "maxrss_kb": None}
        lat, cals = result["latencies_s"], result["cals_s"]
        factor = speed([c for gap in cals for c in gap]) if lat else None
        result["scaled_s"] = [t * factor for t in lat]
        result["raw_wall_s"] = sum(lat) if lat else None
        result["wall_s"] = sum(result["scaled_s"]) if lat else None
        result["out_bytes"] = sum(o.stat().st_size for o in outs if o.exists())
        self._gate(result, outs)
        shutil.rmtree(rep)
        return result

    def _gate(self, result: dict, outs: list[Path]):
        """Count every document; record one failure line per failed one."""
        for doc, code, out in zip(self.docs, result["codes"], outs):
            key = workloads.doc_key(doc)
            issues = gate.problems(doc["kind"], key, code, out, self.digests)
            self.attempted += 1
            if issues:
                self.failures.append(f"{key}: {'; '.join(issues)}")
        for i, tb in result["errors"]:
            print(f"document {i} raised:\n{tb}", file=sys.stderr)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y on log x, one point per distinct x."""
    by_x = defaultdict(list)
    for x, y in points:
        if x > 0 and y > 0:
            by_x[x].append(y)
    if len(by_x) < 2:
        return 0.0
    xs = [math.log(x) for x in by_x]
    ys = [math.log(statistics.median(v)) for v in by_x.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scale(rep: dict) -> float:
    """Reference seconds per measured second in one repetition."""
    return rep["wall_s"] / rep["raw_wall_s"]


def end_to_end(run: Run, reps: list[dict]) -> dict:
    lat = [x for r in reps for x in r["scaled_s"]]
    walls = [r["wall_s"] for r in reps if r["wall_s"] is not None]
    rss = [r["maxrss_kb"] / 1024 for r in reps if r["maxrss_kb"] is not None]
    return {
        "setup_s": (statistics.median(run.setups), "s", len(run.setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "doc_p50_s": (statistics.median(lat), "s", len(lat)),
        "doc_p90_s": (percentile(lat, 90), "s", len(lat)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }


def per_layer(run: Run, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced repetitions) and slope ladders.

    Self times are scaled to reference seconds by their repetition's mean
    calibration factor."""
    traced = [r for r in traced if "trace" in r]  # a worker that died left none
    n = len(traced)
    traces = [r["trace"] for r in traced]
    scales = [scale(r) for r in traced]
    med = statistics.median
    out = {}
    for span in SELF_TIMES:
        out[f"{span}.self_s"] = (med([t["self_ns"].get(span, 0) / 1e9 * k
                                      for t, k in zip(traces, scales)]), "s", n)
    for span in CALLS:
        out[f"{span}.calls"] = (med([t["calls"].get(span, 0) for t in traces]), "count", n)
    for name in COUNTS:
        out[name] = (med([t["counts"].get(name, 0) for t in traces]), "count", n)
    out["plumbing.embedded_resolution.hit_ratio"] = (
        med([t["embedded_resolution_hit_ratio"] for t in traces]), "ratio", n)
    out["cli.out_bytes"] = (med([r["out_bytes"] for r in traced]), "B", n)

    ladders = {}
    for metric, span, ladder, axis in SLOPES:
        docs = {i for i, d in enumerate(run.docs) if d["ladder"] == ladder}
        points = [(x, dur * k) for t, k in zip(traces, scales)
                  for doc, x, dur in t["sizes"].get(span, []) if doc in docs]
        out[metric] = (loglog_slope(points), "1", len(points))
        ladders[metric] = {"x": axis, "sizes": sorted({x for x, _ in points})}

    for layer in LAYERS:
        shares = []
        for t in traces:
            total = sum(t["self_ns"].values())
            own = sum(v for k, v in t["self_ns"].items() if k.split(".", 1)[0] == layer)
            shares.append(own / total if total else 0.0)
        out[f"layer.{layer}.self_share"] = (med(shares), "ratio", n)

    overhead = med([r["wall_s"] for r in traced]) - med([r["wall_s"] for r in plain])
    out["trace_overhead_s"] = (overhead, "s", n)
    return out, ladders


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    docs = workloads.generate(name, seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(docs, work)
    try:
        run.probe()  # compiles the byte code; not counted
        run.setups.clear()
        for _ in range(SETUP_PROBES):
            run.probe()
        plain, traced, rounds = [], [], []
        start = time.perf_counter()

        def another_round() -> bool:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S:
                return not plain
            if len(plain) < (1 if trace else MIN_REPS):
                return True
            return elapsed + statistics.median(rounds) <= seconds

        # The probe before each round spreads the set-up samples over the run.
        while another_round():
            t0 = time.perf_counter()
            run.probe()
            plain.append(run.repetition(len(plain) + len(traced), False))
            if trace:
                spans = WORK / f"spans-{name}-{seed}.json" if not traced else None
                traced.append(run.repetition(len(plain) + len(traced), True, spans))
            rounds.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, ladders = per_layer(run, plain, traced)
        (WORK / f"ladders-{name}-{seed}.json").write_text(json.dumps(ladders, indent=1))
        for metric, info in ladders.items():
            sizes = info["sizes"]
            span = f"{len(sizes)} sizes from {sizes[0]} to {sizes[-1]}" if sizes else "no sizes"
            print(f"{metric}: fitted over {info['x']}, {span}", file=sys.stderr)
    else:
        metrics = end_to_end(run, plain)
    failed = len(run.failures)
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    speeds = [scale(r) for r in plain + traced if r["wall_s"] is not None]
    print(f"workload {name}  seed {seed}  repetitions {len(plain) + len(traced)}"
          f"  documents {run.attempted}"
          f"  reference s per measured s {statistics.median(speeds):.3f}")
    for metric, (value, unit, count) in metrics.items():
        print(f"  {metric:40s} {value:14.6g} {unit:6s} n={count}")
    print(f"  {'fail_rate':40s} {failed / max(run.attempted, 1):14.6g} {'ratio':6s}"
          f" n={run.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }))
    return 0


def quick() -> bool:
    """Run the smallest rung of every workload once, traced; True if all pass
    and the metrics reported are the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for name in workloads.NAMES:
        run = Run(workloads.generate(name, 0, quick=True), WORK / f"quick-{name}")
        shutil.rmtree(run.work, ignore_errors=True)
        run.probe()
        result = run.repetition(0, trace=True)
        shutil.rmtree(run.work, ignore_errors=True)
        reported = set(end_to_end(run, [result])) | set(per_layer(run, [result], [result])[0])
        if reported != declared:
            run.failures.append(f"metrics differ from BENCHMARK.json: {reported ^ declared}")
        status = "ok" if not run.failures else "FAILED " + " | ".join(run.failures)
        print(f"quick {name}: {run.attempted} documents in {result['wall_s']:.3f} s: {status}")
        ok = ok and not run.failures
    return ok


def selftest() -> bool:
    """The gate must pass good documents and fire on bad ones."""
    ok = quick()
    good = workloads.generate("deep_tau", 0, quick=True)[0]
    key = workloads.doc_key(good)
    bad_exit = dict(good, argv=good["argv"][:4] + ["2/4"] + good["argv"][5:])
    run = Run([good, bad_exit], WORK / "selftest")
    shutil.rmtree(run.work, ignore_errors=True)
    run.repetition(0, trace=False)
    checks = {"a non-zero exit fails, the good document passes": (
        run.attempted == 2 and len(run.failures) == 1 and "exit code 1" in run.failures[0])}
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        out = run.work / "good.json"
        hfroots_main(good["argv"] + ["--out", str(out)])
        data = out.read_bytes()
        out.write_bytes(data.replace(b'"d_invariant": "0/1"', b'"d_invariant": "2/1"', 1))
        checks["a corrupted document fails its digest"] = any(
            "digest" in s for s in gate.problems("compute", key, 0, out, run.digests))
        checks["a corrupted document fails an invariant"] = any(
            "2 min tau" in s for s in gate.problems("compute", key, 0, out, {}))
        out.write_bytes(data[: len(data) // 2])
        checks["a truncated document fails"] = any(
            "malformed" in s for s in gate.problems("compute", key, 0, out, {}))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for what, passed in checks.items():
        print(f"selftest: {what}: {'ok' if passed else 'FAILED'}")
    return ok and all(checks.values())


def hfroots_main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hfroots.cli import main

    return main(argv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.NAMES)
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hfroots" / "cli.py").is_file():
        print(f"error: no hfroots sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.quick:
        return 0 if quick() else 1
    if args.selftest:
        return 0 if selftest() else 1
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
