"""legendrelab benchmark: three closed-loop workloads timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conjugate-sweep --seed 1 \
        --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn and ends with one JSON
line whose metric names carry the workload as a prefix.

Workloads: ``verify-paper`` (the seven paper experiments, one fresh process
per pass), ``conjugate-sweep`` (conjugate_fast and biconjugate over a fixed
mix of five sizes) and ``probe-sweep`` (relative projections on all twelve
catalog sets, two objectives, two grids). Each op is called by a single
caller that waits for it to return; the library has no queues and no
retries, so no waiting time is measured.

``--trace 0`` prints the end-to-end metrics, measured in processes that
never install the span wrappers. ``--trace 1`` runs an untraced reference
pass and a separate traced pass, and prints the per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans and a full result are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before anything can import numpy;
# worker processes inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify-paper", "conjugate-sweep", "probe-sweep")

RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUPS = 5                # set-ups per run; setup_s is their median
SWEEP_WORKERS = 3         # untraced sweep processes per run
TRACED_PASSES = {"verify-paper": 1, "conjugate-sweep": 2, "probe-sweep": 2}
COVER_TOLERANCE = 0.10    # layer self times must sum to traced run_s +-10%


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self):
        self.t0 = time.monotonic()

    def worker(self, job: dict) -> dict:
        left = RUN_LIMIT_S - (time.monotonic() - self.t0)
        if left <= 1.0:
            raise BenchError("run time limit reached")
        cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker {job['mode']} timed out") from err
        if proc.returncode != 0:
            raise BenchError(f"worker {job['mode']} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job(workload: str, seed: int, mode: str, seconds: float,
        min_passes: int) -> dict:
    return {"workload": workload, "seed": seed, "mode": mode,
            "seconds": seconds, "min_passes": min_passes, "out": str(OUT)}


def untraced_workers(runner: Runner, workload: str, seed: int,
                     seconds: float) -> tuple[list[dict], list[dict]]:
    """Measuring workers plus set-up-only workers (so that there are at
    least SETUPS set-ups). verify-paper runs one pass per fresh process."""
    measured: list[dict] = []
    if workload == "verify-paper":
        while True:
            measured.append(runner.worker(job(workload, seed, "run", 0, 1)))
            elapsed = time.monotonic() - runner.t0
            if len(measured) >= 2 and elapsed * (1 + 1 / len(measured)) > seconds:
                break
    else:
        for _ in range(SWEEP_WORKERS):
            measured.append(runner.worker(
                job(workload, seed, "run", seconds / SWEEP_WORKERS, 1)))
    extra = [runner.worker(job(workload, seed, "setup", 0, 0))
             for _ in range(SETUPS - len(measured))]
    return measured, extra


def hash_mismatches(results: list[dict]) -> int:
    """verify-paper passes whose artifact hashes differ from the first."""
    passes = [h for r in results for h in r["hashes"]]
    return sum(1 for h in passes[1:] if h != passes[0])


def end_to_end(workload: str, measured: list[dict], extra: list[dict]
               ) -> tuple[dict, list[str]]:
    setups = [r["setup_s"] for r in measured + extra]
    passes = [p for r in measured for p in r["pass_s"]]
    lat = sorted(ms for r in measured for _, ms in r["latencies"])
    p95 = percentile(lat, 95)
    beyond = sum(1 for v in lat if v > p95)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(passes), "s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_p95_ms": (p95, "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in measured), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups in fresh processes",
        f"run_s: median of {len(passes)} timed passes, checks excluded",
        f"op_p50_ms / op_p95_ms: {len(lat)} ops, {beyond} beyond p95",
        f"peak_rss_mb: largest ru_maxrss of {len(measured)} workload processes",
    ]
    if workload == "verify-paper":
        notes.append("verify-paper: one op is one run_experiments('all') call;"
                     " with under 200 ops, op_p95_ms is near the slowest op")
    return metrics, notes


def layer_report(reference: dict, traced: dict
                 ) -> tuple[dict, list[str], bool]:
    layers = traced["layers"]
    metrics = {k: (v, u) for k, (v, u) in layers["metrics"].items()}
    untraced_s = statistics.median(reference["pass_s"])
    traced_s = statistics.median(traced["pass_s"])
    traced_total = sum(traced["pass_s"])
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.run_s"] = (traced_s, "s")
    cover = metrics["trace.layer_self_s"][0] / traced_total
    metrics["trace.self_cover_frac"] = (cover, "ratio")
    counts = traced["counts"]
    trusted, duals = counts.get("trusted", 0), counts.get("dual_points", 0)
    metrics["conjugate.trusted_frac"] = (trusted / duals if duals else 0.0,
                                         "ratio")
    empty, shells = counts.get("empty_shells", 0), counts.get("shells", 0)
    metrics["moduli.empty_shell_frac"] = (empty / shells if shells else 0.0,
                                          "ratio")

    notes = [f"traced run: {len(traced['pass_s'])} pass(es), "
             f"{traced['spans']} spans, written to {traced['trace_file']}",
             f"layer self times sum to {cover:.3f} of traced run time"
             f" ({metrics['trace.layer_self_s'][0]:.3f} of {traced_total:.3f} s)",
             f"trace.overhead_frac: traced {traced_s:.4f} s vs untraced "
             f"{untraced_s:.4f} s per pass, from a process without wrappers",
             f"conjugate.trusted_frac: {trusted} / {duals} dual points",
             f"moduli.empty_shell_frac: {empty} / {shells} shells"]
    per_set = layers["probes_per_set"]
    if per_set:
        used = sum(p for _, _, p, _ in per_set)
        base = sum(lim for _, _, _, lim in per_set)
        notes.append(f"projections.budget_frac: {used} / {base} probes")
        notes += [f"  probes {name:<11} {fn.split('.')[-1]:<26} {p:>4} / {lim}"
                  for name, fn, p, lim in per_set]
    ok = abs(cover - 1.0) <= COVER_TOLERANCE
    if not ok:
        notes.append(f"FAIL: layer self times cover {cover:.3f} of traced run"
                     f" time, outside 1 +- {COVER_TOLERANCE}")
    return metrics, notes, ok


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "legendrelab" / "__init__.py").is_file():
        raise BenchError(f"no legendrelab sources under {ROOT / 'src'}")
    runner = Runner()
    if trace:
        n = TRACED_PASSES[workload]
        reference = runner.worker(job(workload, seed, "run", 0, n))
        traced = runner.worker(job(workload, seed, "traced", 0, n))
        workers = [reference, traced]
        metrics, notes, trace_ok = layer_report(reference, traced)
    else:
        measured, extra = untraced_workers(runner, workload, seed, seconds)
        workers = measured
        metrics, notes = end_to_end(workload, measured, extra)
        trace_ok = True
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    if workload == "verify-paper":
        failed += hash_mismatches(workers)
    for r in workers:
        notes += [f"FAIL: {n}" for n in r["notes"]]
    env = workers[0]["env"]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "env": env, "notes": notes,
            "attempted": attempted, "failed": failed,
            "correct": failed == 0 and trace_ok,
            "wall_s": time.monotonic() - runner.t0,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def report(res: dict) -> None:
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"seconds {res['seconds']}  trace {res['trace']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, threads {env['threads']} "
          f"(BLAS env {env['blas_env']})")
    print("load: closed loop, one caller; waiting time is not measured "
          "(the library has no queues and no retries)")
    for line in res["notes"]:
        print(line)
    for name, m in res["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'fail_frac':<46} {frac:>14.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} ops attempted)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        try:
            res = run(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(res, indent=1) + "\n")
        report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:   # one line for all three: metric names gain the workload prefix
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
