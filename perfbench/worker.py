"""One benchmark worker process: set up, run timed passes, check outputs.

Usage (started by run.py; the job is one JSON argument):

    python3 perfbench/worker.py '{"workload": "probe-sweep", "seed": 1,
        "mode": "run", "seconds": 5.0, "min_passes": 1, "out": ".perfbench"}'

``mode`` is ``setup`` (set up and stop), ``run`` (untraced passes) or
``traced`` (passes with the layer wrappers installed). The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS and OpenMP to one thread before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (imports numpy and legendrelab)
import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": threads,
            "blas_env": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def setup(workload: str, seed: int):
    """Inputs plus warm-up; the caller times this from process start."""
    if workload == "conjugate-sweep":
        inputs = wl.conj_setup(seed)
        wl.conj_warmup(inputs)
        return inputs
    if workload == "probe-sweep":
        ops = wl.probe_setup(seed)
        wl.probe_warmup(ops)
        return ops
    return None   # verify-paper: importing legendrelab is the whole set-up


def timed_pass(workload: str, state, seed: int, out_dir: Path) -> wl.PassResult:
    if workload == "conjugate-sweep":
        return wl.conj_pass(state)
    if workload == "probe-sweep":
        return wl.probe_pass(state)
    return wl.verify_pass(seed, out_dir)


def check_pass(workload: str, res: wl.PassResult, out_dir: Path
               ) -> tuple[wl.CheckResult, dict | None]:
    if workload == "conjugate-sweep":
        return wl.conj_check(res), None
    if workload == "probe-sweep":
        return wl.probe_check(res), None
    return wl.verify_check(res, out_dir)


def main(job: dict) -> dict:
    workload, seed, mode = job["workload"], int(job["seed"]), job["mode"]
    out = Path(job["out"])
    state = setup(workload, seed)
    setup_s = time.perf_counter() - T_START
    result = {"workload": workload, "mode": mode, "setup_s": setup_s,
              "env": environment(), "pass_s": [], "latencies": [],
              "attempted": 0, "failed": 0, "notes": [], "counts": {},
              "hashes": []}
    if mode == "setup":
        return result

    tracer = Tracer() if mode == "traced" else None
    budgets: list[tuple[int, int]] = []
    t_begin = time.perf_counter()
    k = 0
    while True:
        out_dir = out / "tmp" / f"verify-{os.getpid()}-{k}"
        try:
            if tracer is not None:
                layer_metrics.install(tracer, budgets)
            try:
                res = timed_pass(workload, state, seed, out_dir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            chk, hashes = check_pass(workload, res, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        k += 1
        result["pass_s"].append(res.wall_s)
        result["latencies"] += res.latencies
        result["attempted"] += chk.attempted
        result["failed"] += chk.failed
        result["notes"] += chk.notes
        for key, n in chk.counts.items():
            result["counts"][key] = result["counts"].get(key, 0) + n
        if hashes is not None:
            result["hashes"].append(hashes)
        del res   # free this pass's outputs before the next pass runs
        elapsed = time.perf_counter() - t_begin
        if k >= job["min_passes"] and elapsed + elapsed / k > job["seconds"]:
            break
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        spans = tracer.spans()
        result["layers"] = layer_metrics.summarize(spans, budgets)
        result["spans"] = len(spans)
        trace_path = out / f"trace-{workload}-seed{seed}.json.gz"
        tracer.dump(trace_path)
        result["trace_file"] = str(trace_path)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
