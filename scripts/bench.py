#!/usr/bin/env python3
"""Fresh-process timings of one or more source trees, run alternately.

Each tree is the ``src`` directory of a checkout that also holds
``perfbench/run.py``, given as ``LABEL=DIR`` or just ``DIR``. Every round
runs, once per tree, a new process that times ``import legendrelab``, a
new process running ``legendrelab verify-paper --experiment all --seed
42``, whose wall time is taken from outside, and that checkout's own
``perfbench/run.py --trace 0`` for each of its three workloads, keeping
their end-to-end metrics. Every checkout's ``src`` and ``perfbench`` are
byte-compiled before the first round, so all trees start from the same
bytecode cache and their set-up times compare like with like. The tree
order flips every round, so drift on a shared machine hits both sides
alike. The JSON written to ``--out`` holds
the machine (CPU count and model, Python, numpy and scipy versions, scipy
null when it is not installed, git HEAD, load averages) and, per tree,
the median, quartiles and raw runs of every timing and metric plus the
sha256 of the verify-paper manifest.

    python scripts/bench.py --rounds 10 --out BENCH.json base=../base/src src
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
VERIFY = ["-m", "legendrelab", "verify-paper", "--experiment", "all",
          "--seed", "42"]
# perfbench workloads and their seeds, each run for BENCHMARK.json's run_seconds
PERFBENCH = {"verify-paper": 42, "conjugate-sweep": 1, "probe-sweep": 11}
PERFBENCH_SECONDS = 20
IMPORT = ("import time; t = time.perf_counter(); import legendrelab; "
          "print(time.perf_counter() - t); print(legendrelab.__file__)")


def _run(tree: Path, args: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)


def _import_s(tree: Path, cwd: str) -> float:
    seconds, origin = _run(tree, ["-c", IMPORT], cwd).stdout.split()
    if not Path(origin).resolve().is_relative_to(tree):
        raise SystemExit(f"legendrelab imported from {origin}, not {tree}")
    return float(seconds)


def _verify_s(tree: Path, cwd: str) -> tuple[float, str]:
    out = Path(tempfile.mkdtemp(dir=cwd))
    start = time.perf_counter()
    _run(tree, [*VERIFY, "--out", str(out)], cwd)
    wall = time.perf_counter() - start
    return wall, hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()


def _perfbench_args(workload: str) -> list[str]:
    return ["--workload", workload, "--seed", str(PERFBENCH[workload]),
            "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"]


def _perfbench(tree: Path, workload: str) -> dict[str, float]:
    """End-to-end metrics of one perfbench run by the tree's checkout."""
    root = tree.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           *_perfbench_args(workload)],
                          cwd=root, env=env, capture_output=True, text=True,
                          check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} in {root}: {res['failed']} of "
                         f"{res['attempted']} ops failed")
    return {name: m["value"] for name, m in res["metrics"].items()}


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "quartiles": [q1, q3],
            "runs": runs}


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _machine() -> dict:
    import numpy
    try:    # scipy is a test-only dependency; the package runs without it
        import scipy
    except ImportError:
        scipy = None

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": None if scipy is None else scipy.__version__,
            "git_head": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "loadavg": list(os.getloadavg())}


def _parse_tree(arg: str) -> tuple[str, Path]:
    label, sep, path = arg.partition("=")
    tree = Path(path if sep else arg).resolve()
    if not (tree / "legendrelab" / "__init__.py").is_file():
        raise SystemExit(f"no legendrelab package in {tree}")
    if not (tree.name == "src"
            and (tree.parent / "perfbench" / "run.py").is_file()):
        raise SystemExit(f"{tree} is not the src of a checkout with "
                         "perfbench/run.py")
    return (label if sep else tree.name), tree


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", help="LABEL=DIR or DIR of a src tree")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = dict(_parse_tree(a) for a in args.trees)
    if len(trees) != len(args.trees):
        raise SystemExit("tree labels must be distinct")
    if args.rounds < 2:
        raise SystemExit("--rounds must be at least 2")

    machine = _machine()
    times = {label: {"import_s": [], "verify_paper_s": []} for label in trees}
    bench = {label: {w: [] for w in PERFBENCH} for label in trees}
    hashes = {label: set() for label in trees}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree),
                        str(tree.parent / "perfbench")], check=True)
    order = list(trees)
    with tempfile.TemporaryDirectory() as cwd:
        for r in range(args.rounds):
            for label in order if r % 2 == 0 else order[::-1]:
                times[label]["import_s"].append(_import_s(trees[label], cwd))
                wall, sha = _verify_s(trees[label], cwd)
                times[label]["verify_paper_s"].append(wall)
                hashes[label].add(sha)
                line = (f"round {r + 1}/{args.rounds} {label}: "
                        f"import {times[label]['import_s'][-1]:.3f} s, "
                        f"verify-paper {wall:.3f} s")
                for w, runs in bench[label].items():
                    runs.append(_perfbench(trees[label], w))
                    line += f", {w} run_s {runs[-1]['run_s']:.3f} s"
                print(line, flush=True)
    machine["loadavg_end"] = list(os.getloadavg())

    commands = {"import_s": "import legendrelab (in a new process)",
                "verify_paper_s": "legendrelab " + " ".join(VERIFY[2:])}
    for w in PERFBENCH:
        commands[w] = " ".join(["python3 perfbench/run.py",
                                *_perfbench_args(w)])
    per_tree = {}
    for label, t in times.items():
        per_tree[label] = {"import_s": _summary(t["import_s"]),
                           "verify_paper_s": _summary(t["verify_paper_s"]),
                           "manifest_sha256": sorted(hashes[label]),
                           "perfbench": {
                               w: {name: _summary([run[name] for run in runs])
                                   for name in runs[0]}
                               for w, runs in bench[label].items()}}
    report = {"kind": "bench", "commands": commands, "machine": machine,
              "rounds": args.rounds, "trees": per_tree}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for label, t in report["trees"].items():
        print(f"{label}: import median {t['import_s']['median']:.3f} s, "
              f"verify-paper median {t['verify_paper_s']['median']:.3f} s"
              + "".join(f", {w} run_s median {m['run_s']['median']:.3f} s"
                        for w, m in t["perfbench"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
