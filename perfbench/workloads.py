"""Inputs, timed ops and output checks of the three benchmark workloads.

Every workload is driven by one closed-loop caller: the next op starts when
the previous one returns. Library functions are looked up on their module
at call time (``ll.conjugate_fast``, ``projections.solve_relative_projection``)
so that a traced run sees the calls through its wrappers. Checks run outside
the timed calls, after the wrappers are removed; a failed check or an op
that raised counts as one failed op.

Importing this module imports numpy and legendrelab, so a worker times the
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import qmc

import legendrelab as ll
from legendrelab import (catalog, experiments, generators, projections,
                         report_io)
from legendrelab.tolerances import DEFAULT_TOLS

# conjugate-sweep size classes: (label, dim, primal n, dual n, inputs per
# pass). One input gives two ops (conjugate_fast, then biconjugate), so a
# pass is 200 ops. Sorted by latency, the 1d201 ops take ranks 0-70%
# (p50 sits inside its biconjugate half, 35-70%) and the 2d121 biconjugate
# ops take 93-98% (p95 sits inside them, ten ops beyond it per pass).
CONJ_CLASSES = (
    ("1d201", 1, 201, 241, 70),
    ("1d1001", 1, 1001, 1001, 10),
    ("2d81", 2, 81, 121, 8),
    ("2d121", 2, 121, 121, 10),
    ("2d201", 2, 201, 201, 2),
)
CONJ_SAMPLES = 16          # dual points checked against the oracle per op

# probe-sweep grids: (label, points per axis, tilts per set and objective).
# 12 sets x 2 objectives: 720 ops on 101^2 and 240 on 201^2 per pass, so
# p50 sits inside the 101^2 class (ranks 0-75%) and p95 inside 201^2.
PROBE_GRIDS = (("101", 101, 30), ("201", 201, 10))


def rel_close(a: float, b: float) -> bool:
    """The oracle rule of the acceptance suite: |a - b| <= rel_fast (1 + max)."""
    return abs(a - b) <= DEFAULT_TOLS.rel_fast * (1.0 + max(abs(a), abs(b)))


@dataclass
class PassResult:
    """One timed pass: op latencies by class plus what the checks need."""

    wall_s: float = 0.0
    latencies: list[tuple[str, float]] = field(default_factory=list)  # (class, ms)
    outputs: list = field(default_factory=list)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)


# ---------------------------------------------------------------------------
# conjugate-sweep


@dataclass
class ConjInput:
    label: str
    f: ll.GridFunction
    dual: ll.Grid
    sample: np.ndarray     # dual flat indices checked against the oracle


def conj_setup(seed: int) -> list[ConjInput]:
    rng = np.random.default_rng(seed)
    inputs = []
    for label, dim, n, m, count in CONJ_CLASSES:
        make = ll.grid_1d if dim == 1 else ll.grid_2d
        primal, dual = make(-2.0, 2.0, n), make(-3.0, 3.0, m)
        for k in range(count):
            f = generators.random_grid_function(rng, primal, inf_frac=0.10,
                                                name=f"{label}_{k}")
            sample = rng.choice(dual.size, size=CONJ_SAMPLES, replace=False)
            inputs.append(ConjInput(label, f, dual, sample))
    order = rng.permutation(len(inputs))
    return [inputs[i] for i in order]


def conj_warmup(inputs: list[ConjInput]) -> None:
    seen = set()
    for inp in inputs:
        if inp.label not in seen:
            seen.add(inp.label)
            ll.conjugate_fast(inp.f, inp.dual)
            ll.biconjugate(inp.f, inp.dual)


def _call(res: PassResult, label: str, fn, *args):
    """One timed op. Its latency is recorded when it returns; an exception
    is returned in place of the result, for the check to report."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as err:   # any library error is one failed op
        return err
    res.latencies.append((label, (time.perf_counter() - t0) * 1e3))
    return out


def conj_pass(inputs: list[ConjInput]) -> PassResult:
    res = PassResult()
    t_pass = time.perf_counter()
    for inp in inputs:
        star = _call(res, inp.label + ".fast", ll.conjugate_fast, inp.f, inp.dual)
        bicon = _call(res, inp.label + ".bicon", ll.biconjugate, inp.f, inp.dual)
        res.outputs.append((inp, star, bicon))
    res.wall_s = time.perf_counter() - t_pass
    return res


def check_conjugate(inp: ConjInput, star, chk: CheckResult) -> None:
    """Sampled oracle check of one conjugate_fast result."""
    chk.attempted += 1
    if isinstance(star, Exception):
        chk.fail(f"{inp.f.name}: conjugate_fast raised {star!r}")
        return
    f = inp.f
    pts = f.grid.points
    interior = f.grid.interior_flat
    chk.add("dual_points", star.trusted.size)
    chk.add("trusted", int(star.trusted.sum()))
    for k in inp.sample:
        s = inp.dual.point(int(k))
        brute, _ = ll.conjugate_value(f, s)
        vals = pts @ s - f.flat
        brute_trusted = bool(((vals >= vals.max()) & interior).any())
        got = float(star.dual.flat[k])
        arg = int(star.argmax[k])
        attained = float(pts[arg] @ s - f.flat[arg])
        if bool(star.trusted[k]) != brute_trusted:
            chk.fail(f"{f.name}: trust bit differs from brute at dual {k}")
            return
        if not rel_close(got, brute):
            chk.fail(f"{f.name}: f*={got!r} but brute gives {brute!r} at dual {k}")
            return
        if not rel_close(attained, got):
            chk.fail(f"{f.name}: argmax {arg} attains {attained!r}, not {got!r}")
            return


def check_biconjugate(inp: ConjInput, bicon, chk: CheckResult) -> None:
    """f** <= f + eps_fp (1 + |f|) on every domain point."""
    chk.attempted += 1
    if isinstance(bicon, Exception):
        chk.fail(f"{inp.f.name}: biconjugate raised {bicon!r}")
        return
    f = inp.f.flat
    dom = np.isfinite(f)
    slack = DEFAULT_TOLS.eps_fp * (1.0 + np.abs(f[dom]))
    excess = bicon.function.flat[dom] - f[dom] - slack
    if not (excess <= 0.0).all():
        chk.fail(f"{inp.f.name}: f** exceeds f by {float(excess.max()):.3g}")


def conj_check(res: PassResult) -> CheckResult:
    chk = CheckResult()
    for inp, star, bicon in res.outputs:
        check_conjugate(inp, star, chk)
        check_biconjugate(inp, bicon, chk)
    return chk


# ---------------------------------------------------------------------------
# probe-sweep


@dataclass
class ProbeOp:
    label: str
    f: ll.GridFunction
    S: ll.ConstraintSet
    tilt: np.ndarray


def _objectives(grid: ll.Grid) -> list[ll.GridFunction]:
    """The detector (|x|^2/2) and farthest-point (-|x|^2/2) objectives."""
    return [ll.build_grid_function(grid, lambda p: 0.5 * (p * p).sum(axis=-1),
                                   name="0.5|x|^2", vectorized=True),
            ll.build_grid_function(grid, lambda p: -0.5 * (p * p).sum(axis=-1),
                                   name="-0.5|x|^2", vectorized=True)]


def probe_setup(seed: int) -> list[ProbeOp]:
    ops = []
    for label, n, k in PROBE_GRIDS:
        grid = ll.grid_2d(-2.0, 2.0, n)
        sets = [catalog.make_set(name, grid) for name in catalog.SET_NAMES]
        for j, f in enumerate(_objectives(grid)):
            lo, hi = projections.probe_box(f)
            u = qmc.Halton(d=2, scramble=True,
                          seed=np.random.default_rng([seed, n, j])).random(k)
            tilts = lo[None, :] + u * (hi - lo)[None, :]
            ops += [ProbeOp(label, f, S, s) for S in sets for s in tilts]
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def probe_warmup(ops: list[ProbeOp]) -> None:
    seen = set()
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            projections.solve_relative_projection(op.f, op.S, op.tilt)


def probe_pass(ops: list[ProbeOp]) -> PassResult:
    res = PassResult()
    t_pass = time.perf_counter()
    for op in ops:
        cert = _call(res, op.label, projections.solve_relative_projection,
                     op.f, op.S, op.tilt)
        res.outputs.append((op, cert))
    res.wall_s = time.perf_counter() - t_pass
    return res


def check_projection(op: ProbeOp, cert, chk: CheckResult) -> None:
    """The minimizer is a member of S and attains the masked brute minimum
    (to the library's tie tolerance, since it reports the first of a tie)."""
    chk.attempted += 1
    if isinstance(cert, Exception):
        chk.fail(f"{op.S.name}: solve_relative_projection raised {cert!r}")
        return
    chk.add("shells", cert.modulus.empty.size)
    chk.add("empty_shells", int(cert.modulus.empty.sum()))
    mem = op.S.members
    tilted = op.f.flat[mem] - op.f.grid.points[mem] @ op.tilt
    brute = float(tilted.min())
    coord = max(abs(lo) + abs(hi) for lo, hi in op.f.grid.bounds)
    tie = DEFAULT_TOLS.eps_fp * (1.0 + abs(brute)
                                 + float(np.abs(op.tilt).sum()) * coord)
    x = cert.minimizer
    if not op.S.mask[x]:
        chk.fail(f"{op.S.name}: minimizer {x} is not a member")
        return
    at_x = float(op.f.flat[x] - op.f.grid.points[x] @ op.tilt)
    if not rel_close(cert.value, brute):
        chk.fail(f"{op.S.name}: value {cert.value!r} but brute min {brute!r}")
    elif at_x > brute + tie:
        chk.fail(f"{op.S.name}: minimizer value {at_x!r} above min {brute!r}")


def probe_check(res: PassResult) -> CheckResult:
    chk = CheckResult()
    for op, cert in res.outputs:
        check_projection(op, cert, chk)
    return chk


# ---------------------------------------------------------------------------
# verify-paper


def verify_pass(seed: int, out_dir: Path) -> PassResult:
    """One ``run_experiments("all")`` call, which is one op."""
    res = PassResult()
    t0 = time.perf_counter()
    res.outputs.append(_call(res, "all", experiments.run_experiments,
                             "all", out_dir, seed))
    res.wall_s = time.perf_counter() - t0
    return res


def verify_check(res: PassResult, out_dir: Path) -> tuple[CheckResult, dict]:
    """Every experiment passed; returns the manifest's artifact hashes so
    the caller can compare them across passes."""
    chk = CheckResult(attempted=1)
    out = res.outputs[0]
    if isinstance(out, Exception):
        chk.fail(f"run_experiments raised {out!r}")
        return chk, {}
    passed, results = out
    failing = [r.name for r in results if not r.passed]
    if not passed or failing or len(results) != len(experiments.EXPERIMENT_NAMES):
        chk.fail(f"experiments failed: {failing}")
    manifest = report_io.read_json(out_dir / "manifest.json")
    hashes = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    stale = [p for p, h in hashes.items()
             if hashlib.sha256((out_dir / p).read_bytes()).hexdigest() != h]
    if stale and not chk.failed:
        chk.fail(f"manifest hash differs from artifact bytes: {stale}")
    return chk, hashes
