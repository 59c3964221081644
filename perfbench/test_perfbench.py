"""Self-tests of the benchmark's own accounting and checks.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import legendrelab as ll  # noqa: E402
from legendrelab import catalog, generators, moduli, projections  # noqa: E402

import workloads as wl  # noqa: E402
from run import hash_mismatches, percentile  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402


class FakeClock:
    """Advances by a fixed step in ns each time it is read."""

    def __init__(self, step: int = 10):
        self.t = 0
        self.step = step

    def __call__(self) -> int:
        self.t += self.step
        return self.t


def test_self_time_of_nested_spans():
    # a [0, 100] holds b [10, 40] (which holds c [20, 30]) and d [50, 90]
    spans = SpanTable(["moduli.a", "grids.b", "grids.c", "conjugate.d"],
                      start=[0, 10, 20, 50], end=[100, 40, 30, 90],
                      parent=[-1, 0, 1, 0])
    assert spans.self_ns() == [30, 20, 10, 40]
    totals = spans.layer_totals()
    assert totals["moduli"] == (1, 30e-9)
    assert totals["grids"] == (2, 30e-9)
    assert totals["conjugate"] == (1, 40e-9)
    assert sum(s for _, s in totals.values()) == 100e-9   # covers the root


def test_busy_time_counts_recursion_once_and_probes_attach_to_root():
    spans = SpanTable(["f", "f", "g", "root", "g"],
                      start=[0, 5, 6, 100, 110], end=[50, 20, 8, 200, 120],
                      parent=[-1, 0, 1, -1, 3])
    assert spans.function_totals("f") == (2, 50e-9)
    assert spans.count_under("g", {0, 3}) == {0: 1, 3: 1}


def test_tracer_spans_from_fake_clock():
    tr = Tracer(clock=FakeClock())
    outer = tr.open("projections.outer")
    inner = tr.open("grids.inner", tag="t")
    tr.close(inner)
    tr.close(outer)
    spans = tr.spans()
    assert spans.parent == [-1, 0]
    assert spans.self_ns() == [20, 10]
    assert spans.tags == {1: "t"}


def test_wrapping_catches_from_import_aliases():
    grid = ll.grid_2d(-1.0, 1.0, 11)
    f = ll.build_grid_function(grid, lambda p: 0.5 * (p * p).sum(axis=-1),
                               vectorized=True)
    original = moduli.shell_ladder
    tr = Tracer()
    tr.install()
    try:
        assert moduli.shell_ladder is not original
        moduli.shell_ladder(grid, 0)          # the alias bound in moduli
        ll.firm_modulus(f, 60, [0.0, 0.0])    # reaches it from inside moduli
    finally:
        tr.uninstall()
    assert moduli.shell_ladder is original
    spans = tr.spans()
    ladders = [i for i, n in enumerate(spans.names) if n == "grids.shell_ladder"]
    assert len(ladders) == 2
    assert spans.parent[ladders[0]] == -1
    assert spans.names[spans.parent[ladders[1]]] == "moduli.firm_modulus"
    assert "grids.tilted" in spans.names       # wrapped on the class


def test_wrapping_patches_runner_table():
    from legendrelab import experiments

    original = experiments._RUNNERS["ex1"]
    tr = Tracer()
    tr.install()
    try:
        assert experiments._RUNNERS["ex1"] is not original
    finally:
        tr.uninstall()
    assert experiments._RUNNERS["ex1"] is original


def _conj_input():
    rng = np.random.default_rng(5)
    f = generators.random_grid_function(rng, ll.grid_1d(-2.0, 2.0, 201))
    dual = ll.grid_1d(-3.0, 3.0, 241)
    return wl.ConjInput("1d201", f, dual, rng.choice(dual.size, 16, replace=False))


def test_conjugate_checks_pass_then_catch_corruption():
    inp = _conj_input()
    star = ll.conjugate_fast(inp.f, inp.dual)
    bicon = ll.biconjugate(inp.f, inp.dual)
    chk = wl.CheckResult()
    wl.check_conjugate(inp, star, chk)
    wl.check_biconjugate(inp, bicon, chk)
    assert (chk.attempted, chk.failed) == (2, 0)

    vals = star.dual.flat.copy()
    vals[inp.sample[3]] += 1e-9
    bad = dataclasses.replace(star, dual=ll.GridFunction(inp.dual, vals))
    chk = wl.CheckResult()
    wl.check_conjugate(inp, bad, chk)
    assert (chk.attempted, chk.failed) == (1, 1)

    raised = wl.CheckResult()
    wl.check_conjugate(inp, RuntimeError("boom"), raised)
    assert raised.failed == 1


def test_biconjugate_check_catches_value_above_f():
    inp = _conj_input()
    bicon = ll.biconjugate(inp.f, inp.dual)
    vals = bicon.function.flat.copy()
    k = int(np.flatnonzero(np.isfinite(inp.f.flat))[7])
    vals[k] = inp.f.flat[k] + 1e-3
    bad = dataclasses.replace(bicon, function=ll.GridFunction(inp.f.grid, vals))
    chk = wl.CheckResult()
    wl.check_biconjugate(inp, bad, chk)
    assert chk.failed == 1


def test_projection_check_catches_wrong_minimizer():
    grid = ll.grid_2d(-2.0, 2.0, 41)
    f = wl._objectives(grid)[0]
    S = catalog.make_set("disk", grid)
    op = wl.ProbeOp("41", f, S, np.array([1.5, 0.2]))
    cert = projections.solve_relative_projection(f, S, op.tilt)
    chk = wl.CheckResult()
    wl.check_projection(op, cert, chk)
    assert (chk.attempted, chk.failed) == (1, 0)

    other = int(next(m for m in S.members if m != cert.minimizer))
    for wrong in (other, int(np.flatnonzero(~S.mask)[0])):
        chk = wl.CheckResult()
        wl.check_projection(op, dataclasses.replace(cert, minimizer=wrong), chk)
        assert chk.failed == 1, wrong


def test_hash_mismatch_counts_passes_that_differ_from_the_first():
    same = {"a.json": "1"}
    results = [{"hashes": [same]}, {"hashes": [same, {"a.json": "2"}]}]
    assert hash_mismatches(results) == 1


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.5
    assert abs(percentile(values, 95) - 95.05) < 1e-9
    assert percentile([3.0], 95) == 3.0
