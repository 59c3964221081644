"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import legendrelab as ll
from legendrelab.catalog import (convex_entries, entries, entry,
                                 finite_difference_hessian, fourth_root_well,
                                 fourth_root_well_hessian,
                                 fourth_root_well_hessian_det, make_set)
from legendrelab.generators import (random_convex_1d, random_grid_function)
from legendrelab.report_io import read_json
from legendrelab.tolerances import DEFAULT_TOLS

REL_TOL = 1e-12       # fast-vs-brute relative equality
FY_FLOOR = -1e-9      # Fenchel-Young gap floor
HESS_TOL = 1e-6       # closed-form Hessian agreement
ORACLE_BUDGET_S = 60.0
SUITE_BUDGET_S = 600.0


def _ok(name, detail=""):
    print(f"PASS {name}" + (f" [{detail}]" if detail else ""))


def _rel_close(a, b):
    return np.abs(a - b) <= REL_TOL * (1.0 + np.maximum(np.abs(a), np.abs(b)))


def _assert_argmax_attains(res, f, d, i):
    arg = res.argmax
    attained = (f.grid.points[arg] * d.points).sum(axis=1) - f.flat[arg]
    assert _rel_close(attained, res.dual.flat).all(), i


def test_criterion_01_conjugation_oracle_equivalence():
    """Fast transform equals the brute-force oracle on random functions."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for i in range(50):
        g = ll.grid_1d(-2.0, 2.0, 1001)
        lo = float(rng.uniform(-4.0, -1.0))
        hi = float(rng.uniform(1.0, 4.0))
        d = ll.grid_1d(lo, hi, 1001)
        if i % 2 == 0:
            f = random_grid_function(rng, g, inf_frac=0.10)
        else:
            f = random_convex_1d(rng, g, strongly=bool(i % 4 == 1), boxed=True)
        fast = ll.conjugate_fast(f, d)
        brute = ll.conjugate_brute(f, d)
        tr = brute.trusted
        assert _rel_close(fast.dual.flat[tr], brute.dual.flat[tr]).all(), i
        assert (fast.trusted == brute.trusted).all(), i
        _assert_argmax_attains(fast, f, d, i)
    for i in range(10):
        g = ll.grid_2d(-2.0, 2.0, 101)
        d = ll.grid_2d(-3.0, 3.0, 101)
        f = random_grid_function(rng, g, inf_frac=0.10)
        fast = ll.conjugate_fast(f, d)
        brute = ll.conjugate_brute(f, d)
        tr = brute.trusted
        assert _rel_close(fast.dual.flat[tr], brute.dual.flat[tr]).all(), i
        assert (fast.trusted == brute.trusted).all(), i
        _assert_argmax_attains(fast, f, d, i)
    elapsed = time.monotonic() - t0
    assert elapsed < ORACLE_BUDGET_S
    _ok("criterion 1: conjugation oracle equivalence",
        f"50x1D + 10x2D in {elapsed:.1f}s")


def test_criterion_02_biconjugate_idempotence():
    for e in convex_entries():
        bic = ll.biconjugate(e.build(), e.dual_grid)
        assert bic.consistent, (e.id, bic.max_gap, bic.tol_bicon)

    e = entry("double_well")
    f = e.build()
    bic = ll.biconjugate(f, e.dual_grid)
    x = f.grid.points[:, 0]
    envelope = np.maximum(np.abs(x) - 1.0, 0.0)
    sel = bic.trusted & f.domain_flat
    assert np.abs(bic.function.flat[sel] - envelope[sel]).max() <= bic.tol_bicon
    inside = np.abs(x) <= 1.0 + 1e-12
    assert np.abs(bic.function.flat[inside]).max() <= bic.tol_bicon
    _ok("criterion 2: biconjugate idempotence",
        f"{len(convex_entries())} convex entries + double-well envelope")


def test_criterion_03_fenchel_young():
    worst = 0.0
    for e in entries():
        f = e.build()
        res = ll.conjugate_fast(f, e.dual_grid)
        pts = f.grid.points
        duals = e.dual_grid.points
        fv = f.flat
        fs = res.dual.flat
        chunk = 512
        lo_gap = np.inf
        for lo in range(0, e.dual_grid.size, chunk):
            hi = min(lo + chunk, e.dual_grid.size)
            gaps = fv[None, :] + fs[lo:hi, None] - duals[lo:hi] @ pts.T
            finite = np.isfinite(gaps)
            if finite.any():
                lo_gap = min(lo_gap, float(gaps[finite].min()))
        assert lo_gap >= FY_FLOOR, (e.id, lo_gap)
        worst = min(worst, lo_gap)

    # analytically known subgradient pairs pass the gap threshold
    e = entry("abs")
    f = e.build()
    res = ll.conjugate_fast(f, e.dual_grid)
    x0 = f.grid.index_of_nearest([0.0])
    sub = ll.subgradients(f, res, x0)
    s = e.dual_grid.points[:, 0]
    inside = np.flatnonzero(np.abs(s) <= 1.0 + 1e-12)
    assert set(inside) <= set(sub.members)

    e = entry("halfsq")
    f = e.build()
    res = ll.conjugate_fast(f, e.dual_grid)
    for v in (-1.5, -0.5, 0.0, 1.0):
        x = f.grid.index_of_nearest([v])
        sub = ll.subgradients(f, res, x)
        grad = f.grid.point(x)[0]
        assert np.any(np.isclose(sub.points()[:, 0], grad, atol=1e-9)), v
    _ok("criterion 3: Fenchel-Young floor and known subgradients",
        f"min gap {worst:.2e} >= {FY_FLOOR}")


def test_criterion_04_example1_reproduction():
    e = entry("fourth_root_well")
    f = e.build()
    g = f.grid

    # (a) closed-form Hessian and determinant at 25 interior points
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            fd = finite_difference_hessian(fourth_root_well, (x, y))
            cl = fourth_root_well_hessian((x, y))
            assert np.abs(fd - cl).max() <= HESS_TOL, (x, y)
            det_fd = fd[0, 0] * fd[1, 1] - fd[0, 1] ** 2
            assert abs(det_fd - fourth_root_well_hessian_det((x, y))) <= HESS_TOL

    # (b) zero total-convexity modulus along the flat edge
    m = ll.total_convexity_modulus(f, g.index_of_nearest([0.0, 1.0]))
    sel = (m.radii > 0) & (m.radii <= 1.0) & ~m.empty
    assert sel.any()
    floors = np.array([DEFAULT_TOLS.delta0(t) for t in m.radii[sel]])
    assert (m.values[sel] <= floors).all()

    # (c) hierarchy verdicts with an edge witness
    rep = ll.classify(f, e.dual_grid)
    t = rep.truth()
    assert t["essentially_firmly_subdifferentiable"]
    assert not t["totally_convex_on_dom"]
    wit = rep.verdicts["totally_convex_on_dom"].witness["point"]["point"]
    assert abs(abs(wit[1]) - 1.0) < 1e-9 or abs(abs(wit[0]) - 1.0) < 1e-9
    _ok("criterion 4: fourth-root well reproduction",
        "Hessian 1e-6, zero edge modulus, edge witness")


def test_criterion_05_example2_reproduction():
    e = entry("sqrt_well")
    f = e.build()
    g = f.grid
    rep = ll.classify(f, e.dual_grid)
    assert not rep.truth()["totally_convex_on_dom_subdiff"]
    wit = rep.verdicts["totally_convex_on_dom_subdiff"].witness["point"]["point"]
    assert np.allclose(np.abs(wit), [1.0, 1.0], atol=1e-9)

    corner = g.index_of_nearest([1.0, 1.0])
    firm = ll.firm_modulus(f, corner, [1.05, 1.05])
    pos, cert, _ = ll.certification_verdict(
        firm, min_radius=DEFAULT_TOLS.cert_min_radius(g.max_spacing))
    assert pos and cert is not None and cert.positive
    _ok("criterion 5: sqrt well reproduction",
        "corner witness; positive-orthant firm certificate positive")


def test_criterion_06_lemma_agreement():
    ids = ("halfsq", "abs", "quartic", "exp", "neg_entropy", "box_indicator")
    total = 0
    for eid in ids:
        e = entry(eid)
        rep = ll.lemma1_agreement(e.build(), e.dual_grid, n_probes=24)
        assert len(rep.probes) >= 20, eid
        assert not rep.disagreements, (eid, rep.disagreements)
        total += len(rep.probes)

    e = entry("box_indicator")
    s0 = e.dual_grid.index_of_nearest([0.0])
    p = ll.lemma1_agreement(e.build(), e.dual_grid, duals=[s0]).probes[0]
    assert (p.strong_minimum, p.conjugate_differentiable,
            p.firm_certificate) == (False, False, False)
    _ok("criterion 6: strong-min/differentiability/firm agreement",
        f"{len(ids)} entries, {total} probes, zero disagreements")


def test_criterion_07_hierarchy_chain():
    n = 0
    for e in entries():
        rep = ll.classify(e.build(), e.dual_grid)
        assert rep.chain_ok, e.id
        n += 1
    rng = np.random.default_rng(42)
    g = ll.grid_1d(-2.0, 2.0, 201)
    d = ll.grid_1d(-3.0, 3.0, 241)
    for i in range(20):
        f = random_convex_1d(rng, g, strongly=bool(i % 2), boxed=(i % 3 == 0),
                             name=f"rand{i}")
        rep = ll.classify(f, d)
        assert rep.chain_ok, i
        n += 1
    _ok("criterion 7: implication chain", f"{n} classification reports")


def test_criterion_08_domain_chain():
    for e in entries():
        r = ll.domain_chain_check(e.build(), e.dual_grid)
        assert r.inclusion_holds, e.id
        assert r.violations.size == 0, e.id
    _ok("criterion 8: domain chain inclusion",
        f"{len(entries())} entries, zero violations")


def test_criterion_09_farthest_point_experiment():
    g = ll.grid_2d(-2.0, 2.0, 101)
    v = ll.farthest_point_experiment(make_set("singleton", g),
                                     n_probes=200, seed=42)
    assert v.kind == "SINGLETON-CONSISTENT"
    found = {}
    for name in ("pair", "segment", "circle", "square"):
        v = ll.farthest_point_experiment(make_set(name, g), n_probes=200,
                                         seed=42)
        assert v.kind == "WITNESS", name
        found[name] = v.witness_tilt
    _ok("criterion 9: farthest-point experiment",
        f"singleton consistent; witnesses for {sorted(found)}")


def test_criterion_10_convexity_detector():
    g = ll.grid_2d(-2.0, 2.0, 101)
    all_sets = ("box", "disk", "half_plane", "hexagon", "segment",
                "annulus", "crescent", "two_point")
    kinds = {}
    for name in all_sets:
        v = ll.convexity_detector(make_set(name, g), n_probes=200, seed=42)
        kinds[name] = v.kind
        assert v.agreement, name
    for name in ("box", "disk", "half_plane", "hexagon", "segment"):
        assert kinds[name] == "CONVEX-CONSISTENT", name
    for name in ("annulus", "crescent", "two_point"):
        assert kinds[name] == "NONCONVEX", name
    _ok("criterion 10: convexity detector",
        f"{len(all_sets)} sets, verdicts agree with midpoint convexity")


def test_criterion_11_wellposedness_coercivity():
    checked = 0
    for e in entries():
        f = e.build()
        mod, rep = ll.wellposedness_modulus(f, np.zeros(f.grid.dim))
        if rep.boundary_descent or not rep.unique_at_resolution:
            continue
        if not rep.certificate_positive:
            continue
        assert ll.coercivity_check(f).verdict, e.id
        assert rep.strong, e.id
        checked += 1
    assert checked >= 5
    _ok("criterion 11: firm certificate at the minimum forces coercivity",
        f"{checked} qualifying entries, zero counterexamples")


def test_criterion_12_determinism_and_budget(tmp_path):
    t0 = time.monotonic()
    manifests = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "legendrelab", "verify-paper",
             "--experiment", "all", "--seed", "42", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS  overall" in proc.stdout
        manifests.append(read_json(out / "manifest.json"))
    elapsed = time.monotonic() - t0
    assert manifests[0] == manifests[1]
    hashes = {a["path"]: a["sha256"] for a in manifests[0]["artifacts"]}
    assert len(hashes) >= 7
    for name, sha in hashes.items():
        assert (tmp_path / "r2" / name).exists()
    assert elapsed < SUITE_BUDGET_S
    _ok("criterion 12: determinism",
        f"two full runs byte-identical in {elapsed:.0f}s < {SUITE_BUDGET_S:.0f}s")
