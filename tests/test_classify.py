import dataclasses
import importlib

import numpy as np
import pytest

import legendrelab as ll
from legendrelab import moduli
from legendrelab.catalog import entries, entry
from legendrelab.classify import (CHAIN, _agreement, _Session,
                                  default_sample_plan)
from legendrelab.generators import random_convex_1d, random_grid_function
from legendrelab.subdiff import _domain_chain
from legendrelab.tolerances import DEFAULT_TOLS

from conftest import random_convex_2d
from test_subdiff import _assert_same_report

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("legendrelab.classify")


def test_halfsq2_all_verdicts_true():
    e = entry("halfsq2")
    rep = ll.classify(e.build(), e.dual_grid)
    assert all(v.verdict for v in rep.verdicts.values())
    assert rep.chain_ok


def test_fourth_root_well_report():
    """Essentially strictly convex and firmly subdifferentiable, yet not
    totally convex on its whole domain: the flat edge is the witness."""
    e = entry("fourth_root_well")
    rep = ll.classify(e.build(), e.dual_grid)
    t = rep.truth()
    assert t["essentially_strictly_convex"]
    assert t["essentially_firmly_subdifferentiable"]
    assert t["totally_convex_on_dom_subdiff"]
    assert not t["totally_convex_on_dom"]
    wit = rep.verdicts["totally_convex_on_dom"].witness
    assert abs(abs(wit["point"]["point"][1]) - 1.0) < 1e-9 or \
        abs(abs(wit["point"]["point"][0]) - 1.0) < 1e-9


def test_sqrt_well_report():
    """Not totally convex even on its subdifferential domain: corner witness."""
    e = entry("sqrt_well")
    rep = ll.classify(e.build(), e.dual_grid)
    t = rep.truth()
    assert t["essentially_strictly_convex"]
    assert t["essentially_firmly_subdifferentiable"]
    assert not t["totally_convex_on_dom_subdiff"]
    wit = rep.verdicts["totally_convex_on_dom_subdiff"].witness
    assert np.allclose(np.abs(wit["point"]["point"]), [1.0, 1.0])


@pytest.mark.parametrize("e", entries(), ids=lambda e: e.id)
def test_catalog_expected_verdicts(e):
    rep = ll.classify(e.build(), e.dual_grid)
    assert rep.truth() == e.expected_verdicts
    assert rep.chain_ok


def test_finite_dim_equivalence_on_catalog():
    """In finite dimension the strict and firm rungs coincide."""
    for e in entries():
        v = e.expected_verdicts
        assert (v["essentially_strictly_convex"]
                == v["essentially_firmly_subdifferentiable"]), e.id


def test_chain_on_random_convex_1d():
    rng = np.random.default_rng(3)
    g = ll.grid_1d(-2.0, 2.0, 151)
    d = ll.grid_1d(-3.0, 3.0, 121)
    for i in range(6):
        f = random_convex_1d(rng, g, strongly=bool(i % 2), boxed=(i % 3 == 0))
        rep = ll.classify(f, d)
        assert rep.chain_ok, f"chain broken on draw {i}"


def test_chain_on_random_convex_2d():
    rng = np.random.default_rng(4)
    g = ll.grid_2d(-2.0, 2.0, 41)
    d = ll.grid_2d(-3.0, 3.0, 41)
    for i in range(3):
        f = random_convex_2d(rng, g, strongly=bool(i % 2))
        rep = ll.classify(f, d)
        assert rep.chain_ok, f"chain broken on draw {i}"


def test_rint_total_matches_firm_verdict():
    """At relative-interior subdifferentiable points, totally-convex-at-x
    equals firmly-subdifferentiable-at-x."""
    from legendrelab.classify import _Session

    for eid, probes in [("halfsq", [[-1.0], [0.0], [0.8]]),
                        ("abs", [[0.0], [0.5], [-1.2]]),
                        ("fourth_root_well", [[0.0, 0.0], [0.5, 0.5],
                                              [0.0, 0.975]])]:
        e = entry(eid)
        f = e.build()
        ses = _Session(f, e.dual_grid, ll.NormChoice.L2)
        for p in probes:
            x = f.grid.index_of_nearest(p)
            nbs = [int(f.grid.shift(x, ax, k)) for ax in range(f.grid.dim)
                   for k in (-1, 1)]
            if not all(f.domain_flat[nb] for nb in nbs if nb >= 0):
                continue
            duals = ses.witness_duals(x, 8)
            if not duals:
                continue
            firm_at_x = all(pos for _, (pos, _, _) in moduli._by_blocks(
                moduli._firm_rows, f, [x] * len(duals),
                [e.dual_grid.point(s) for s in duals], norm=ll.NormChoice.L2))
            total_at_x = next(moduli._by_blocks(
                moduli._total_rows, f, [x], norm=ll.NormChoice.L2))[1][0]
            assert firm_at_x == total_at_x, (eid, p)


def test_lemma1_quadratic_all_true(halfsq_1d, dual_fine_1d):
    rep = ll.lemma1_agreement(halfsq_1d, dual_fine_1d, n_probes=20)
    assert rep.lsc_consistent
    assert len(rep.probes) >= 20
    for p in rep.probes:
        assert p.strong_minimum and p.conjugate_differentiable \
            and p.firm_certificate


def test_lemma1_abs_kink_probe(absval_1d, dual_fine_1d):
    """At s=0 the tilted |.| has a strong kink minimum; all legs true.

    Oracle for (a): the modulus is exactly t, a forcing curve.
    """
    s0 = dual_fine_1d.index_of_nearest([0.0])
    rep = ll.lemma1_agreement(absval_1d, dual_fine_1d, duals=[s0])
    p = rep.probes[0]
    assert p.strong_minimum and p.conjugate_differentiable and p.firm_certificate


@pytest.mark.parametrize("eid", ["halfsq", "abs", "quartic", "exp",
                                 "neg_entropy", "box_indicator"])
def test_firm_modulus_at_tilted_minimizer_is_the_wellposedness_curve(eid):
    """Leg (c) of ``lemma1_agreement`` reads the well-posedness certificate:
    at the tilted minimizer x the firm modulus is the same curve, since
    f(u) - f(x) - <u - x, s> = (f - s)(u) - (f - s)(x). Checked bit for bit
    at the 24 tilts per entry that the lemma1 experiment probes."""
    e = entry(eid)
    f = e.build()
    ti = np.flatnonzero(ll.conjugate_fast(f, e.dual_grid).trusted_interior())
    for s_flat in ti[np.unique(np.linspace(0, ti.size - 1, 24).astype(int))]:
        s = e.dual_grid.point(s_flat)
        well, rep = ll.wellposedness_modulus(f, s)
        firm = ll.firm_modulus(f, rep.minimizer, s)
        for field in ("radii", "values", "empty", "witnesses"):
            a, b = getattr(firm, field), getattr(well, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert ll.certification_verdict(firm)[0] == rep.certificate_positive


def test_lemma1_flat_indicator_all_false():
    e = entry("box_indicator")
    f = e.build()
    s0 = e.dual_grid.index_of_nearest([0.0])
    rep = ll.lemma1_agreement(f, e.dual_grid, duals=[s0])
    p = rep.probes[0]
    assert not p.strong_minimum
    assert not p.conjugate_differentiable
    assert not p.firm_certificate
    assert p.agree


def test_lemma1_kink_tilt_three_way_false(absval_1d, dual_fine_1d):
    """At s=1 the tilted |.| flattens on a ray: every leg must go false."""
    s1 = dual_fine_1d.index_of_nearest([1.0])
    rep = ll.lemma1_agreement(absval_1d, dual_fine_1d, duals=[s1])
    p = rep.probes[0]
    assert not p.strong_minimum
    assert not p.conjugate_differentiable
    assert not p.firm_certificate


@pytest.mark.parametrize("share", [0.9, 1.1, 4.0])
def test_lemma1_b_reads_a_kink_of_the_conjugate(share):
    """Leg (b) reads f*'s bracket: a convex kink of slope ``share`` times the
    preimage bound added to f* at a trusted interior dual s, with f
    unchanged, leaves the strong minimum (a) and turns (b) false exactly
    when the bracket, halfsq's own 0.024 plus the kink, passes the bound."""
    e = entry("halfsq")
    ses = _Session(e.build(), e.dual_grid, ll.NormChoice.L2)
    ti = np.flatnonzero(ses.conj.trusted_interior())
    s_flat = int(ti[ti.size // 2])
    t = e.dual_grid.points[:, 0]
    slope = share * DEFAULT_TOLS.preimage_bound(ses.f.grid)
    kink = slope * np.maximum(0.0, t - t[s_flat])
    ses.conj = dataclasses.replace(ses.conj, dual=ll.GridFunction(
        e.dual_grid, ses.conj.dual.flat + kink, name="kinked"))
    p = _agreement(ses, duals=[s_flat]).probes[0]
    assert p.strong_minimum
    assert p.conjugate_differentiable == (share < 1.0)
    assert p.agree == (share < 1.0)


@pytest.mark.parametrize("half_width", [0.02, 0.1, 0.3])
def test_lemma1_b_reads_a_plateau_narrower_than_the_bound(half_width):
    """f = max(|x| - w, 0) has argmin [-w, w] at s = 0, so f* = w |s| there
    has a kink of width 2w, below the preimage bound of 1.0: the bracket
    passes it, the one-cell cut on d f*(s) does not, and all legs agree."""
    g = ll.grid_1d(-2.0, 2.0, 201)
    f = ll.GridFunction(g, np.maximum(np.abs(g.points[:, 0]) - half_width,
                                      0.0), name="plateau")
    d = ll.grid_1d(-3.0, 3.0, 241)
    s0 = d.index_of_nearest([0.0])
    p = ll.lemma1_agreement(f, d, duals=[s0]).probes[0]
    assert not p.strong_minimum
    assert not p.conjugate_differentiable
    assert p.agree


def test_lemma1_b_false_without_a_dual_neighbor(halfsq_1d):
    """A tilt on the edge of the dual grid misses one side of its bracket,
    which is then +inf wide: (b) reads false though the tilted problem has
    a strong interior minimum there."""
    d = ll.grid_1d(-1.0, 1.0, 81)
    for p in ll.lemma1_agreement(halfsq_1d, d, duals=[0, d.size - 1]).probes:
        assert p.strong_minimum
        assert not p.conjugate_differentiable


def test_lemma1_agreement_across_catalog():
    for eid in ("halfsq", "abs", "quartic", "exp", "neg_entropy",
                "box_indicator"):
        e = entry(eid)
        rep = ll.lemma1_agreement(e.build(), e.dual_grid, n_probes=24)
        assert len(rep.probes) >= 20
        assert not rep.disagreements, (eid, rep.disagreements)


@pytest.mark.parametrize("eid", ["box_indicator", "halfsq"])
def test_session_shared_with_lemma1_gives_the_fresh_reports(eid):
    """A session that the agreement probes used first (as lemma1 uses the
    run's sessions before cor3-chain and domain-chain read them) classifies,
    probes and checks the domain chain exactly as fresh calls do."""
    e = entry(eid)
    f = e.build()
    ses = _Session(f, e.dual_grid, ll.NormChoice.L2)
    s0 = e.dual_grid.index_of_nearest([0.0])
    shared = [_agreement(ses, n_probes=24), _agreement(ses, duals=[s0])]
    fresh = [ll.lemma1_agreement(f, e.dual_grid, n_probes=24),
             ll.lemma1_agreement(f, e.dual_grid, duals=[s0])]
    assert [r.to_dict() for r in shared] == [r.to_dict() for r in fresh]
    assert ses.report is ses.report
    assert ses.report.to_dict() == ll.classify(f, e.dual_grid).to_dict()
    assert ses.report.disclaimers
    core = _domain_chain(ses.conj)
    checked = ll.domain_chain_check(f, e.dual_grid)
    assert checked.dual_grid == core.dual_grid == e.dual_grid
    _assert_same_report(checked, (core.dom_mj, core.int_dom_conj,
                                  core.dom_sub_conj, core.violations))


def test_report_serialization_round_trip(tmp_path):
    e = entry("abs")
    rep = ll.classify(e.build(), e.dual_grid)
    from legendrelab.report_io import read_json, write_json
    path = tmp_path / "report.json"
    write_json(rep.to_dict(), path)
    doc = read_json(path)
    assert doc["kind"] == "classification_report"
    assert set(doc["verdicts"]) == set(rep.verdicts)
    assert doc["chain_ok"] == rep.chain_ok
    assert list(CHAIN)[0] in doc["verdicts"]


def _witness_duals_per_candidate(ses, x_flat, cap, clusters):
    """The per-candidate loop that ``witness_duals`` replaced, kept as its
    oracle: every gap-sorted subgradient candidate s is tested against the
    full tie cluster of the problem tilted at s. ``clusters`` holds each
    dual's tie cluster, keyed by dual flat index, for one test's calls."""
    f = ses.f
    cand = ll.subgradients(f, ses.conj, x_flat, ses.norm).members
    out = []
    for s_flat in cand.tolist():
        if s_flat not in clusters:
            s = ses.dual_grid.point(s_flat)
            clusters[s_flat] = moduli._tie_cluster(f, f.tilted(s)[None],
                                                   s[None])[2]
        if np.isin(x_flat, clusters[s_flat]):
            out.append(int(s_flat))
            if len(out) >= cap:
                break
    return out


def _domain_probes(f, ses, k):
    plan = default_sample_plan(f, ses.conj)
    dom = np.flatnonzero(f.domain_flat)
    extra = dom[np.linspace(0, dom.size - 1, min(k, dom.size)).astype(int)]
    return [int(x) for x in dict.fromkeys([*plan.primal, *extra.tolist()])]


@pytest.mark.parametrize("eid", [e.id for e in entries()])
def test_witness_duals_equal_per_candidate_loop_on_catalog(eid):
    e = entry(eid)
    f = e.build()
    ses = _Session(f, e.dual_grid, ll.NormChoice.L2)
    clusters = {}
    for x in _domain_probes(f, ses, 12):
        assert (ses.witness_duals(x, 8)
                == _witness_duals_per_candidate(ses, x, 8, clusters))


NORMS = (ll.NormChoice.L2, ll.NormChoice.L1, ll.NormChoice.LINF)
# (seed, dim, offset, kind, norm): rough functions with +inf holes; the
# same with an additive offset, whose tie slack grows with |f*|; and
# |x|_1 + round(x_0), a piecewise-linear function with exact ties, alone
# and jittered by up to a few tie slacks, so that gaps straddle the slack.
RANDOM_CASES = (
    [pytest.param(seed, dim, 0.0, "rough", NORMS[seed % 3], id=f"{seed}-{dim}")
     for dim in (1, 2) for seed in range(4)]
    + [pytest.param(0, dim, offset, "rough", norm,
                    id=f"offset{offset:g}-{dim}-{norm.value}")
       for offset in (3.7, -250.0, 1e5) for dim in (1, 2) for norm in NORMS]
    + [pytest.param(0, dim, 0.0, kind, norm, id=f"{kind}-{dim}-{norm.value}")
       for kind in ("ties", "jitter") for dim in (1, 2) for norm in NORMS])


@pytest.mark.parametrize("seed,dim,offset,kind,norm", RANDOM_CASES)
def test_witness_duals_equal_per_candidate_loop_on_random(seed, dim, offset,
                                                          kind, norm):
    """Every candidate compared (no cap), on functions whose gaps sit near
    the tie slack."""
    rng = np.random.default_rng(100 + seed)
    if dim == 1:
        g, d = ll.grid_1d(-2, 2, 61), ll.grid_1d(-4, 4, 81)
    else:
        g, d = ll.grid_2d(-2, 2, 15), ll.grid_2d(-3, 3, 19)
    if kind == "rough":
        f = random_grid_function(rng, g, inf_frac=0.15)
        f = ll.GridFunction(g, f.values + offset)
    else:
        pts = g.points
        vals = np.abs(pts).sum(axis=1) + np.round(pts[:, 0])
        if kind == "jitter":
            vals += rng.uniform(0.0, 3e-8, size=vals.size)
        f = ll.GridFunction(g, vals.reshape(g.shape))
    ses = _Session(f, d, norm)
    found = 0
    clusters = {}
    for x in np.flatnonzero(f.domain_flat):
        got = ses.witness_duals(int(x), 10**6)
        assert got == _witness_duals_per_candidate(ses, int(x), 10**6, clusters)
        found += len(got)
    assert found > 0


# -- row blocks: evaluation stops where the loops stop ----------------------

def parent_visits(f, dual_grid):
    """The points and tilts the classification loops visit, one modulus at
    a time: the total-convexity loops over the subdifferentiable and the
    domain points (memoized, each up to its first failure) and the
    well-posedness loop over the plan's tilts (up to its first tilt
    without a strong minimum)."""
    ses = _Session(f, dual_grid, ll.NormChoice.L2)
    plan = default_sample_plan(f, ses.conj)
    dom_points = [x for x in plan.primal if f.domain_flat[x]]
    subdiff = [x for x in dom_points
               if ses.witness_duals(x, classify_module._MAX_WITNESS_DUALS)]
    points, memo = [], {}
    for loop in (subdiff, dom_points):
        for x in loop:
            if x not in memo:
                memo[x] = ll.certification_verdict(
                    ll.total_convexity_modulus(f, x))[0]
                points.append(x)
            if not memo[x]:
                break
    duals = []
    for s in plan.dual:
        duals.append(s)
        if not ll.wellposedness_modulus(f, dual_grid.point(s))[1].strong:
            break
    return points, duals


def count_total_rows(monkeypatch):
    evaluated = []
    rows = moduli._total_rows

    def counting(f, points, norm, radii=None):
        evaluated.extend(points)
        return rows(f, points, norm, radii)

    monkeypatch.setattr(moduli, "_total_rows", counting)
    monkeypatch.setattr(classify_module, "_total_rows", counting)
    return evaluated


@pytest.mark.parametrize("eid", ["sqrt_well", "fourth_root_well"])
def test_total_rows_stop_at_the_loop_break(eid, monkeypatch):
    """Both wells fail total convexity early; a 121^2 grid takes one row
    per block, so exactly the visited points are evaluated."""
    e = entry(eid)
    f = e.build()
    visited, duals = parent_visits(f, e.dual_grid)
    evaluated = count_total_rows(monkeypatch)
    rep = ll.classify(f, e.dual_grid)
    block = max(1, moduli._ROW_BLOCK // f.grid.size)
    assert block == 1
    assert evaluated == visited
    assert not rep.truth()["totally_convex_on_dom"]
    assert_disclaimers_visited(rep.to_dict(), visited, duals)


def assert_disclaimers_visited(report, visited, duals):
    """Every total-convexity or well-posedness disclaimer names a point or
    tilt its loop visited."""
    for text in report["disclaimers"]:
        if text.startswith("total-convexity certificate at "):
            assert int(text.split()[3].rstrip(":")) in visited
        if text.startswith("wellposedness at dual "):
            assert int(text.split()[3].rstrip(":")) in duals


def random_1d(i):
    rng = np.random.default_rng(42)
    g = ll.grid_1d(-2.0, 2.0, 201)
    fs = [random_convex_1d(rng, g, strongly=bool(k % 2), boxed=(k % 3 == 0),
                           name=f"random_convex_{k}") for k in range(i + 1)]
    return fs[i], ll.grid_1d(-3.0, 3.0, 241)


CASES = [*((e.id, None) for e in entries() if e.dim == 1),
         *(("random", i) for i in (9, 12, 15))]


@pytest.mark.parametrize("eid,draw", CASES)
def test_report_independent_of_row_blocks(eid, draw, monkeypatch):
    """Blocks of 1, 4 and 81 rows give the same report; each block ends at
    most 3 rows past a loop's last visited point, and disclaimers name
    visited points and tilts only."""
    if draw is None:
        e = entry(eid)
        f, d = e.build(), e.dual_grid
    else:
        f, d = random_1d(draw)
    visited, duals = parent_visits(f, d)
    reports = []
    for block in (1, 4, 81):
        monkeypatch.setattr(moduli, "_ROW_BLOCK", block * f.grid.size)
        evaluated = count_total_rows(monkeypatch)
        reports.append(ll.classify(f, d).to_dict())
        assert len(set(evaluated)) == len(evaluated)
        assert set(visited) <= set(evaluated)
        assert len(evaluated) <= len(visited) + 2 * (block - 1)
    assert reports[0] == reports[1] == reports[2]
    assert_disclaimers_visited(reports[0], visited, duals)


def strictness_loop(f, points):
    """The per-segment loop the strictness proxy ran before its one array
    pass: (witness of the first failing segment, segments counted)."""
    grid, fv = f.grid, f.flat
    xs = np.asarray(points, dtype=np.int64)
    ends = [(grid.shift(xs, ax, -k), grid.shift(xs, ax, k))
            for ax in range(grid.dim) for k in classify_module._SEGMENT_STEPS]
    wit, n = None, 0
    for i, x in enumerate(points):
        fx = fv[x]
        for u, v in ((int(lo[i]), int(hi[i])) for lo, hi in ends):
            if u < 0 or v < 0 or not (np.isfinite(fv[u]) and np.isfinite(fv[v])):
                continue
            n += 1
            eps = DEFAULT_TOLS.delta0(abs(fx))
            if fx >= 0.5 * (fv[u] + fv[v]) - eps and wit is None:
                wit = {"midpoint": classify_module.grid_point_dict(grid, x),
                       "endpoints": [classify_module.grid_point_dict(grid, u),
                                     classify_module.grid_point_dict(grid, v)]}
    return wit, n


def strictness_cases():
    """The catalog, then 20 seeded 1D and 2D functions, each at offsets 0,
    3.7 and -250: rough with +inf holes, piecewise-linear convex (boxed in
    1D), strongly convex, and strongly convex quantized (ties) with holes."""
    for e in entries():
        yield e.id, e.build(), e.dual_grid
    rng = np.random.default_rng(35)
    for i in range(20):
        kind = i // 2 % 5
        if i % 2:
            g, d = ll.grid_2d(-2.0, 2.0, 31), ll.grid_2d(-3.0, 3.0, 61)
            convex = random_convex_2d(rng, g, strongly=kind > 2, n_planes=4)
        else:
            g, d = ll.grid_1d(-2.0, 2.0, 101), ll.grid_1d(-3.0, 3.0, 121)
            convex = random_convex_1d(rng, g, strongly=kind > 2,
                                      boxed=kind == 2)
        if kind == 0:
            v = random_grid_function(rng, g, inf_frac=0.2).values
        elif kind == 4:
            v = np.round(4.0 * convex.values) / 4.0
            v[rng.random(g.shape) < 0.1] = np.inf
        else:
            v = convex.values
        for off in (0.0, 3.7, -250.0):
            yield f"random {i} {off:+}", ll.GridFunction(g, v + off), d


def test_strictness_proxy_equals_per_segment_loop():
    """Verdict, witness and segment count of the strictness proxy equal the
    per-segment loop over the report's own subdifferentiable points."""
    for name, f, d in strictness_cases():
        ses = _Session(f, d, ll.NormChoice.L2)
        got = ses.report.verdicts["essentially_strictly_convex"]
        plan = default_sample_plan(f, ses.conj)
        points = [x for x in plan.primal if f.domain_flat[x]
                  and ses.witness_duals(x, classify_module._MAX_WITNESS_DUALS)]
        wit, n = strictness_loop(f, points)
        assert got.samples == n, name
        if wit is None:   # only a preimage-boundedness witness can remain
            assert got.witness is None or "midpoint" not in got.witness, name
            assert got.verdict == (got.witness is None), name
        else:
            assert (got.verdict, got.witness) == (False, wit), name
