import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import projections
from legendrelab.catalog import SET_NAMES, make_set
from legendrelab.errors import BudgetExhaustedError, InfeasibleProblemError


@pytest.fixture(scope="module")
def grid():
    return ll.grid_2d(-2.0, 2.0, 101)


@pytest.fixture(scope="module")
def halfsq2(grid):
    return ll.build_grid_function(grid, lambda p: 0.5 * (p * p).sum(axis=1),
                                  name="halfsq2", vectorized=True)


@pytest.fixture(scope="module")
def neg_halfsq2(grid):
    return ll.build_grid_function(grid, lambda p: -0.5 * (p * p).sum(axis=1),
                                  name="neg_halfsq2", vectorized=True)


def unit_box_mask(grid):
    pts = grid.points
    h = grid.max_spacing
    mask = ((pts >= -h / 4).all(axis=1)
            & (pts <= 1.0 + h / 4).all(axis=1))
    return ll.ConstraintSet(grid, mask, "unit_box")


def test_projection_onto_box_nearest_corner(grid, halfsq2):
    S = unit_box_mask(grid)
    cert = ll.solve_relative_projection(halfsq2, S, [2.0, 2.0])
    assert np.allclose(cert.minimizer_point, [1.0, 1.0])
    assert cert.strong


def test_projection_circle_constant_objective(grid, halfsq2):
    """All cloud points share the norm, so the zero tilt ties everything."""
    S = make_set("circle", grid)
    cert = ll.solve_relative_projection(halfsq2, S, [0.0, 0.0])
    assert not cert.strong
    assert cert.report.multiplicity == S.size


def test_projection_pair_symmetric_tie(grid, neg_halfsq2):
    S = make_set("pair", grid)
    cert = ll.solve_relative_projection(neg_halfsq2, S, [0.0, 0.0])
    assert not cert.strong
    assert cert.report.multiplicity == 2


def test_projection_infeasible(grid, halfsq2):
    g1 = ll.grid_1d(-1.0, 1.0, 11)
    f = ll.build_grid_function(g1, lambda x: 0.0 if x > 0.5 else math.inf)
    mask = np.zeros(g1.size, dtype=bool)
    mask[0] = True
    with pytest.raises(InfeasibleProblemError):
        ll.solve_relative_projection(f, ll.ConstraintSet(g1, mask, "lone"), [0.0])


def test_projection_consistent_with_masked_wellposedness(grid, halfsq2):
    """Solving over S equals tilting f + indicator(S): same gap, same shells."""
    S = make_set("disk", grid)
    s = [1.3, -0.7]
    cert = ll.solve_relative_projection(halfsq2, S, s)
    masked = ll.GridFunction(grid, np.where(S.mask, halfsq2.flat, math.inf)
                             .reshape(grid.shape))
    mod2, rep2 = ll.wellposedness_modulus(masked, s)
    assert cert.minimizer == rep2.minimizer
    assert cert.strong == rep2.strong
    both = np.isfinite(cert.modulus.values) & np.isfinite(mod2.values)
    assert np.array_equal(cert.modulus.values[both], mod2.values[both])


def test_tilt_covariance(grid):
    """Shifting the set and recentering the objective shifts the minimizer."""
    S = make_set("disk", grid)
    steps = (7, -5)
    v = np.array(steps) * np.array(grid.spacing)
    # the disk stays inside the grid, so no shifted member is clipped
    Sv = ll.ConstraintSet.from_points(grid, S.member_points() + v, "disk+shift")
    assert Sv.size == S.size
    f0 = ll.build_grid_function(grid, lambda p: 0.5 * (p * p).sum(axis=1),
                                vectorized=True)
    fv = ll.build_grid_function(
        grid, lambda p: 0.5 * ((p - v[None, :]) ** 2).sum(axis=1),
        vectorized=True)
    s = [0.4, 0.9]
    c0 = ll.solve_relative_projection(f0, S, s)
    cv = ll.solve_relative_projection(fv, Sv, s)
    assert np.allclose(np.asarray(cv.minimizer_point),
                       np.asarray(c0.minimizer_point) + v)


def test_midpoint_convexity_catalog_sets(grid):
    for name in ("box", "disk", "half_plane", "hexagon", "segment"):
        ok, _ = ll.midpoint_convexity(make_set(name, grid))
        assert ok, name
    for name in ("annulus", "crescent", "two_point"):
        ok, violations = ll.midpoint_convexity(make_set(name, grid))
        assert not ok and violations, name


def _midpoint_convexity_pairwise(S, domain=None):
    """The all-pairs sweep that ``midpoint_convexity`` replaced, kept as its
    oracle: every member pair tests its 2^d floor/ceil midpoints."""
    mask = S.mask if domain is None else (S.mask & domain)
    mem = np.flatnonzero(mask)
    if mem.size <= 1:
        return True, []
    grid = S.grid
    shape = np.asarray(grid.shape, dtype=np.int64)
    strides = np.ones(grid.dim, dtype=np.int64)
    for ax in range(grid.dim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    multi = np.stack(np.unravel_index(mem, grid.shape), axis=1)
    violations = []
    ok_all = True
    chunk = max(1, int(2_000_000 // max(mem.size, 1)))
    for lo in range(0, mem.size, chunk):
        hi = min(lo + chunk, mem.size)
        sums = multi[lo:hi, None, :] + multi[None, :, :]
        floor = sums // 2
        ceil = (sums + 1) // 2
        hit = np.zeros(sums.shape[:2], dtype=bool)
        for bits in range(1 << grid.dim):
            cand = np.where([(bits >> ax) & 1 for ax in range(grid.dim)],
                            ceil, floor)
            hit |= mask[cand @ strides]
        bad_i, bad_j = np.nonzero(~hit)
        keep = (bad_i + lo) < bad_j
        for a, b in zip(bad_i[keep], bad_j[keep]):
            ok_all = False
            if len(violations) < projections.MAX_VIOLATIONS:
                violations.append((int(mem[a + lo]), int(mem[b])))
    return ok_all, violations


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_midpoint_convexity_equals_pairwise_sweep(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    cap = {1: 80, 2: 18, 3: 7}[dim]
    counts = tuple(data.draw(st.lists(st.integers(2, cap), min_size=dim,
                                      max_size=dim), label="counts"))
    grid = ll.Grid(tuple((-1.0, 1.0) for _ in counts), counts)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    density = data.draw(st.floats(0.02, 0.99), label="density")
    mask = rng.random(grid.size) < density
    mask[rng.integers(grid.size)] = True
    domain = None
    if data.draw(st.booleans(), label="with_domain"):
        domain = rng.random(grid.size) < data.draw(st.floats(0.3, 1.0))
    S = ll.ConstraintSet(grid, mask)
    assert (ll.midpoint_convexity(S, domain)
            == _midpoint_convexity_pairwise(S, domain))


def test_midpoint_convexity_truncates_like_pairwise_sweep(grid):
    """Catalog sets and sets with far more than MAX_VIOLATIONS violating
    pairs give the oracle's verdict and its first pairs in (i, j) order."""
    rng = np.random.default_rng(7)
    sparse = ll.ConstraintSet(grid, rng.random(grid.size) < 0.05, "sparse")
    two_blobs = ll.ConstraintSet(
        grid, (np.abs(np.abs(grid.points[:, 0]) - 1.5) < 0.3)
        & (np.abs(grid.points[:, 1]) < 0.3), "two_blobs")
    sets = [make_set(name, grid) for name in
            ("box", "half_plane", "segment", "annulus", "crescent",
             "two_point")] + [sparse, two_blobs]
    for S in sets:
        got = ll.midpoint_convexity(S)
        assert got == _midpoint_convexity_pairwise(S), S.name
    for S in (sparse, two_blobs):
        assert len(ll.midpoint_convexity(S)[1]) == projections.MAX_VIOLATIONS


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 200, 300])
def test_halton_probes_equal_scipy_halton(d, n):
    """The numpy Owen-scrambled Halton reproduces scipy's bit for bit."""
    from scipy.stats import qmc

    for seed in [*range(50), 11, 42, 2026, 123456789]:
        want = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
        got = projections._halton_probes(np.zeros(d), np.ones(d), n, seed)
        assert np.array_equal(got, want), seed


def violation_pairs_by_depth_loop(S, violations, limit=40):
    """The per-pair loop that ``_violation_pairs_by_depth`` replaced, kept
    as its oracle."""
    if not violations:
        return []
    pts = S.grid.points
    spts = S.member_points()
    depths = []
    for a, b in violations:
        mid = (pts[a] + pts[b]) / 2.0
        d = float(np.sqrt(((spts - mid[None, :]) ** 2).sum(axis=1)).min())
        depths.append(d)
    order = np.argsort(np.asarray(depths), kind="stable")[::-1]
    return [violations[i] for i in order[:limit]]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_violation_pairs_by_depth_equal_loop(data):
    """Random masks in 1-3 dimensions, their midpoint-convexity violations
    or random member pairs (repeats and equal depths included), distance
    blocks of 1, 7 or the default (violation, member) entries."""
    dim = data.draw(st.integers(1, 3), label="dim")
    n = data.draw(st.integers(2, {1: 200, 2: 40, 3: 12}[dim]), label="n")
    grid = ll.Grid(tuple((-1.0, 1.0) for _ in range(dim)), (n,) * dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    mask = rng.random(grid.size) < data.draw(st.floats(0.0, 1.0))
    mask[rng.integers(grid.size)] = True
    S = ll.ConstraintSet(grid, mask)
    if data.draw(st.booleans(), label="random_pairs"):
        k = data.draw(st.integers(0, 300), label="pairs")
        violations = list(zip(rng.choice(S.members, k).tolist(),
                              rng.choice(S.members, k).tolist()))
    else:
        violations = ll.midpoint_convexity(S)[1]
    limit = data.draw(st.sampled_from([1, 40, 1000]), label="limit")
    block = data.draw(st.sampled_from([1, 7, None]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(projections, "_DEPTH_BLOCK", block)
        assert (projections._violation_pairs_by_depth(S, violations, limit)
                == violation_pairs_by_depth_loop(S, violations, limit))


def far_pairs_loop(S, limit=24):
    """The per-index loop that ``_far_pairs`` replaced, kept as its oracle."""
    mem = S.members
    if mem.size > 400:
        sel = np.unique(np.linspace(0, mem.size - 1, 400).astype(int))
        mem = mem[sel]
    pts = S.grid.points[mem]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    flat_order = np.argsort(d2, axis=None, kind="stable")[::-1]
    out = []
    seen = set()
    for f_idx in flat_order:
        i, j = np.unravel_index(f_idx, d2.shape)
        if i >= j or d2[i, j] <= 0:
            continue
        key = (int(mem[i]), int(mem[j]))
        if key not in seen:
            seen.add(key)
            out.append(key)
        if len(out) >= limit:
            break
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_far_pairs_equal_loop(data):
    """Random masks, sparse to dense (ties in distance are common on a
    grid), with and without the 400-member subsample."""
    dim = data.draw(st.integers(1, 2), label="dim")
    n = data.draw(st.integers(2, {1: 600, 2: 30}[dim]), label="n")
    grid = ll.Grid(tuple((-1.0, 1.0) for _ in range(dim)), (n,) * dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    mask = rng.random(grid.size) < data.draw(st.floats(0.0, 1.0))
    mask[rng.integers(grid.size)] = True
    S = ll.ConstraintSet(grid, mask)
    limit = data.draw(st.sampled_from([1, 8, 24, 1000]), label="limit")
    assert projections._far_pairs(S, limit) == far_pairs_loop(S, limit)


@pytest.fixture
def budgets(monkeypatch):
    """Every probe budget the searches create, wrapped the way the
    benchmark's layer metrics wrap ``_Budget.__init__(self, limit)``."""
    out = []
    init = projections._Budget.__init__

    def recording(self, limit):
        init(self, limit)
        out.append(self)

    monkeypatch.setattr(projections._Budget, "__init__", recording)
    return out


@pytest.mark.parametrize("name", SET_NAMES)
def test_search_budgets_are_true_bounds(grid, budgets, name):
    """A budget is exactly what the search's stages can spend: no search
    spends past it, and a convex set's detector spends all of it. Limits
    are 200 Halton probes, one probe per tie tilt (up to 40 violations or
    24 far pairs) and 85 per refined pair (up to 8)."""
    S = make_set(name, grid)
    v = ll.convexity_detector(S, n_probes=200, seed=42)
    ll.farthest_point_experiment(S, n_probes=200, seed=42)
    detector, farthest = budgets
    assert detector.used <= detector.limit
    assert farthest.used <= farthest.limit
    if v.kind == "CONVEX-CONSISTENT":
        assert detector.used == detector.limit == 200
    small = {"singleton": 200, "pair": 200 + 1 + 85, "two_point": 200 + 1 + 85}
    many = 200 + 40 + 8 * 85 if v.kind == "NONCONVEX" else 200
    assert detector.limit == small.get(name, many)
    assert farthest.limit == small.get(name, 200 + 24 + 8 * 85)


def test_refine_jitters_draw_from_one_generator(grid, monkeypatch):
    """With every probe strong and no tie on any bisection ray, the refine
    stage probes 8 jittered tie tilts per pair as rows of the member-set
    row core, all drawn from one generator, from a budget of 85 probes per
    pair."""
    S = make_set("annulus", grid)
    tilts = []

    def strong_rows(f, rows, norm, radii=None, members=None):
        assert members is S.members
        tilts.extend(rows)
        return [None] * len(rows), [SimpleNamespace(strong=True)] * len(rows)

    monkeypatch.setattr(projections, "_wellposed_rows", strong_rows)
    monkeypatch.setattr(projections, "_bisect_for_tie", lambda *args: None)
    f = projections._half_sq(grid, 1.0)
    pairs = [(int(S.members[0]), int(S.members[-1])),
             (int(S.members[1]), int(S.members[-2]))]
    cert, budget = projections._witness_search(f, S, [], pairs, 11)
    assert cert is None
    assert (budget.used, budget.limit) == (16, 2 * 85)
    rng = np.random.default_rng(11)
    want = [base + rng.normal(scale=grid.max_spacing, size=2)
            for base in projections._witness_candidates(f, pairs)
            for _ in range(8)]
    assert np.array_equal(np.array(tilts), np.array(want))


def probe_one(f, S, s, budget):
    """One probe: one budget unit and one public projection."""
    budget.spend()
    return ll.solve_relative_projection(f, S, s)


def bisect_one_at_a_time(f, S, s0, budget):
    """The walk and bisection of ``_bisect_for_tie``, one tilt a probe."""
    cert0 = probe_one(f, S, s0, budget)
    if not cert0.strong:
        return cert0
    x0 = np.asarray(cert0.minimizer_point)
    direction = s0 - x0 if (s0 != x0).any() else np.ones_like(s0)
    direction = direction / np.linalg.norm(direction)
    extent = f.grid.corner_extent
    lam_lo, lam_hi = 0.0, None
    for k in range(1, projections._WALK_STEPS + 1):
        lam = extent * k / 4.0
        cert = probe_one(f, S, x0 + lam * direction, budget)
        if not cert.strong:
            return cert
        if cert.minimizer != cert0.minimizer:
            lam_hi = lam
            break
        lam_lo = lam
    if lam_hi is None:
        return None
    for _ in range(projections._BISECTIONS):
        lam = (lam_lo + lam_hi) / 2.0
        cert = probe_one(f, S, x0 + lam * direction, budget)
        if not cert.strong:
            return cert
        if cert.minimizer == cert0.minimizer:
            lam_lo = lam
        else:
            lam_hi = lam
    return None


def walk_and_oracle(points, s0):
    """``_bisect_for_tie`` of the nearest-point objective on a 41^2 grid from
    ``s0``, checked against the one-tilt-a-probe oracle: the certificate's
    fields and the probes used are the oracle's."""
    g = ll.grid_2d(-2.0, 2.0, 41)
    f = projections._half_sq(g, 1.0)
    S = ll.ConstraintSet.from_points(g, points, "walk")
    got, want = projections._Budget(1000), projections._Budget(1000)
    cert = projections._bisect_for_tie(f, S, np.array(s0), got)
    assert fields(cert) == fields(bisect_one_at_a_time(f, S, np.array(s0),
                                                       want))
    assert got.used == want.used
    return cert, got.used


def test_walk_jump_then_bisection_equals_one_at_a_time():
    """From (-2, 0) toward (1.3, 0): the walk's first quarter step keeps
    the minimizer, the second jumps past the bisector x = -0.35, and 29
    bisections of [1, 2] end on a tie of the two points."""
    cert, used = walk_and_oracle([(-2.0, 0.0), (1.3, 0.0)], [-1.7, 0.0])
    assert used == 1 + 2 + 29
    assert not cert.strong and cert.report.multiplicity == 2
    assert cert.tilt[1] == 0.0 and abs(cert.tilt[0] + 0.35) < 1e-8


def test_walk_exit_on_a_non_strong_step_equals_one_at_a_time():
    """From (-1, 0) along the x axis: the first step keeps the minimizer,
    the second lands on (1, 0), equidistant from (0.5, 1) and (0.5, -1)
    and nearer than (-1, 0), and the walk returns that tie unbisected."""
    cert, used = walk_and_oracle([(-1.0, 0.0), (0.5, 1.0), (0.5, -1.0)],
                                 [-0.7, 0.0])
    assert used == 1 + 2
    assert cert.tilt == (1.0, 0.0)
    assert not cert.strong and cert.report.multiplicity == 2


def witness_search_one_at_a_time(f, S, stages, refine_pairs, seed):
    """The probe-by-probe ``_witness_search``, kept as its oracle: one
    public ``solve_relative_projection`` per tilt, the jitters drawn one
    tilt at a time and the walk and bisection probed one tilt at a time."""
    bases = projections._witness_candidates(
        f, refine_pairs[:projections._REFINED_PAIRS])
    budget = projections._Budget(sum(map(len, stages))
                                 + projections._REFINE_PROBES * len(bases))

    def tries():
        for s in itertools.chain(*stages):
            yield probe_one(f, S, s, budget)
        rng = np.random.default_rng(seed)
        for base in bases:
            for _ in range(projections._JITTERS):
                jitter = rng.normal(scale=S.grid.max_spacing, size=base.shape)
                yield probe_one(f, S, base + jitter, budget)
            yield bisect_one_at_a_time(f, S, base, budget)

    return next((c for c in tries() if c is not None and not c.strong),
                None), budget


def fields(obj):
    """Every field of a verdict, certificate or report, recursively: reprs
    (exact for floats) and the bytes of arrays."""
    if dataclasses.is_dataclass(obj):
        return {fd.name: fields(getattr(obj, fd.name))
                for fd in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    return repr(obj)


def searched(run, search):
    """The verdict of ``run()`` (or its BudgetExhaustedError) with every
    witness search in it done by ``search``, and each search's witness
    fields, probes used and budget limit."""
    out = []

    def recording(*args):
        cert, budget = search(*args)
        out.append((fields(cert), budget.used, budget.limit))
        return cert, budget

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projections, "_witness_search", recording)
        try:
            verdict = run()
        except BudgetExhaustedError as e:
            verdict = e
    return verdict, out


def assert_same_search(run):
    """``run`` gives the one-at-a-time oracle's verdict, witness and budget."""
    got, got_searches = searched(run, projections._witness_search)
    want, want_searches = searched(run, witness_search_one_at_a_time)
    assert got_searches == want_searches
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert fields(got) == fields(want)
    return got, want


SEARCHES = {
    "detector": lambda S, n, seed: ll.convexity_detector(S, n, seed),
    "farthest": lambda S, n, seed: ll.farthest_point_experiment(S, n, seed),
    "tchebychev+": lambda S, n, seed: ll.tchebychev_test(
        projections._half_sq(S.grid, 1.0), S, n, seed),
    "tchebychev-": lambda S, n, seed: ll.tchebychev_test(
        projections._half_sq(S.grid, -1.0), S, n, seed),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witness_search_equals_one_at_a_time(data):
    """Random member sets on a 41^2 grid, both objectives, every search and
    row blocks of 1, 2, 7 and the default rows: the witness certificate,
    probes used and budget limit of the one-at-a-time search."""
    g = ll.grid_2d(-2.0, 2.0, 41)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="mask_seed"))
    if data.draw(st.booleans(), label="few_points"):
        # a handful of points: the searches that reach the refine stage
        mask = np.zeros(g.size, dtype=bool)
        mask[rng.choice(g.size, data.draw(st.integers(1, 12), label="k"))] = True
    else:
        mask = rng.random(g.size) < data.draw(st.floats(0.0, 0.3),
                                              label="density")
        mask[rng.integers(g.size)] = True
    S = ll.ConstraintSet(g, mask, "random")
    search = SEARCHES[data.draw(st.sampled_from(sorted(SEARCHES)),
                                label="search")]
    n_probes = data.draw(st.integers(1, 80), label="n_probes")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rows = data.draw(st.sampled_from([1, 2, 7, None]), label="rows")
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(projections, "_PROBE_BLOCK", rows * g.size)
        assert_same_search(lambda: search(S, n_probes, seed))


@pytest.mark.parametrize("name", SET_NAMES)
def test_catalog_searches_equal_one_at_a_time(grid, halfsq2, name):
    """Detector, farthest-point search and Tchebychev test of every catalog
    set on 101^2: the one-at-a-time search's kind, witness tilt and probe
    count (and every other field)."""
    S = make_set(name, grid)
    for run in (lambda: ll.convexity_detector(S, n_probes=200, seed=42),
                lambda: ll.farthest_point_experiment(S, n_probes=200, seed=42),
                lambda: ll.tchebychev_test(halfsq2, S, n_probes=200, seed=42)):
        got, want = assert_same_search(run)
        if isinstance(want, ll.TchebychevReport):
            assert (got.passed, got.witness_tilt, got.n_probes) == (
                want.passed, want.witness_tilt, want.n_probes)
        else:
            assert (got.kind, got.witness_tilt, got.probes_used) == (
                want.kind, want.witness_tilt, want.probes_used)


def test_tchebychev_convex_polygon_passes(grid, halfsq2):
    rep = ll.tchebychev_test(halfsq2, make_set("hexagon", grid),
                             n_probes=200, seed=42)
    assert rep.passed
    assert rep.midpoint_convex
    assert rep.n_probes >= 200


def test_tchebychev_annulus_fails_near_center(grid, halfsq2):
    rep = ll.tchebychev_test(halfsq2, make_set("annulus", grid),
                             n_probes=200, seed=42)
    assert not rep.passed
    assert np.linalg.norm(rep.witness_tilt) < 0.5  # inside the hole


def test_tchebychev_singleton_always_passes(grid, halfsq2):
    rep = ll.tchebychev_test(halfsq2, make_set("singleton", grid),
                             n_probes=200, seed=42)
    assert rep.passed


def test_theorem2_forward_on_catalog_pairs(grid, halfsq2):
    """A probe pass must come with midpoint convexity of S cap dom f."""
    for name in ("box", "disk", "hexagon", "segment", "annulus", "crescent",
                 "two_point"):
        rep = ll.tchebychev_test(halfsq2, make_set(name, grid),
                                 n_probes=120, seed=42)
        assert not (rep.passed and not rep.midpoint_convex), name


def test_theorem2_converse_every_probe_strong(grid, halfsq2):
    """Convex S with the squared-norm objective: strong at every probe."""
    rep = ll.tchebychev_test(halfsq2, make_set("disk", grid),
                             n_probes=200, seed=7)
    assert rep.passed


def test_farthest_singleton_consistent(grid):
    v = ll.farthest_point_experiment(make_set("singleton", grid),
                                     n_probes=200, seed=42)
    assert v.kind == "SINGLETON-CONSISTENT"


@pytest.mark.parametrize("name", ["pair", "segment", "circle", "square"])
def test_farthest_multipoint_witness(grid, name):
    v = ll.farthest_point_experiment(make_set(name, grid), n_probes=200,
                                     seed=42)
    assert v.kind == "WITNESS"
    assert v.witness is not None and not v.witness.strong


def test_farthest_pair_witness_is_zero_tilt(grid):
    """Equal norms tie under the zero tilt; the far-pair candidate finds it."""
    v = ll.farthest_point_experiment(make_set("pair", grid), n_probes=10,
                                     seed=42)
    assert np.allclose(v.witness_tilt, [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", ["box", "disk", "half_plane", "hexagon"])
def test_detector_convex_sets(grid, name):
    v = ll.convexity_detector(make_set(name, grid), n_probes=120, seed=42)
    assert v.kind == "CONVEX-CONSISTENT"
    assert v.agreement


@pytest.mark.parametrize("name", ["annulus", "crescent", "two_point"])
def test_detector_nonconvex_sets(grid, name):
    v = ll.convexity_detector(make_set(name, grid), n_probes=120, seed=42)
    assert v.kind == "NONCONVEX"
    assert v.agreement
    assert v.witness is not None


def bernoulli_set(seed):
    """Seeded 5% Bernoulli mask on a 41x41 grid over [-2, 2]^2."""
    g = ll.grid_2d(-2.0, 2.0, 41)
    mask = np.random.default_rng(seed).random(g.size) < 0.05
    return ll.ConstraintSet(g, mask, f"bernoulli{seed}")


@pytest.fixture
def bisections(monkeypatch):
    """Results of every bisection the searches run, in call order."""
    out = []
    bisect = projections._bisect_for_tie

    def recording(*args, **kwargs):
        out.append(bisect(*args, **kwargs))
        return out[-1]

    monkeypatch.setattr(projections, "_bisect_for_tie", recording)
    return out


def test_farthest_witness_found_by_bisection(bisections):
    """Far-pair ties (24), Halton probes (200) and the first pair's 8
    jittered ties all miss; the first bisection ray finds the tie."""
    v = ll.farthest_point_experiment(bernoulli_set(4), n_probes=200, seed=42)
    assert v.kind == "WITNESS"
    assert v.probes_used == 262
    assert len(bisections) == 1 and bisections[0] is v.witness
    assert not v.witness.strong
    assert np.allclose(v.witness_tilt, [-0.23589854134292798,
                                        -0.05000000310114716], atol=1e-12)


def test_farthest_witness_when_ties_sit_on_grid_edge(bisections):
    """The first far-pair tie tilt ties two members on the grid edge. A
    constraint set is the whole feasible set, so that tie is a witness at
    once: 1 probe, no bisection."""
    S = bernoulli_set(0)
    v = ll.farthest_point_experiment(S, n_probes=200, seed=42)
    assert v.kind == "WITNESS"
    assert v.probes_used == 1
    assert bisections == []
    assert v.witness.report.multiplicity == 2 and not v.witness.strong
    assert not S.grid.interior_flat[v.witness.minimizer]


def test_detector_nonconvex_when_ties_sit_on_grid_edge(bisections):
    """Both points on the bottom grid edge: no certificate is discarded as
    an edge artifact. Every Halton probe has a unique nearest point, which
    is strong, and the midpoint tilt (0, -2) ties both points."""
    g = ll.grid_2d(-2.0, 2.0, 41)
    S = ll.ConstraintSet.from_points(g, [(-2.0, -2.0), (2.0, -2.0)], "edge")
    v = ll.convexity_detector(S, n_probes=200, seed=42)
    assert v.kind == "NONCONVEX"
    assert v.probes_used == 201
    assert v.witness_tilt == (0.0, -2.0)
    assert v.witness.report.multiplicity == 2
    assert not v.midpoint_convex and v.agreement
    assert bisections == []


@pytest.fixture(scope="module")
def halfsq2_41():
    g = ll.grid_2d(-2.0, 2.0, 41)
    return ll.build_grid_function(g, lambda p: 0.5 * (p * p).sum(axis=1),
                                  name="halfsq2", vectorized=True)


def test_single_member_beyond_cut_is_strong(halfsq2_41):
    """At a generic tilt the nearest point of the edge pair is unique, and
    the other point is the curve's one finite sample beyond the cut: it
    clears the floor, so the minimum is strong."""
    S = ll.ConstraintSet.from_points(halfsq2_41.grid,
                                     [(-2.0, -2.0), (2.0, -2.0)], "edge")
    cert = ll.solve_relative_projection(halfsq2_41, S, [0.164, -1.114])
    assert cert.report.multiplicity == 1
    assert cert.report.certificate.n_finite == 1
    assert cert.strong


def test_tchebychev_fails_on_grid_edge_pair(halfsq2_41):
    S = ll.ConstraintSet.from_points(halfsq2_41.grid,
                                     [(-2.0, -2.0), (2.0, -2.0)], "edge")
    rep = ll.tchebychev_test(halfsq2_41, S, n_probes=200, seed=42)
    assert not rep.midpoint_convex
    assert not rep.passed and not rep.witness.strong


@pytest.mark.parametrize("seed", range(8))
def test_tchebychev_fails_on_random_grid_edge_subsets(halfsq2_41, seed):
    """2-5 random points of the grid edge, none midpoint convex."""
    g = halfsq2_41.grid
    rng = np.random.default_rng(seed)
    edge = np.flatnonzero(~g.interior_flat)
    mask = np.zeros(g.size, dtype=bool)
    mask[rng.choice(edge, int(rng.integers(2, 6)), replace=False)] = True
    rep = ll.tchebychev_test(halfsq2_41, ll.ConstraintSet(g, mask, "edge"),
                             n_probes=200, seed=seed)
    assert not rep.midpoint_convex
    assert not rep.passed and not rep.witness.strong


def test_constraint_set_from_points_snaps(grid):
    S = ll.ConstraintSet.from_points(grid, [(0.501, -0.497)], "snap")
    assert S.size == 1
    assert np.allclose(S.member_points(), [[0.52, -0.48]])
