"""``Grid.shift`` and the grid-axis neighbour walks built on it, each
against the multi-index arithmetic it replaced (kept here as oracles)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import moduli
from legendrelab.classify import _MAX_JUMP_DUALS, _argmax_jump_duals
from legendrelab.conjugate import ConjugateResult

STEPS = (1, -1, 2, -2, 5, -5, 11, -11)


def interior_flat_oracle(grid):
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[ax] = 0
        mask[tuple(sl)] = False
        sl[ax] = -1
        mask[tuple(sl)] = False
    return mask.ravel()


def trusted_interior_oracle(conj):
    g = conj.dual_grid
    shaped = conj.trusted.reshape(g.shape)
    out = shaped & interior_flat_oracle(g).reshape(g.shape)
    for ax in range(g.dim):
        lo = np.ones(g.shape, dtype=bool)
        hi = np.ones(g.shape, dtype=bool)
        sl_lo = [slice(None)] * g.dim
        sl_hi = [slice(None)] * g.dim
        sl_lo[ax] = slice(1, None)
        sl_hi[ax] = slice(None, -1)
        lo[tuple(sl_lo)] = np.take(shaped, range(0, g.shape[ax] - 1), axis=ax)
        hi[tuple(sl_hi)] = np.take(shaped, range(1, g.shape[ax]), axis=ax)
        out &= lo & hi
    return out.ravel()


def edge_descent_oracle(grid, values, cluster, level):
    for c in cluster:
        multi = grid.unravel_index(int(c))
        for ax in range(grid.dim):
            if multi[ax] in (0, grid.counts[ax] - 1):
                inward = list(multi)
                inward[ax] += 1 if multi[ax] == 0 else -1
                if values[grid.ravel_index(inward)] > level:
                    return True
    return False


def argmax_jump_duals_oracle(f, conj):
    dg = conj.dual_grid
    threshold = 4.0 * max(f.grid.max_spacing, dg.max_spacing)
    where = conj.argmax.reshape(dg.shape)
    trusted = conj.trusted.reshape(dg.shape)
    out = []
    for ax in range(dg.dim):
        a = np.take(where, range(0, dg.shape[ax] - 1), axis=ax)
        b = np.take(where, range(1, dg.shape[ax]), axis=ax)
        ta = np.take(trusted, range(0, dg.shape[ax] - 1), axis=ax)
        tb = np.take(trusted, range(1, dg.shape[ax]), axis=ax)
        jump = np.linalg.norm(f.grid.points[a] - f.grid.points[b], axis=-1)
        for flat in np.flatnonzero((jump > threshold) & ta & tb):
            multi = list(np.unravel_index(flat, a.shape))
            lo = list(multi)
            hi = list(multi)
            hi[ax] += 1
            out.append((float(jump.ravel()[flat]),
                        dg.ravel_index(lo), dg.ravel_index(hi)))
    out.sort(key=lambda r: -r[0])
    picked = []
    for _, i, j in out:
        for k in (i, j):
            if k not in picked:
                picked.append(k)
        if len(picked) >= _MAX_JUMP_DUALS:
            break
    return picked


@st.composite
def grids(draw, max_count=7, dim=None, min_count=2, widths=(1.0, 2.0, 3.5)):
    """1D-3D grids (2-point axes included) with anisotropic counts and
    spacings."""
    dim = draw(st.integers(1, 3)) if dim is None else dim
    counts = draw(st.lists(st.integers(min_count, max_count),
                           min_size=dim, max_size=dim))
    ws = draw(st.lists(st.sampled_from(widths), min_size=dim, max_size=dim))
    return ll.Grid(tuple((-w / 2, w / 2) for w in ws), tuple(counts))


def masks(draw, size):
    """A random mask, or all-true or all-false (the extreme trust masks)."""
    kind = draw(st.sampled_from(["random", "all", "none"]))
    if kind != "random":
        return np.full(size, kind == "all")
    return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))


@st.composite
def conjugate_results(draw, max_count=7):
    """A primal grid and a conjugate result on a dual grid of its dimension
    with random trust and argmax (from a small pool, so jumps tie); the
    primal is wide and fine enough for jumps of more than four cells."""
    dual = draw(grids(max_count, widths=(0.5, 1.0)))
    primal = draw(grids(20, dim=dual.dim, min_count=8, widths=(6.0, 10.0)))
    pool = draw(st.lists(st.integers(0, primal.size - 1), min_size=1, max_size=6))
    argmax = np.array(draw(st.lists(st.sampled_from(pool), min_size=dual.size,
                                    max_size=dual.size)), dtype=np.int64)
    star = ll.GridFunction(dual, np.zeros(dual.shape), name="f*")
    conj = ConjugateResult(star, masks(draw, dual.size), argmax, primal)
    return ll.GridFunction(primal, np.zeros(primal.shape), name="f"), conj


@settings(max_examples=60, deadline=None)
@given(grid=grids(max_count=13))
def test_shift_equals_shifted_multi_index(grid):
    flat = np.arange(grid.size)
    multi = np.array(np.unravel_index(flat, grid.shape))
    for ax in range(grid.dim):
        for k in STEPS:
            moved = multi.copy()
            moved[ax] += k
            on = (moved[ax] >= 0) & (moved[ax] < grid.counts[ax])
            want = np.full(grid.size, -1)
            want[on] = np.ravel_multi_index(tuple(moved[:, on]), grid.shape)
            got = grid.shift(flat, ax, k)
            assert got.tolist() == want.tolist()
            assert [int(grid.shift(int(x), ax, k)) for x in flat] == want.tolist()


@settings(max_examples=60, deadline=None)
@given(grid=grids())
def test_interior_equals_oracle(grid):
    assert grid.interior_flat.tolist() == interior_flat_oracle(grid).tolist()


@settings(max_examples=80, deadline=None)
@given(fc=conjugate_results())
def test_trusted_interior_equals_oracle(fc):
    _, conj = fc
    assert conj.trusted_interior().tolist() == trusted_interior_oracle(conj).tolist()


@settings(max_examples=120, deadline=None)
@given(fc=conjugate_results(max_count=9))
def test_argmax_jump_duals_equal_oracle(fc):
    f, conj = fc
    assert _argmax_jump_duals(f, conj) == argmax_jump_duals_oracle(f, conj)


@settings(max_examples=120, deadline=None)
@given(grid=grids(), data=st.data())
def test_edge_descent_equals_oracle(grid, data):
    """Tie clusters of random integer levels, and clusters of one or all
    corners, on every level."""
    values = np.array(data.draw(st.lists(st.integers(0, 3), min_size=grid.size,
                                         max_size=grid.size)), dtype=float)
    corners = np.ravel_multi_index(
        np.indices((2,) * grid.dim).reshape(grid.dim, -1)
        * (np.array(grid.counts)[:, None] - 1), grid.shape)
    for level in (0.0, 1.0, 2.0, 3.0):
        for cluster in (np.flatnonzero(values <= level), corners,
                        corners[data.draw(st.integers(0, corners.size - 1))][None]):
            assert (moduli._edge_descent(grid, values, cluster, level)
                    == edge_descent_oracle(grid, values, cluster, level))
