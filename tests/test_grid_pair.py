"""``Grid.pair`` and the pairings built on it, each against the Python-float
loop ``s0*x0 + s1*x1 + ...`` (kept here as the oracle), bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import moduli


def pair_loop(s, x):
    out = float(s[0]) * float(x[0])
    for si, xi in zip(s[1:], x[1:]):
        out += float(si) * float(xi)
    return out


@st.composite
def grids(draw, max_dim=3):
    """Grids of 1 to ``max_dim`` axes with their own bounds and counts."""
    dim = draw(st.integers(1, max_dim))
    bounds = []
    for _ in range(dim):
        lo = draw(st.floats(-5.0, 5.0))
        bounds.append((lo, lo + draw(st.floats(0.1, 10.0))))
    counts = [draw(st.integers(2, 9 if dim > 1 else 40)) for _ in range(dim)]
    return ll.Grid(tuple(bounds), tuple(counts))


def tilts(rng, n, dim):
    """Tilts over several magnitudes, so products round in many ways."""
    return rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))


def random_function(rng, grid):
    vals = rng.normal(size=grid.size) * 3.0
    vals[rng.random(grid.size) < 0.2] = math.inf
    vals[rng.integers(grid.size)] = 0.0
    return ll.GridFunction(grid, vals)


def as_bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(grid=grids(), n_rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pair_equals_python_float_loop_in_every_shape(grid, n_rows, seed):
    rng = np.random.default_rng(seed)
    ss = tilts(rng, n_rows, grid.dim)
    want = np.array([[pair_loop(s, x) for x in grid.points] for s in ss])
    members = np.flatnonzero(rng.random(grid.size) < 0.4)
    rows = rng.integers(grid.size, size=n_rows)
    # full grid: one tilt, then a stack of them
    assert as_bits(grid.pair(ss[0])) == as_bits(want[0])
    assert as_bits(grid.pair(list(ss[0]))) == as_bits(want[0])
    assert as_bits(grid.pair(ss)) == as_bits(want)
    # members: one tilt, then R x m
    assert as_bits(grid.pair(ss[0], members)) == as_bits(want[0, members])
    got = grid.pair(ss[:, None], members)
    assert got.shape == (n_rows, members.size)
    assert as_bits(got) == as_bits(want[:, members])
    # row-wise: tilt r with the point rows[r]
    assert as_bits(grid.pair(ss, rows)) == as_bits(want[np.arange(n_rows), rows])


@settings(max_examples=60, deadline=None)
@given(grid=grids(), n_rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_tilts_equal_one_tilt_each(grid, n_rows, seed):
    rng = np.random.default_rng(seed)
    f = random_function(rng, grid)
    ss = tilts(rng, n_rows, grid.dim)
    stacked = f.tilted(ss)
    assert stacked.shape == (n_rows, grid.size)
    for r, s in enumerate(ss):
        one = f.tilted(s)
        assert as_bits(stacked[r]) == as_bits(one)
        want = [fx - pair_loop(s, x) for fx, x in zip(f.flat, grid.points)]
        assert as_bits(one) == as_bits(want)


@settings(max_examples=40, deadline=None)
@given(grid=grids(), n_rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       norm=st.sampled_from(list(ll.NormChoice)))
def test_member_rows_equal_whole_grid_tilts_for_any_block(grid, n_rows, seed, norm):
    """``_wellposed_rows(members=)`` tilts only the members; each row of the
    table it clusters is ``f.tilted(s)[members]``, and each report is the
    one a one-row call gives, however the tilts are split into blocks."""
    rng = np.random.default_rng(seed)
    f = random_function(rng, grid)
    members = np.union1d(np.flatnonzero(rng.random(grid.size) < 0.4),
                         np.flatnonzero(np.isfinite(f.flat))[:1])
    ss = tilts(rng, n_rows, grid.dim)
    cuts = np.unique(rng.integers(0, n_rows + 1, size=2))
    tables = []
    tie_cluster = moduli._tie_cluster

    def spy(f_, values, tilts_):
        tables.extend(values)
        return tie_cluster(f_, values, tilts_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli, "_tie_cluster", spy)
        reports = [rep for block in np.split(ss, cuts) if len(block)
                   for rep in moduli._wellposed_rows(f, block, norm,
                                                     members=members)[1]]
    assert len(tables) == n_rows
    for s, row, rep in zip(ss, tables, reports):
        assert as_bits(row) == as_bits(f.tilted(s)[members])
        _, one = ll.wellposedness_modulus(f, s, norm=norm, members=members)
        assert repr(rep) == repr(one)
