import dataclasses

import numpy as np
import pytest

import legendrelab as ll
import legendrelab.conjugate as C
from legendrelab import moduli
from legendrelab.tolerances import DEFAULT_TOLS, Tolerances

# Each cut as it read when its factor was a settable field, with that
# factor's value written out: eps_fp 1e-9, bicon_c 4, tau_c 2,
# cert_start_steps 2, cell_diag_factor 1.01.
OLD = {
    "delta0": lambda t: 1e-9 * (1.0 + t),
    "bicon": lambda h, lip, scale: max(4.0 * h * lip, 1e-9 * (1.0 + scale)),
    "cell_limit": lambda grid, norm: (float(norm.length(np.array(grid.spacing)))
                                      * 1.01),
    "preimage_bound": lambda grid: 0.25 * grid.corner_extent,
    "jump_limit": lambda grid, dual: 4.0 * max(grid.max_spacing,
                                               dual.max_spacing),
    "outer_radius": lambda r: r / 2.0,
    "cert_min_radius": lambda h: 2.0 * h - 0.25 * h,
    "gap_threshold": lambda h, dn, slope: 2.0 * h * (1.0 + dn + slope),
    "tie_slack": lambda mv, l1, bounds: 1e-9 * (
        1.0 + abs(mv) + l1 * max(abs(lo) + abs(hi) for lo, hi in bounds)),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def magnitudes(rng, n):
    """Nonnegative values over many binades, zero included."""
    out = 10.0 ** rng.uniform(-12.0, 12.0, n) * rng.uniform(0.5, 2.0, n)
    out[::17] = 0.0
    return out


def random_grid(rng):
    dim = int(rng.integers(1, 3))
    los = rng.uniform(-50.0, 1.0, dim)
    bounds = tuple((float(lo), float(lo + w))
                   for lo, w in zip(los, 10.0 ** rng.uniform(-3.0, 3.0, dim)))
    return ll.Grid(bounds, tuple(int(n) for n in rng.integers(2, 400, dim)))


def test_every_cut_equals_its_old_formula_bit_for_bit():
    """Moving a factor from a field into its method's body keeps every
    float operation in its order, so every cut keeps its bits: on
    scalars and, where a cut is elementwise, on arrays."""
    rng = np.random.default_rng(37)
    n = 400
    t, h, dn, sl, mv, l1 = (magnitudes(rng, n) for _ in range(6))
    mv = mv * rng.choice([-1.0, 1.0], n)
    norms = list(ll.NormChoice)
    for k in range(n):
        grid, dual = random_grid(rng), random_grid(rng)
        bounds = grid.bounds
        cases = {
            "delta0": (t[k],),
            "bicon": (h[k], dn[k], t[k]),
            "cell_limit": (grid, norms[k % len(norms)]),
            "preimage_bound": (grid,),
            "jump_limit": (grid, dual),
            "outer_radius": (t[k],),
            "cert_min_radius": (h[k],),
            "gap_threshold": (h[k], dn[k], sl[k]),
            "tie_slack": (mv[k], l1[k], bounds),
        }
        for name, args in cases.items():
            got = getattr(DEFAULT_TOLS, name)(*args)
            assert same_bits(got, OLD[name](*args)), (name, args)
            assert type(got) is type(OLD[name](*args)), name
    bounds = random_grid(rng).bounds
    for name, args in {"delta0": (t,), "cert_min_radius": (h,),
                       "outer_radius": (t,), "gap_threshold": (h[0], dn, sl),
                       "tie_slack": (mv, l1, bounds)}.items():
        assert same_bits(getattr(DEFAULT_TOLS, name)(*args),
                         OLD[name](*args)), name


def test_tolerances_hold_no_settable_value():
    """``Tolerances`` takes no constructor argument, its instance takes no
    attribute, and the old fields, the separate biconjugation cut and the
    grid's cell diagonal are gone."""
    assert not dataclasses.is_dataclass(Tolerances)
    with pytest.raises(TypeError):
        Tolerances(eps_fp=1.0)
    with pytest.raises(TypeError):
        Tolerances(1e-9)
    for name in ("eps_fp", "rel_fast", "tau_c"):
        with pytest.raises(AttributeError):
            setattr(DEFAULT_TOLS, name, 1.0)
    assert (DEFAULT_TOLS.eps_fp, DEFAULT_TOLS.rel_fast) == (1e-9, 1e-12)
    for name in ("k_dd", "bicon_c", "tau_c", "cert_start_steps",
                 "cell_diag_factor"):
        assert not hasattr(DEFAULT_TOLS, name), name
    assert not hasattr(C, "bicon_tolerance")
    assert not hasattr(ll.Grid, "cell_diagonal")
    assert moduli._K_DD == 4
