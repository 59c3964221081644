"""Regular box grids, extended-real grid functions, norms, and shell ladders.

Values are plain float64 arrays where ``+inf`` is the out-of-domain
sentinel. ``-inf`` and ``nan`` are never stored; constructors reject them.

A shell ladder is a window of a band stencil: the band of a grid point
about a center depends only on their index offset, so one stencil over the
doubled index lattice, built once per (grid, norm), holds the band
of every offset, and the ladder about any center is the slice of it that
covers the grid, each point's band its shell id; a member-windowed ladder
reads only given points (say the members of a set) under the same radii.
There is one layout, ``ShellLadders``: the band ids of one or more
centers, one row each.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyDomainError

INF = float("inf")


class NormChoice(enum.Enum):
    """Primal norm; the dual pairing is l2<->l2, l1<->linf, linf<->l1."""

    L2 = "l2"
    L1 = "l1"
    LINF = "linf"

    @property
    def dual(self) -> "NormChoice":
        return {NormChoice.L2: NormChoice.L2,
                NormChoice.L1: NormChoice.LINF,
                NormChoice.LINF: NormChoice.L1}[self]

    def length(self, offsets: np.ndarray) -> np.ndarray:
        """Norms of row vectors; ``offsets`` has shape (..., dim)."""
        a = np.asarray(offsets, dtype=float)
        if self is NormChoice.L2:
            return np.sqrt((a * a).sum(axis=-1))
        if self is NormChoice.L1:
            return np.abs(a).sum(axis=-1)
        return np.abs(a).max(axis=-1)


@dataclass(frozen=True)
class Grid:
    """Regular tensor grid on a box; coordinates are exactly lb + k*h."""

    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bounds",
                           tuple((float(lo), float(hi)) for lo, hi in self.bounds))
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if len(self.bounds) != len(self.counts) or not self.bounds:
            raise ValueError("bounds and counts must be nonempty and same length")
        for (lo, hi), n in zip(self.bounds, self.counts):
            if not (lo < hi and hi - lo < INF):
                raise ValueError(f"need finite lb < ub per axis, got [{lo}, {hi}]")
            if n < 2:
                raise ValueError(f"need at least 2 points per axis, got {n}")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def size(self) -> int:
        return math.prod(self.counts)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1)
                     for (lo, hi), n in zip(self.bounds, self.counts))

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        out = []
        for (lo, _), n, h in zip(self.bounds, self.counts, self.spacing):
            ax = lo + np.arange(n) * h
            ax.flags.writeable = False
            out.append(ax)
        return tuple(out)

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points, row-major, shape (size, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        pts.flags.writeable = False
        return pts

    @cached_property
    def interior_flat(self) -> np.ndarray:
        """Boolean per flat index: no axis index touches the grid edge."""
        flat = np.arange(self.size)
        inner = np.logical_and.reduce([self.shift(flat, ax, k) >= 0
                                       for ax in range(self.dim) for k in (-1, 1)])
        inner.flags.writeable = False
        return inner

    def shift(self, flat: int | np.ndarray, axis: int, k: int) -> np.ndarray:
        """Flat indices ``k`` points along ``axis`` from each of ``flat`` (an
        int or an array of them), -1 where the step leaves the grid."""
        flat = np.asarray(flat, dtype=np.int64)
        stride = math.prod(self.counts[axis + 1:])
        pos = flat // stride % self.counts[axis] + k
        return np.where((pos >= 0) & (pos < self.counts[axis]), flat + k * stride, -1)

    def pair(self, s: Sequence[float] | np.ndarray,
             flat: np.ndarray | None = None) -> np.ndarray:
        """Pairings <x, s> = s_0 x_0 + s_1 x_1 + ... in axis order by elementwise
        multiplies and adds (never BLAS), each with the bits of that Python-float
        sum whatever the batch or machine. ``s`` is one tilt (dim,) or a stack
        (..., dim); it pairs with every grid point, (..., size), or with those at
        the 1D ``flat`` indices, broadcast against ``s[..., 0]``."""
        s = np.asarray(s, dtype=float)
        lead = s.shape[:-1]
        if flat is not None:    # np.take gathers rows far faster than points[flat]
            xs = np.take(self.points, flat, axis=0).T
        else:                   # per-axis products, broadcast over the grid
            s = s.reshape(lead + (1,) * self.dim + (self.dim,))
            xs = [ax.reshape((-1,) + (1,) * (self.dim - 1 - i))
                  for i, ax in enumerate(self.axes)]
        out = s[..., 0] * xs[0]
        for i in range(1, self.dim):
            out = out + s[..., i] * xs[i]
        return out if flat is not None else out.reshape(lead + (self.size,))

    def ravel_index(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(int(i) for i in multi), self.shape))

    def unravel_index(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(int(flat), self.shape))

    def point(self, flat: int) -> np.ndarray:
        return self.points[int(flat)]

    def index_of_nearest(self, point: Sequence[float]) -> int:
        """Flat index of the grid point closest to ``point`` (per-axis rounding)."""
        multi = []
        for c, (lo, _), h, n in zip(point, self.bounds, self.spacing, self.counts):
            k = int(round((float(c) - lo) / h))
            multi.append(min(max(k, 0), n - 1))
        return self.ravel_index(multi)

    @property
    def corner_extent(self) -> float:
        """Half-diagonal style bound: largest axis extent."""
        return max(hi - lo for lo, hi in self.bounds)

    def lengths(self, norm: NormChoice) -> np.ndarray:
        """Norm of every grid point, in flat order; computed once per norm."""
        if norm not in self._lengths:
            out = norm.length(self.points)
            out.flags.writeable = False
            self._lengths[norm] = out
        return self._lengths[norm]

    @cached_property
    def _lengths(self) -> dict[NormChoice, np.ndarray]:
        return {}


def grid_1d(lo: float, hi: float, n: int) -> Grid:
    return Grid(bounds=((lo, hi),), counts=(n,))


def grid_2d(lo: float, hi: float, n: int,
            lo2: float | None = None, hi2: float | None = None,
            n2: int | None = None) -> Grid:
    lo2 = lo if lo2 is None else lo2
    hi2 = hi if hi2 is None else hi2
    n2 = n if n2 is None else n2
    return Grid(bounds=((lo, hi), (lo2, hi2)), counts=(n, n2))


def _validate_values(values: np.ndarray) -> None:
    if np.isnan(values).any():
        raise ValueError("nan is not a legal grid value")
    if np.isneginf(values).any():
        raise ValueError("-inf is not a legal grid value")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Extended-real values sampled on a grid; +inf marks points outside dom f."""

    grid: Grid
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            if vals.size == self.grid.size:
                vals = vals.reshape(self.grid.shape)
            else:
                raise ValueError("values shape does not match grid")
        _validate_values(vals)
        if not np.isfinite(vals).any():
            raise EmptyDomainError(f"function {self.name!r} is +inf everywhere")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    @cached_property
    def domain_flat(self) -> np.ndarray:
        m = np.isfinite(self.flat)
        m.flags.writeable = False
        return m

    def value_at(self, flat: int) -> float:
        return float(self.flat[int(flat)])

    def lipschitz_hat(self) -> float:
        """Largest one-step slope between adjacent domain points."""
        return float(self.local_slopes.max())

    @cached_property
    def local_slopes(self) -> np.ndarray:
        """Flat array of ``local_slope`` at every grid point."""
        fin = np.isfinite(self.values)
        best = np.zeros(self.grid.shape)
        for ax, coords in enumerate(self.grid.axes):
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            step = np.diff(coords).reshape((-1,) + (1,) * (self.grid.dim - ax - 1))
            with np.errstate(invalid="ignore"):
                q = np.abs(np.diff(self.values, axis=ax)) / step
            q[~(fin[lo] & fin[hi])] = 0.0     # a pair leaving dom f has no slope
            np.maximum(best[lo], q, out=best[lo])
            np.maximum(best[hi], q, out=best[hi])
        flat = best.ravel()
        flat.flags.writeable = False
        return flat

    def local_slope(self, flat: int) -> float:
        """Largest one-step slope magnitude at a point, over in-domain neighbors."""
        return float(self.local_slopes[int(flat)])

    def tilted(self, s: Sequence[float] | np.ndarray) -> np.ndarray:
        """Flat array of f(x) - <x, s>; (R, n) for a stack of R tilts."""
        return self.flat - self.grid.pair(s)


def finite_range(f: GridFunction, corner: float | np.ndarray = 0.0) -> bool:
    """The finite-range rule: 4 * (M + P) and 4 * L are finite, with M =
    max |f| on dom f, P = max |x_i| * sum_i corner_i, a bound on |<x, s>|
    for the tilts with |s_i| <= corner_i, and L the largest one-step
    quotient |f(x) - f(y)| / |x - y| over neighbours in dom f
    (``lipschitz_hat``). The sums formed from f and such tilts (tilted
    values and their differences, midpoints of f, f*, f**, Fenchel-Young
    gaps, tie slacks) then cannot overflow, nor can the slopes of f."""
    with np.errstate(over="ignore"):
        reach = np.abs(f.grid.bounds).max() * np.sum(corner)
        if not np.isfinite(4 * (np.abs(f.flat[f.domain_flat]).max() + reach)):
            return False
        # only now is every one-step difference finite; a quotient may not be
        return bool(np.isfinite(4 * f.lipschitz_hat()))


def build_grid_function(grid: Grid, evaluator: Callable, name: str = "",
                        vectorized: bool = False) -> GridFunction:
    """Sample ``evaluator`` at every grid point.

    The evaluator receives a point (1D: float, 2D: ndarray) and returns a
    float or +inf; with ``vectorized=True`` it receives the full (N, dim)
    point array and returns N values. Raises EmptyDomainError when no value
    is finite, ValueError on nan, -inf or values that break ``finite_range``.
    """
    pts = grid.points
    if vectorized:
        vals = np.asarray(evaluator(pts), dtype=float).reshape(grid.size)
    else:
        if grid.dim == 1:
            vals = np.array([float(evaluator(float(p[0]))) for p in pts])
        else:
            vals = np.array([float(evaluator(p)) for p in pts])
    f = GridFunction(grid, vals.reshape(grid.shape), name=name)
    if not finite_range(f):
        raise ValueError(f"values of {name!r} break the finite-range rule: "
                         "4 max |f| or 4 max one-step slope on dom f overflows")
    return f


# Stencils kept at once by each cache. The largest band stencil in use
# (a 201^2 grid: 401^2 int16 bands plus two int32 per grid point) is about
# 650 KB; the largest ray stencil (121^2, no offsets kept) is 1.5 MB.
_STENCIL_CACHE_SIZE = 16


def _windows(lattice: np.ndarray, grid: Grid,
             writeable: bool = False) -> np.ndarray:
    """View of the last ``grid.dim`` axes of a lattice-shaped array as the
    grid-shaped window at every origin: about center c the window starts
    at origin ``counts - 1 - c``, so ``out[..., o]`` holds the entry of
    every grid point's offset from c (o indexes those axes)."""
    return np.lib.stride_tricks.sliding_window_view(
        lattice, grid.shape, axis=tuple(range(-grid.dim, 0)),
        writeable=writeable)


def _origins(grid: Grid, centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the window origin of each center: ``counts - 1 - c``."""
    return np.unravel_index(grid.size - 1 - centers, grid.shape)


class BandStencil(NamedTuple):
    """The band of every offset of the doubled lattice, flat and as
    windows, the flat lattice index of every grid point's offset from the
    grid origin, and the ladder geometry: the number of shells about each
    center and the radii of the most any center has. The lattice is linear
    in the offset, so about center c grid point j sits at ``local[size - 1
    - c] + local[j]`` (size - 1 - c lies at offset -c from the origin)."""

    band: np.ndarray
    windows: np.ndarray
    local: np.ndarray
    shells: np.ndarray
    radii: np.ndarray


@lru_cache(maxsize=_STENCIL_CACHE_SIZE)
def _band_stencil(grid: Grid, norm: NormChoice) -> BandStencil:
    """Band ``floor(|offset * spacing| / max_spacing + 1/2)`` of every offset.

    Axis i runs over offsets -(n_i - 1) .. n_i - 1, so offset 0 sits at
    index n_i - 1. ``int16`` (half the bytes of ``int32`` to cache and to
    gather) unless the largest band does not fit. The ladder about a center
    has a shell for each band up to the largest band in its window (at
    least one).
    """
    offsets = np.meshgrid(*(np.arange(1 - n, n) * h
                            for n, h in zip(grid.counts, grid.spacing)),
                          indexing="ij")
    band = np.floor(norm.length(np.stack(offsets, axis=-1)) / grid.max_spacing + 0.5)
    small = band.max() <= np.iinfo(np.int16).max
    band = band.astype(np.int16 if small else np.int32).ravel()
    lat = tuple(2 * n - 1 for n in grid.counts)
    local = np.ravel_multi_index(np.indices(grid.shape).reshape(grid.dim, -1),
                                 lat).astype(np.int32)
    # a band grows with every |offset| component, so the largest is at a corner
    ends = np.indices((2,) * grid.dim).reshape(grid.dim, -1)
    corners = local[np.ravel_multi_index(
        ends * (np.asarray(grid.counts)[:, None] - 1), grid.shape)]
    shells = np.maximum(band[local[::-1, None] + corners].max(axis=1), 1)
    radii = np.arange(1, int(shells.max()) + 1) * grid.max_spacing
    out = BandStencil(band, _windows(band.reshape(lat), grid), local, shells, radii)
    for a in (band, local, shells, radii):
        a.flags.writeable = False
    return out


class RayStencil(NamedTuple):
    """Windowed views (see ``_windows``) of the per-offset ray arrays."""

    g: np.ndarray          # gcd of the offset's components
    step_len: np.ndarray   # length of the primitive step offset / g; 1 at 0
    hops: np.ndarray       # (k_dd, ...): flat lattice index of k steps
    slots: int             # lattice size plus the pad slot


@lru_cache(maxsize=_STENCIL_CACHE_SIZE)
def _ray_stencil(grid: Grid, norm: NormChoice, k_dd: int) -> RayStencil:
    """Per offset of the doubled lattice (laid out as in ``_band_stencil``):
    the gcd g of its components, the length of its primitive step
    offset / g (1 at offset 0), and for k = 1..k_dd the flat lattice index
    of k primitive steps (the pad slot one past the lattice if off it)."""
    lat = tuple(2 * n - 1 for n in grid.counts)
    half = np.asarray(grid.counts) - 1
    off = np.moveaxis(np.indices(lat), 0, -1) - half
    g = np.gcd.reduce(np.abs(off), axis=-1)
    m0 = off // np.where(g == 0, 1, g)[..., None]
    step_len = np.where(g == 0, 1.0, norm.length(m0 * np.asarray(grid.spacing)))
    pos = np.arange(1, k_dd + 1).reshape(-1, *[1] * off.ndim) * m0 + half
    hops = np.where(((pos >= 0) & (pos < lat)).all(axis=-1),
                    np.ravel_multi_index(tuple(np.moveaxis(pos, -1, 0)), lat,
                                         mode="clip"), math.prod(lat))
    small = np.int16 if max(grid.counts) <= 1 << 15 else np.int32
    arrays = g.astype(small), step_len, hops.astype(np.int32)
    for a in arrays:
        a.flags.writeable = False
    return RayStencil(*(_windows(a, grid) for a in arrays), math.prod(lat) + 1)


class ShellLadders(NamedTuple):
    """Shell ladders about R centers, each over the same m grid points
    (``within``, or all of them): ``bands[r, j]`` is the shell of point j
    about center r, band 0 holding the center and the points closer than
    half the first radius, band k >= 1 the shell at ``radii[k - 1]``. Row
    r's own ladder is its first ``shells[r]`` shells; the rest are empty."""

    radii: np.ndarray
    bands: np.ndarray
    shells: np.ndarray


def shell_ladder(grid: Grid, centers: int | np.ndarray,
                 norm: NormChoice = NormChoice.L2,
                 within: np.ndarray | None = None) -> ShellLadders:
    """Disjoint shells at radii h, 2*h, ... about each of ``centers`` (a
    scalar center is one row), read with one gather of the band stencil,
    with as many shells as the grid's largest ladder.

    With h the largest axis spacing, every grid point lands in exactly one
    band of each center (the nearest multiple of h): the center and the
    points closer than h/2 to it in band 0, the rest in its shells. With
    ``within`` (ascending flat indices) only those points are read, under
    the whole grid's radii.
    """
    centers = np.atleast_1d(centers)
    st = _band_stencil(grid, norm)
    bands = (st.windows[_origins(grid, centers)].reshape(centers.size, -1)
             if within is None else
             st.band[st.local[grid.size - 1 - centers][:, None] + st.local[within]])
    return ShellLadders(st.radii, bands, st.shells[centers])
