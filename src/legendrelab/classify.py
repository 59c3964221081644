"""Convexity-hierarchy classification and the strong-minimum/differentiability
agreement diagnostics.

Universal statements are sampled, never proven: every verdict records the
sample counts and, on failure, a concrete witness. Subgradient pairs for
the universal tests use the inverse-map characterization (x minimizes the
tilted problem at s), read off the Fenchel-Young gap f(x) + f*(s) - <x, s>
within the tie slack; gap-threshold sets over-include at a sqrt(h) rate and
would falsify the pointwise definitions on smooth functions.

The moduli of a classification are computed in row blocks, in the order
of the loop that reads them: a loop reads rows as they are computed; its
``break`` ends the computation at that block. Its witnesses, sample counts
and disclaimers are those of the rows it visits, whatever the block size.
One loop over the plan's tilts reads their well-posedness reports for
adequacy (a one-cell tie cluster), strong adequacy and the preimage bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .conjugate import ConjugateResult, biconjugate
from .grids import Grid, GridFunction, NormChoice
from .moduli import _by_blocks, _firm_rows, _total_rows, _wellposed_rows
from .subdiff import _one_sided, subgradients
from .tolerances import DEFAULT_TOLS


# Segment half-steps, witness duals per point, and jump duals per plan.
_SEGMENT_STEPS = (2, 5, 11)
_MAX_WITNESS_DUALS = 8
_MAX_JUMP_DUALS = 24


@dataclass(frozen=True)
class SamplePlan:
    """Primal and dual points to test."""

    primal: tuple[int, ...]
    dual: tuple[int, ...]


def _evenly(idx: np.ndarray, k: int) -> np.ndarray:
    if idx.size <= k:
        return idx
    sel = np.unique(np.linspace(0, idx.size - 1, k).astype(int))
    return idx[sel]


def _argmax_jump_duals(f: GridFunction, conj: ConjugateResult) -> list[int]:
    """Trusted dual pairs across which the tilted minimizer jumps.

    A jump much wider than one cell per dual step betrays a flat piece of
    the tilted objective (a kink of the conjugate); ties live exactly
    there, so these tilts must enter the sample.
    """
    dg = conj.dual_grid
    threshold = DEFAULT_TOLS.jump_limit(f.grid, dg)
    pts = f.grid.points
    lo = np.arange(dg.size)
    out: list[tuple[float, int, int]] = []
    for ax in range(dg.dim):
        hi = dg.shift(lo, ax, 1)
        a, b = lo[hi >= 0], hi[hi >= 0]
        jump = NormChoice.L2.length(pts[conj.argmax[a]] - pts[conj.argmax[b]])
        for i in np.flatnonzero((jump > threshold) & conj.trusted[a] & conj.trusted[b]):
            out.append((float(jump[i]), int(a[i]), int(b[i])))
    out.sort(key=lambda r: -r[0])
    picked: list[int] = []
    for _, i, j in out:
        for k in (i, j):
            if k not in picked:
                picked.append(k)
        if len(picked) >= _MAX_JUMP_DUALS:
            break
    return picked


def default_sample_plan(f: GridFunction, conj: ConjugateResult,
                        samples: int = 36) -> SamplePlan:
    """Deterministic plan: domain extremes (corners and edge midpoints of the
    effective domain) plus evenly spaced fill; trusted duals spread evenly,
    augmented with the zero tilt and every tilt where the minimizer jumps."""
    grid = f.grid
    dom = np.flatnonzero(f.domain_flat)
    special: list[int] = [int(dom[0]), int(dom[-1])]
    pts = grid.points[dom]
    for ax in range(grid.dim):
        for extreme in (pts[:, ax].min(), pts[:, ax].max()):
            band = np.abs(pts[:, ax] - extreme) <= grid.spacing[ax] / 4.0
            members = dom[band]
            special.append(int(members[members.size // 2]))
            special.append(int(members[0]))
            special.append(int(members[-1]))
    fill = _evenly(dom, max(samples - len(special), 0))
    primal = tuple(dict.fromkeys([*special, *map(int, fill)]))

    trusted = np.flatnonzero(conj.trusted)
    dual_special = _argmax_jump_duals(f, conj)
    zero = conj.dual_grid.index_of_nearest(np.zeros(conj.dual_grid.dim))
    if conj.trusted[zero]:
        dual_special.append(int(zero))
    fill_d = _evenly(trusted, max(samples - len(dual_special), 8))
    dual = tuple(dict.fromkeys([*dual_special, *map(int, fill_d)]))
    return SamplePlan(primal=primal, dual=dual)


@dataclass(frozen=True)
class Verdict:
    verdict: bool
    evidence: str
    witness: dict | None = None
    samples: int = 0


CHAIN = ("totally_convex_on_dom_subdiff",
         "essentially_firmly_subdifferentiable",
         "essentially_strongly_convex",
         "essentially_strictly_convex")


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    function: str
    verdicts: dict[str, Verdict]
    disclaimers: tuple[str, ...]

    @property
    def chain_ok(self) -> bool:
        vals = [self.verdicts[k].verdict for k in CHAIN]
        return all((not a) or b for a, b in zip(vals, vals[1:]))

    def truth(self) -> dict[str, bool]:
        return {k: v.verdict for k, v in self.verdicts.items()}

    def to_dict(self) -> dict:
        return {
            "kind": "classification_report",
            "function": self.function,
            "verdicts": {k: {"verdict": v.verdict, "evidence": v.evidence,
                             "witness": v.witness, "samples": v.samples}
                         for k, v in self.verdicts.items()},
            "chain_ok": self.chain_ok,
            "disclaimers": list(self.disclaimers),
        }


class _Session:
    """Shared state of one (function, dual grid, norm): f* and f** and the
    default-plan report."""

    def __init__(self, f: GridFunction, dual_grid: Grid, norm: NormChoice):
        self.f = f
        self.dual_grid = dual_grid
        self.norm = norm
        self.bic = biconjugate(f, dual_grid)
        self.conj = self.bic.star

    def witness_duals(self, x_flat: int, cap: int) -> list[int]:
        """The first ``cap`` trusted duals s, by gap order, at which x (a
        domain point) minimizes the tilted problem.

        By Fenchel-Young, x minimizes f - <., s> exactly when its gap
        f(x) + f*(s) - <x, s> is zero, and -f*(s) is the tilted minimum, so
        x ties that minimum when its gap is within the tie slack of
        ``_tie_cluster``. The gap rounds through f* and the tilted value
        through the exact tilt, but they differ only by ulps of terms
        bounded by the slack's own scale (|f*(s)| and |s|_1 times the grid
        extent), far below its eps_fp floor. The gap test of
        ``subgradients`` stays in front: on a function with a large offset
        the tie slack can exceed it, and ``_firm_rows`` rejects a pair
        above it.
        """
        sub = subgradients(self.f, self.conj, x_flat, self.norm)
        slack = DEFAULT_TOLS.tie_slack(-self.conj.dual.flat[sub.members],
                                       np.abs(sub.points()).sum(axis=1),
                                       self.f.grid.bounds)
        return sub.members[sub.gaps <= slack][:cap].tolist()

    @cached_property
    def report(self) -> ClassificationReport:
        """The classification with the default sample plan, made once."""
        return _classify(self)


def classify(f: GridFunction, dual_grid: Grid, samples: int = 36,
             norm: NormChoice = NormChoice.L2) -> ClassificationReport:
    """Place a grid function in the convexity hierarchy, with witnesses.

    ``samples`` caps the primal and the dual points of the default sample
    plan, which is built from the session's own conjugate.
    """
    return _classify(_Session(f, dual_grid, norm), samples)


def _first_total_failure(f: GridFunction, points: list[int], norm: NormChoice,
                         disclaimers: set[str]) -> int | None:
    """The first of ``points`` whose total-convexity verdict is negative
    (None if none is); the certificate note of each point visited becomes
    a disclaimer."""
    for x, (_, (pos, _, note)) in zip(
            points, _by_blocks(_total_rows, f, points, norm=norm)):
        if note:
            disclaimers.add(f"total-convexity certificate at {x}: {note}")
        if not pos:
            return x
    return None


def _classify(ses: _Session, samples: int = 36) -> ClassificationReport:
    f, dual_grid, norm = ses.f, ses.dual_grid, ses.norm
    plan = default_sample_plan(f, ses.conj, samples)
    grid = f.grid
    verdicts: dict[str, Verdict] = {}
    disclaimers: set[str] = set()

    bic = ses.bic
    verdicts["convex_lsc"] = Verdict(
        bic.consistent,
        f"max |f** - f| = {bic.max_gap:.3g} vs tol {bic.tol_bicon:.3g}",
        None, int(f.domain_flat.sum()))

    # adequacy: nonempty trusted set, tie clusters one cell wide at most.
    # Openness cannot fail at grid scale: any neighbor of a trusted dual is
    # either trusted or an untrusted truncation point, which is excusable.
    # A strong minimum needs a one-cell cluster, so the strong-adequacy
    # witness comes at or before the adequacy witness; the loop ends once
    # the adequacy and preimage witnesses are both found.
    trusted_any = bool(ses.conj.trusted.any())
    bound = DEFAULT_TOLS.preimage_bound(grid)
    multi_wit = sa_witness = unbounded_wit = None
    for s_flat, (_, rep) in zip(plan.dual, _by_blocks(
            _wellposed_rows, f, [dual_grid.point(s) for s in plan.dual],
            norm=norm)):
        if sa_witness is None:
            if rep.note:
                disclaimers.add(f"wellposedness at dual {s_flat}: {rep.note}")
            if not rep.strong:
                sa_witness = {"dual": grid_point_dict(dual_grid, s_flat),
                              "multiplicity": rep.multiplicity,
                              "certificate_positive": rep.certificate_positive}
        if multi_wit is None and not rep.unique_at_resolution:
            multi_wit = {"dual": grid_point_dict(dual_grid, s_flat),
                         "cluster_diameter": rep.cluster_diameter}
        if unbounded_wit is None and rep.cluster_diameter > bound:
            unbounded_wit = {"dual": grid_point_dict(dual_grid, s_flat),
                             "preimage_diameter": rep.cluster_diameter}
        if multi_wit is not None and unbounded_wit is not None:
            break
    verdicts["adequate"] = Verdict(
        trusted_any and multi_wit is None,
        ("trusted set empty" if not trusted_any else
         f"tie clusters over {len(plan.dual)} sampled tilts; openness holds "
         "up to truncation-unresolvable neighbors"),
        multi_wit, len(plan.dual))
    verdicts["strongly_adequate"] = Verdict(
        trusted_any and sa_witness is None,
        f"strong minimum at every one of {len(plan.dual)} sampled tilts"
        if sa_witness is None and trusted_any else "failed",
        sa_witness, len(plan.dual))

    # pointwise tests over the sampled effective domain
    dom_points = [x for x in plan.primal if f.domain_flat[x]]
    witness_map = {x: ses.witness_duals(x, _MAX_WITNESS_DUALS)
                   for x in dom_points}
    subdiff_points = [x for x in dom_points if witness_map[x]]

    fsd_wit = None
    any_pos = dict.fromkeys(subdiff_points, False)
    pairs = [(x, s) for x in subdiff_points for s in witness_map[x]]
    for (x, s_flat), (_, (pos, _, note)) in zip(pairs, _by_blocks(
            _firm_rows, f, [x for x, _ in pairs],
            [dual_grid.point(s) for _, s in pairs], norm=norm)):
        if note:
            disclaimers.add(f"firm certificate at {x}: {note}")
        any_pos[x] = any_pos[x] or pos
        if not pos and fsd_wit is None:
            fsd_wit = {"point": grid_point_dict(grid, x),
                       "dual": grid_point_dict(dual_grid, s_flat)}
    strong_wit = next(({"point": grid_point_dict(grid, x)}
                       for x in subdiff_points if not any_pos[x]), None)
    verdicts["essentially_firmly_subdifferentiable"] = Verdict(
        fsd_wit is None,
        f"{len(pairs)} (point, subgradient) pairs over "
        f"{len(subdiff_points)} subdifferentiable points",
        fsd_wit, len(pairs))
    verdicts["essentially_strongly_convex"] = Verdict(
        strong_wit is None,
        f"some certified subgradient at each of {len(subdiff_points)} points",
        strong_wit, len(subdiff_points))

    tot_sub = _first_total_failure(f, subdiff_points, norm, disclaimers)
    verdicts["totally_convex_on_dom_subdiff"] = Verdict(
        tot_sub is None,
        f"total-convexity certificate at {len(subdiff_points)} "
        "subdifferentiable points",
        None if tot_sub is None else {"point": grid_point_dict(grid, tot_sub)},
        len(subdiff_points))

    # a subdifferentiable failure is a domain failure, so only the other
    # domain points before it are left to test
    head = dom_points if tot_sub is None else dom_points[:dom_points.index(tot_sub)]
    tot_dom = _first_total_failure(
        f, [x for x in head if not witness_map[x]], norm, disclaimers)
    if tot_dom is None:
        tot_dom = tot_sub
    verdicts["totally_convex_on_dom"] = Verdict(
        tot_dom is None,
        f"total-convexity certificate at {len(dom_points)} domain points",
        None if tot_dom is None else {"point": grid_point_dict(grid, tot_dom)},
        len(dom_points))

    # essential strict convexity proxy: strictness on symmetric segments
    # about subdifferentiable midpoints, plus preimage boundedness (above),
    # over (point, segment) pairs in point-major order; an off-grid (-1)
    # endpoint reads the last value and is masked out
    fv = f.flat
    xs = np.asarray(subdiff_points, dtype=np.int64)
    lo, hi = (np.stack([grid.shift(xs, ax, d * k) for ax in range(grid.dim)
                        for k in _SEGMENT_STEPS], axis=-1) for d in (-1, 1))
    seg = (lo >= 0) & (hi >= 0) & np.isfinite(fv[lo]) & np.isfinite(fv[hi])
    fx = fv[xs][:, None]
    bad = np.flatnonzero(seg & (fx >= 0.5 * (fv[lo] + fv[hi])
                                - DEFAULT_TOLS.delta0(np.abs(fx))))
    n_segments = int(seg.sum())
    strict_wit = None if not bad.size else {
        "midpoint": grid_point_dict(grid, xs[bad[0] // lo.shape[1]]),
        "endpoints": [grid_point_dict(grid, lo.flat[bad[0]]),
                      grid_point_dict(grid, hi.flat[bad[0]])]}
    verdicts["essentially_strictly_convex"] = Verdict(
        strict_wit is None and unbounded_wit is None,
        f"strict on {n_segments} symmetric segments; inverse-map diameter "
        f"bounded by {bound:g} on {len(plan.dual)} tilts (proxy definition)",
        strict_wit or unbounded_wit, n_segments)

    disclaimers.add(
        "essential strict convexity is a finite-sample proxy: segment "
        "strictness plus locally bounded subdifferential inverse")
    if not subdiff_points:
        disclaimers.add("no subdifferentiable points at grid resolution; "
                        "pointwise hierarchy verdicts are vacuous")
    return ClassificationReport(f.name, verdicts, tuple(sorted(disclaimers)))


def grid_point_dict(grid: Grid, flat: int) -> dict:
    return {"flat": int(flat),
            "index": list(grid.unravel_index(int(flat))),
            "point": [float(c) for c in grid.point(int(flat))]}


# ---------------------------------------------------------------------------
# strong minimum <-> conjugate differentiability <-> firm certificate


@dataclass(frozen=True)
class AgreementProbe:
    dual: dict
    strong_minimum: bool              # (a)
    conjugate_differentiable: bool    # (b)
    firm_certificate: bool            # (c)

    @property
    def agree(self) -> bool:
        return self.strong_minimum == self.conjugate_differentiable == self.firm_certificate


@dataclass(frozen=True, eq=False)
class AgreementReport:
    function: str
    probes: tuple[AgreementProbe, ...]
    lsc_consistent: bool

    @property
    def disagreements(self) -> tuple[AgreementProbe, ...]:
        return tuple(p for p in self.probes if not p.agree)

    @property
    def n_agreements(self) -> int:
        return sum(1 for p in self.probes if p.agree)

    def to_dict(self) -> dict:
        return {
            "kind": "agreement_report",
            "function": self.function,
            "lsc_consistent": self.lsc_consistent,
            "n_probes": len(self.probes),
            "n_agreements": self.n_agreements,
            "probes": [{"dual": p.dual, "a_strong_minimum": p.strong_minimum,
                        "b_conjugate_differentiable": p.conjugate_differentiable,
                        "c_firm_certificate": p.firm_certificate,
                        "agree": p.agree} for p in self.probes],
        }


def lemma1_agreement(f: GridFunction, dual_grid: Grid,
                     duals: Sequence[int] | None = None,
                     n_probes: int = 20,
                     norm: NormChoice = NormChoice.L2) -> AgreementReport:
    """Three-way check at trusted interior tilts.

    (a) the tilted problem attains a strong minimum; (b) f* is
    differentiable at the tilt: d f*(s), the tilted tie cluster, fits one
    cell and, on every axis, the domain chain's bracket D+(s) - D-(s) of
    f*, less its slacks, is within the preimage bound (+inf without both
    neighbors); (c) the firm modulus at (minimizer, tilt) has a positive
    envelope certificate. That modulus is the well-posedness curve of (a),
    f(u) - f(x) - <u - x, s> = (f - s)(u) - (f - s)(x), so (a) implies (c).
    """
    return _agreement(_Session(f, dual_grid, norm), duals, n_probes)


def _agreement(ses: _Session, duals: Sequence[int] | None = None,
               n_probes: int = 20) -> AgreementReport:
    f, dual_grid, norm = ses.f, ses.dual_grid, ses.norm
    ti = np.flatnonzero(ses.conj.trusted_interior())
    if duals is None:
        duals = [int(i) for i in _evenly(ti, n_probes)]
    # up + down = D+ - D- less the slacks; a missing side stays +inf
    up, down = np.full((2, dual_grid.dim, dual_grid.size), np.inf)
    for ax, k, j, diff, slack in _one_sided(ses.conj):
        (up if k > 0 else down)[ax, j] = (diff - slack) / dual_grid.spacing[ax]
    smooth = (up + down <= DEFAULT_TOLS.preimage_bound(f.grid)).all(axis=0)

    reps = _by_blocks(_wellposed_rows, f, [dual_grid.point(s) for s in duals],
                      norm=norm)
    probes = tuple(AgreementProbe(grid_point_dict(dual_grid, s), rep.strong,
                                  bool(smooth[s]) and rep.unique_at_resolution,
                                  rep.certificate_positive)
                   for s, (_, rep) in zip(duals, reps))
    return AgreementReport(f.name, probes, ses.bic.consistent)
