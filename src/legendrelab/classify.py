"""Convexity-hierarchy classification and the strong-minimum/differentiability
agreement diagnostics.

Universal statements are sampled, never proven: every verdict records the
sample counts and, on failure, a concrete witness. Subgradient pairs for
the universal tests use the inverse-map characterization (x belongs to the
tie cluster of the tilted problem at s); gap-threshold sets over-include at
a sqrt(h) rate and would falsify the pointwise definitions on smooth
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import ConjugateResult, biconjugate
from .grids import Grid, GridFunction, NormChoice
from .moduli import (_tie_eps, certification_verdict, firm_modulus,
                     total_convexity_modulus, wellposedness_modulus)
from .tolerances import DEFAULT_TOLS, Tolerances


@dataclass(frozen=True)
class SamplePlan:
    """Primal points, dual points, and symmetric-segment half-steps to test."""

    primal: tuple[int, ...]
    dual: tuple[int, ...]
    segment_steps: tuple[int, ...] = (2, 5, 11)
    max_witness_duals: int = 8


def _evenly(idx: np.ndarray, k: int) -> np.ndarray:
    if idx.size <= k:
        return idx
    sel = np.unique(np.linspace(0, idx.size - 1, k).astype(int))
    return idx[sel]


def _argmax_jump_duals(f: GridFunction, conj: ConjugateResult,
                       cap: int = 24) -> list[int]:
    """Trusted dual pairs across which the tilted minimizer jumps.

    A jump much wider than one cell per dual step betrays a flat piece of
    the tilted objective (a kink of the conjugate); ties live exactly
    there, so these tilts must enter the sample.
    """
    dg = conj.dual_grid
    threshold = 4.0 * max(f.grid.max_spacing, dg.max_spacing)
    where = conj.argmax.reshape(dg.shape)
    trusted = conj.trusted.reshape(dg.shape)
    out: list[tuple[float, int, int]] = []
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
    picked: list[int] = []
    for _, i, j in out:
        for k in (i, j):
            if k not in picked:
                picked.append(k)
        if len(picked) >= cap:
            break
    return picked


def default_sample_plan(f: GridFunction, conj: ConjugateResult,
                        max_primal: int = 36, max_dual: int = 36) -> SamplePlan:
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
    fill = _evenly(dom, max(max_primal - len(special), 0))
    primal = tuple(dict.fromkeys([*special, *map(int, fill)]))

    trusted = np.flatnonzero(conj.trusted)
    dual_special = _argmax_jump_duals(f, conj)
    zero = conj.dual_grid.index_of_nearest(np.zeros(conj.dual_grid.dim))
    if conj.trusted[zero]:
        dual_special.append(int(zero))
    fill_d = _evenly(trusted, max(max_dual - len(dual_special), 8))
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
    """Shared per-classification state: f** and f*, tilted clusters, moduli,
    verdict bits."""

    def __init__(self, f: GridFunction, dual_grid: Grid, norm: NormChoice,
                 tols: Tolerances):
        self.f = f
        self.dual_grid = dual_grid
        self.norm = norm
        self.tols = tols
        self.bic = biconjugate(f, dual_grid, tols=tols)
        self.conj = self.bic.star
        self._clusters: dict[int, np.ndarray] = {}
        self.min_cert_radius = tols.cert_min_radius(f.grid.max_spacing)
        self.cell = f.grid.cell_diagonal(norm) * tols.cell_diag_factor
        self.disclaimers: set[str] = set()

    def cluster(self, dual_flat: int) -> np.ndarray:
        got = self._clusters.get(dual_flat)
        if got is not None:
            return got
        s = self.dual_grid.point(dual_flat)
        tilted = self.f.tilted(s)
        m = float(tilted.min())
        cl = np.flatnonzero(tilted <= m + _tie_eps(self.f, s, m, self.tols))
        self._clusters[dual_flat] = cl
        return cl

    def cluster_diameter(self, dual_flat: int) -> float:
        cl = self.cluster(dual_flat)
        coords = self.f.grid.points[cl]
        return float(self.norm.length(coords.max(axis=0) - coords.min(axis=0)))

    def witness_duals(self, x_flat: int, cap: int) -> list[int]:
        """Trusted duals whose tilted tie cluster contains x, by gap order."""
        fx = self.f.value_at(x_flat)
        if not np.isfinite(fx):
            return []
        x = self.f.grid.point(x_flat)
        gaps = fx + self.conj.dual.flat - self.dual_grid.points @ x
        s_norms = self.norm.dual.length(self.dual_grid.points)
        taus = (self.tols.tau_c * self.f.grid.max_spacing
                * (1.0 + s_norms + self.f.local_slope(x_flat)))
        cand = np.flatnonzero(self.conj.trusted & (gaps <= taus))
        cand = cand[np.argsort(gaps[cand], kind="stable")]
        out = []
        for s_flat in cand:
            if np.isin(x_flat, self.cluster(int(s_flat))):
                out.append(int(s_flat))
                if len(out) >= cap:
                    break
        return out

    def firm_positive(self, x_flat: int, s_flat: int) -> tuple[bool, str]:
        s = self.dual_grid.point(s_flat)
        mod = firm_modulus(self.f, x_flat, s, norm=self.norm, tols=self.tols)
        pos, _, note = certification_verdict(mod, self.tols, self.min_cert_radius)
        if note:
            self.disclaimers.add(f"firm certificate at {x_flat}: {note}")
        return pos, note

    def total_positive(self, x_flat: int) -> tuple[bool, str]:
        mod = total_convexity_modulus(self.f, x_flat, norm=self.norm,
                                      tols=self.tols)
        pos, _, note = certification_verdict(mod, self.tols, self.min_cert_radius)
        if note:
            self.disclaimers.add(f"total-convexity certificate at {x_flat}: {note}")
        return pos, note


def classify(f: GridFunction, dual_grid: Grid,
             plan: SamplePlan | None = None,
             norm: NormChoice = NormChoice.L2,
             tols: Tolerances = DEFAULT_TOLS) -> ClassificationReport:
    """Place a grid function in the convexity hierarchy, with witnesses."""
    ses = _Session(f, dual_grid, norm, tols)
    if plan is None:
        plan = default_sample_plan(f, ses.conj)
    grid = f.grid
    verdicts: dict[str, Verdict] = {}

    bic = ses.bic
    verdicts["convex_lsc"] = Verdict(
        bic.consistent,
        f"max |f** - f| = {bic.max_gap:.3g} vs tol {bic.tol_bicon:.3g}",
        None, int(f.domain_flat.sum()))

    # adequacy: nonempty trusted set, tie clusters one cell wide at most.
    # Openness cannot fail at grid scale: any neighbor of a trusted dual is
    # either trusted or an untrusted truncation point, which is excusable.
    trusted_any = bool(ses.conj.trusted.any())
    multi = None
    for s_flat in plan.dual:
        if ses.cluster_diameter(s_flat) > ses.cell:
            multi = s_flat
            break
    verdicts["adequate"] = Verdict(
        trusted_any and multi is None,
        ("trusted set empty" if not trusted_any else
         f"tie clusters over {len(plan.dual)} sampled tilts; openness holds "
         "up to truncation-unresolvable neighbors"),
        None if multi is None else {
            "dual": grid_point_dict(ses.dual_grid, multi),
            "cluster_diameter": ses.cluster_diameter(multi)},
        len(plan.dual))

    sa_witness = None
    for s_flat in plan.dual:
        _, rep = wellposedness_modulus(f, ses.dual_grid.point(s_flat),
                                       norm=norm, tols=tols)
        if rep.note:
            ses.disclaimers.add(f"wellposedness at dual {s_flat}: {rep.note}")
        if not rep.strong:
            sa_witness = {"dual": grid_point_dict(ses.dual_grid, s_flat),
                          "multiplicity": rep.multiplicity,
                          "certificate_positive": rep.certificate_positive}
            break
    verdicts["strongly_adequate"] = Verdict(
        trusted_any and sa_witness is None,
        f"strong minimum at every one of {len(plan.dual)} sampled tilts"
        if sa_witness is None and trusted_any else "failed",
        sa_witness, len(plan.dual))

    # pointwise tests over the sampled effective domain
    dom_points = [x for x in plan.primal if f.domain_flat[x]]
    witness_map = {x: ses.witness_duals(x, plan.max_witness_duals)
                   for x in dom_points}
    subdiff_points = [x for x in dom_points if witness_map[x]]

    fsd_wit = None
    strong_wit = None
    n_pairs = 0
    for x in subdiff_points:
        any_pos = False
        for s_flat in witness_map[x]:
            n_pairs += 1
            pos, _ = ses.firm_positive(x, s_flat)
            any_pos = any_pos or pos
            if not pos and fsd_wit is None:
                fsd_wit = {"point": grid_point_dict(grid, x),
                           "dual": grid_point_dict(ses.dual_grid, s_flat)}
        if not any_pos and strong_wit is None:
            strong_wit = {"point": grid_point_dict(grid, x)}
    verdicts["essentially_firmly_subdifferentiable"] = Verdict(
        fsd_wit is None,
        f"{n_pairs} (point, subgradient) pairs over "
        f"{len(subdiff_points)} subdifferentiable points",
        fsd_wit, n_pairs)
    verdicts["essentially_strongly_convex"] = Verdict(
        strong_wit is None,
        f"some certified subgradient at each of {len(subdiff_points)} points",
        strong_wit, len(subdiff_points))

    tot_sub_wit = None
    for x in subdiff_points:
        pos, _ = ses.total_positive(x)
        if not pos:
            tot_sub_wit = {"point": grid_point_dict(grid, x)}
            break
    verdicts["totally_convex_on_dom_subdiff"] = Verdict(
        tot_sub_wit is None,
        f"total-convexity certificate at {len(subdiff_points)} "
        "subdifferentiable points",
        tot_sub_wit, len(subdiff_points))

    tot_dom_wit = None
    for x in dom_points:
        pos, _ = ses.total_positive(x)
        if not pos:
            tot_dom_wit = {"point": grid_point_dict(grid, x)}
            break
    verdicts["totally_convex_on_dom"] = Verdict(
        tot_dom_wit is None,
        f"total-convexity certificate at {len(dom_points)} domain points",
        tot_dom_wit, len(dom_points))

    # essential strict convexity proxy: strictness on symmetric segments
    # about subdifferentiable midpoints, plus preimage boundedness
    strict_wit = None
    n_segments = 0
    fv = f.flat
    shape = np.asarray(grid.shape)
    for x in subdiff_points:
        base = np.asarray(grid.unravel_index(x), dtype=np.int64)
        fx = fv[x]
        for ax in range(grid.dim):
            e = np.zeros(grid.dim, dtype=np.int64)
            e[ax] = 1
            for k in plan.segment_steps:
                lo = base - k * e
                hi = base + k * e
                if (lo < 0).any() or (hi >= shape).any():
                    continue
                u = grid.ravel_index(lo)
                v = grid.ravel_index(hi)
                if not (np.isfinite(fv[u]) and np.isfinite(fv[v])):
                    continue
                n_segments += 1
                eps = tols.eps_fp * (1.0 + abs(fx))
                if fx >= 0.5 * (fv[u] + fv[v]) - eps and strict_wit is None:
                    strict_wit = {"midpoint": grid_point_dict(grid, x),
                                  "endpoints": [grid_point_dict(grid, u),
                                                grid_point_dict(grid, v)]}
    bound = 0.25 * grid.corner_extent
    unbounded_wit = None
    for s_flat in plan.dual:
        if ses.cluster_diameter(s_flat) > bound:
            unbounded_wit = {"dual": grid_point_dict(ses.dual_grid, s_flat),
                             "preimage_diameter": ses.cluster_diameter(s_flat)}
            break
    verdicts["essentially_strictly_convex"] = Verdict(
        strict_wit is None and unbounded_wit is None,
        f"strict on {n_segments} symmetric segments; inverse-map diameter "
        f"bounded by {bound:g} on {len(plan.dual)} tilts (proxy definition)",
        strict_wit or unbounded_wit, n_segments)

    ses.disclaimers.add(
        "essential strict convexity is a finite-sample proxy: segment "
        "strictness plus locally bounded subdifferential inverse")
    if not subdiff_points:
        ses.disclaimers.add("no subdifferentiable points at grid resolution; "
                            "pointwise hierarchy verdicts are vacuous")
    return ClassificationReport(f.name, verdicts, tuple(sorted(ses.disclaimers)))


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
    conjugate_differentiable: bool    # (b) proxy
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
                     norm: NormChoice = NormChoice.L2,
                     tols: Tolerances = DEFAULT_TOLS) -> AgreementReport:
    """Three-way check at trusted interior tilts.

    (a) the tilted problem attains a strong minimum; (b) the conjugate is
    differentiable at the tilt, operationalized as a one-cell tie cluster
    with bounded minimizer-jump ratios toward neighbor tilts; (c) the firm
    modulus at (minimizer, tilt) has a positive envelope certificate.
    """
    ses = _Session(f, dual_grid, norm, tols)
    ti = np.flatnonzero(ses.conj.trusted_interior())
    if duals is None:
        duals = [int(i) for i in _evenly(ti, n_probes)]
    diam_limit = 2.0 * max(f.grid.max_spacing, dual_grid.max_spacing)
    ratio_limit = 0.25 * f.grid.corner_extent / dual_grid.max_spacing

    probes = []
    for s_flat in duals:
        s = dual_grid.point(s_flat)
        mod, rep = wellposedness_modulus(f, s, norm=norm, tols=tols)
        a = rep.strong

        diam = ses.cluster_diameter(s_flat)
        ratio_ok = True
        x_hat_pt = f.grid.point(rep.minimizer)
        for nb in dual_grid.neighbors(s_flat):
            if not ses.conj.trusted[nb]:
                continue
            nb_pts = f.grid.points[ses.cluster(nb)]
            ds = float(norm.dual.length(dual_grid.point(nb) - s))
            jump = float(norm.length(nb_pts - x_hat_pt[None, :]).min())
            if jump / ds > ratio_limit:
                ratio_ok = False
        b = (diam <= diam_limit) and ratio_ok

        mod_firm = firm_modulus(f, rep.minimizer, s, norm=norm, tols=tols)
        c, _, _ = certification_verdict(mod_firm, tols, ses.min_cert_radius)
        probes.append(AgreementProbe(grid_point_dict(dual_grid, s_flat), a, b, c))
    return AgreementReport(f.name, tuple(probes), ses.bic.consistent)
