"""Reproduction experiments driven by the ``verify-paper`` CLI subcommand.

Each experiment returns a pass/fail flag plus a JSON-ready summary and
writes its artifacts under the output directory. Everything is seeded and
timestamp-free, so identical flags reproduce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .catalog import (CONVEX_SET_NAMES, NONCONVEX_SET_NAMES, entries, entry,
                      finite_difference_hessian, fourth_root_well,
                      fourth_root_well_hessian, fourth_root_well_hessian_det,
                      make_set)
from .classify import classify, lemma1_agreement
from .errors import BudgetExhaustedError
from .generators import random_convex_1d
from .grids import grid_1d, grid_2d
from .moduli import certification_verdict, firm_modulus, total_convexity_modulus
from .projections import convexity_detector, farthest_point_experiment
from .report_io import build_manifest, write_json, write_modulus_csv
from .subdiff import domain_chain_check
from .tolerances import DEFAULT_TOLS

EXPERIMENT_NAMES = ("ex1", "ex2", "lemma1", "cor3-chain", "cor4", "prop6",
                    "domain-chain")

_SET_GRID = grid_2d(-2.0, 2.0, 101)


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    artifacts: list[Path]


def run_ex1(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Fourth-root well: Hessian formulas, the zero modulus along the edge,
    and the hierarchy verdicts (firmly subdifferentiable but not totally
    convex on its whole domain)."""
    e = entry("fourth_root_well")
    f = e.build()
    g = f.grid

    hess_errs = []
    det_errs = []
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            fd = finite_difference_hessian(fourth_root_well, (x, y))
            cl = fourth_root_well_hessian((x, y))
            hess_errs.append(float(np.abs(fd - cl).max()))
            det_fd = fd[0, 0] * fd[1, 1] - fd[0, 1] ** 2
            det_errs.append(abs(det_fd - fourth_root_well_hessian_det((x, y))))
    hessian_ok = max(hess_errs) <= 1e-6 and max(det_errs) <= 1e-6

    edge = g.index_of_nearest([0.0, 1.0])
    m_edge = total_convexity_modulus(f, edge)
    in_unit = (m_edge.radii > 0) & (m_edge.radii <= 1.0) & ~m_edge.empty
    floor = np.array([DEFAULT_TOLS.delta0(t) for t in m_edge.radii])
    edge_zero = bool((m_edge.values[in_unit] <= floor[in_unit]).all())

    center = g.index_of_nearest([0.0, 0.0])
    m_center = firm_modulus(f, center, [0.0, 0.0])
    center_pos, _, _ = certification_verdict(
        m_center, DEFAULT_TOLS, DEFAULT_TOLS.cert_min_radius(g.max_spacing))

    report = classify(f, e.dual_grid)
    truth = report.truth()
    wit = report.verdicts["totally_convex_on_dom"].witness
    wit_on_edge = (wit is not None
                   and abs(abs(wit["point"]["point"][1]) - 1.0) < 1e-6)
    class_ok = (truth["essentially_firmly_subdifferentiable"]
                and truth["essentially_strictly_convex"]
                and not truth["totally_convex_on_dom"] and wit_on_edge)

    passed = hessian_ok and edge_zero and bool(center_pos) and class_ok
    summary = {
        "kind": "experiment", "name": "ex1", "passed": passed,
        "hessian": {"ok": hessian_ok, "max_entry_err": max(hess_errs),
                    "max_det_err": max(det_errs), "tol": 1e-6},
        "edge_total_modulus_zero_on_unit_interval": edge_zero,
        "center_firm_certificate_positive": bool(center_pos),
        "classification": report.to_dict(),
        "edge_witness_on_y_equals_1": wit_on_edge,
    }
    arts = [out_dir / "ex1.json", out_dir / "ex1_edge_total_modulus.csv",
            out_dir / "ex1_center_firm_modulus.csv"]
    write_json(summary, arts[0])
    write_modulus_csv(m_edge, arts[1])
    write_modulus_csv(m_center, arts[2])
    return ExperimentResult("ex1", passed, summary, arts)


def run_ex2(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Square-root well: not totally convex at the corner of its
    subdifferential domain, yet firmly subdifferentiable there."""
    e = entry("sqrt_well")
    f = e.build()
    g = f.grid
    corner = g.index_of_nearest([1.0, 1.0])

    m_corner = total_convexity_modulus(f, corner)
    min_r = DEFAULT_TOLS.cert_min_radius(g.max_spacing)
    corner_pos, _, _ = certification_verdict(m_corner, DEFAULT_TOLS, min_r)
    m_firm = firm_modulus(f, corner, [1.05, 1.05])
    firm_pos, _, _ = certification_verdict(m_firm, DEFAULT_TOLS, min_r)

    report = classify(f, e.dual_grid)
    truth = report.truth()
    wit = report.verdicts["totally_convex_on_dom_subdiff"].witness
    wit_corner = (wit is not None
                  and max(abs(abs(c) - 1.0) for c in wit["point"]["point"]) < 1e-6)
    passed = ((not corner_pos) and bool(firm_pos)
              and not truth["totally_convex_on_dom_subdiff"] and wit_corner
              and truth["essentially_firmly_subdifferentiable"]
              and truth["essentially_strictly_convex"])
    summary = {
        "kind": "experiment", "name": "ex2", "passed": passed,
        "corner_total_certificate_positive": bool(corner_pos),
        "corner_firm_certificate_positive": bool(firm_pos),
        "corner_witness": wit,
        "classification": report.to_dict(),
    }
    arts = [out_dir / "ex2.json", out_dir / "ex2_corner_total_modulus.csv",
            out_dir / "ex2_corner_firm_modulus.csv"]
    write_json(summary, arts[0])
    write_modulus_csv(m_corner, arts[1])
    write_modulus_csv(m_firm, arts[2])
    return ExperimentResult("ex2", passed, summary, arts)


def run_lemma1(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Strong minimum / conjugate differentiability / firm certificate:
    three-way agreement over catalog entries, all-false on the flat case."""
    ids = ["halfsq", "abs", "quartic", "exp", "neg_entropy", "box_indicator"]
    per_entry = {}
    ok = True
    for eid in ids:
        e = entry(eid)
        rep = lemma1_agreement(e.build(), e.dual_grid, n_probes=24)
        per_entry[eid] = rep.to_dict()
        ok = ok and len(rep.probes) >= 20 and not rep.disagreements

    e = entry("box_indicator")
    s0 = e.dual_grid.index_of_nearest([0.0])
    flat = lemma1_agreement(e.build(), e.dual_grid, duals=[s0]).probes[0]
    flat_ok = not (flat.strong_minimum or flat.conjugate_differentiable
                   or flat.firm_certificate)
    passed = ok and flat_ok
    summary = {"kind": "experiment", "name": "lemma1", "passed": passed,
               "flat_case_all_false": flat_ok, "entries": per_entry}
    arts = [out_dir / "lemma1.json"]
    write_json(summary, arts[0])
    return ExperimentResult("lemma1", passed, summary, arts)


def run_cor3_chain(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Implication chain across the catalog and random convex functions."""
    rows = []
    ok = True
    for e in entries():
        rep = classify(e.build(), e.dual_grid)
        rows.append({"function": e.id, "chain_ok": rep.chain_ok,
                     "verdicts": rep.truth()})
        ok = ok and rep.chain_ok

    rng = np.random.default_rng(seed)
    g = grid_1d(-2.0, 2.0, 201)
    d = grid_1d(-3.0, 3.0, 241)
    for i in range(20):
        f = random_convex_1d(rng, g, strongly=bool(i % 2), boxed=(i % 3 == 0),
                             name=f"random_convex_{i}")
        rep = classify(f, d)
        rows.append({"function": f.name, "chain_ok": rep.chain_ok,
                     "verdicts": rep.truth()})
        ok = ok and rep.chain_ok
    summary = {"kind": "experiment", "name": "cor3-chain", "passed": ok,
               "n_functions": len(rows), "rows": rows}
    arts = [out_dir / "cor3_chain.json"]
    write_json(summary, arts[0])
    return ExperimentResult("cor3-chain", ok, summary, arts)


def run_cor4(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Farthest points: only singletons give a strong maximum at every tilt."""
    rows = {}
    ok = True
    v = farthest_point_experiment(make_set("singleton", _SET_GRID),
                                  n_probes=200, seed=seed)
    rows["singleton"] = {"kind": v.kind, "witness": v.witness_tilt,
                         "probes_used": v.probes_used}
    ok = ok and v.kind == "SINGLETON-CONSISTENT"
    for name in ("pair", "segment", "circle", "square"):
        try:
            v = farthest_point_experiment(make_set(name, _SET_GRID),
                                          n_probes=200, seed=seed)
            rows[name] = {"kind": v.kind, "witness": v.witness_tilt,
                          "probes_used": v.probes_used}
            ok = ok and v.kind == "WITNESS"
        except BudgetExhaustedError as err:
            rows[name] = {"kind": "BUDGET-EXHAUSTED", "error": str(err)}
            ok = False
    summary = {"kind": "experiment", "name": "cor4", "passed": ok,
               "sets": rows}
    arts = [out_dir / "cor4.json"]
    write_json(summary, arts[0])
    return ExperimentResult("cor4", ok, summary, arts)


def run_prop6(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Variational convexity detector against direct midpoint convexity."""
    rows = {}
    ok = True
    for name in (*CONVEX_SET_NAMES, "segment"):
        v = convexity_detector(make_set(name, _SET_GRID), n_probes=200, seed=seed)
        rows[name] = {"kind": v.kind, "witness": v.witness_tilt,
                      "midpoint_convex": v.midpoint_convex,
                      "agreement": v.agreement}
        ok = ok and v.kind == "CONVEX-CONSISTENT" and v.agreement
    for name in NONCONVEX_SET_NAMES:
        v = convexity_detector(make_set(name, _SET_GRID), n_probes=200, seed=seed)
        rows[name] = {"kind": v.kind, "witness": v.witness_tilt,
                      "midpoint_convex": v.midpoint_convex,
                      "agreement": v.agreement}
        ok = ok and v.kind == "NONCONVEX" and v.agreement
    summary = {"kind": "experiment", "name": "prop6", "passed": ok,
               "sets": rows}
    arts = [out_dir / "prop6.json"]
    write_json(summary, arts[0])
    return ExperimentResult("prop6", ok, summary, arts)


def run_domain_chain(out_dir: Path, seed: int = 42) -> ExperimentResult:
    """Inclusion of attained-tilt and interior sets inside dom of d(f*)."""
    rows = {}
    ok = True
    for e in entries():
        r = domain_chain_check(e.build(), e.dual_grid)
        rows[e.id] = {"inclusion_holds": r.inclusion_holds,
                      "n_dom_mj": int(r.dom_mj.sum()),
                      "n_int_dom": int(r.int_dom_conj.sum()),
                      "n_dom_sub": int(r.dom_sub_conj.sum()),
                      "n_violations": int(r.violations.size)}
        ok = ok and r.inclusion_holds
    summary = {"kind": "experiment", "name": "domain-chain", "passed": ok,
               "entries": rows}
    arts = [out_dir / "domain_chain.json"]
    write_json(summary, arts[0])
    return ExperimentResult("domain-chain", ok, summary, arts)


_RUNNERS: dict[str, Callable[[Path, int], ExperimentResult]] = {
    "ex1": run_ex1,
    "ex2": run_ex2,
    "lemma1": run_lemma1,
    "cor3-chain": run_cor3_chain,
    "cor4": run_cor4,
    "prop6": run_prop6,
    "domain-chain": run_domain_chain,
}


def run_experiments(which: str, out_dir: str | Path,
                    seed: int = 42) -> tuple[bool, list[ExperimentResult]]:
    """Run one experiment or all of them; writes a manifest either way."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = list(EXPERIMENT_NAMES) if which == "all" else [which]
    results = []
    paths: list[Path] = []
    for name in names:
        res = _RUNNERS[name](out, seed)
        results.append(res)
        paths.extend(res.artifacts)
    passed = all(r.passed for r in results)
    config = {"experiment": which, "seed": seed,
              "set_grid": {"bounds": [[-2.0, 2.0]] * 2, "counts": [101, 101]}}
    manifest = build_manifest(__version__, config, out, paths)
    write_json(manifest.to_dict(), out / "manifest.json")
    return passed, results
