"""Reproduction experiments driven by the ``verify-paper`` CLI subcommand.

Each experiment returns a pass/fail flag, a JSON-ready body and its named
modulus curves; one writer turns them into the experiment's artifacts under
the output directory. Everything is seeded and timestamp-free, so identical
flags reproduce identical bytes.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, _thread_cap
from .catalog import (CONVEX_SET_NAMES, NONCONVEX_SET_NAMES, CatalogEntry,
                      entries, entry, finite_difference_hessian,
                      fourth_root_well, fourth_root_well_hessian,
                      fourth_root_well_hessian_det, make_set)
from .classify import _agreement, _Session, classify
from .errors import BudgetExhaustedError, IoFailureError, LegendreLabError
from .generators import random_convex_1d
from .grids import NormChoice, grid_1d, grid_2d
from .moduli import (Modulus, certification_verdict, firm_modulus,
                     total_convexity_modulus)
from .projections import convexity_detector, farthest_point_experiment
from .report_io import build_manifest, write_json, write_modulus_csv
from .subdiff import _domain_chain
from .tolerances import DEFAULT_TOLS

_SET_GRID = grid_2d(-2.0, 2.0, 101)

# What a runner returns: passed, the summary's body past its header, and
# the modulus curves by CSV key.
_Outcome = tuple[bool, dict, dict[str, Modulus]]


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    artifacts: list[Path]


def _session(e: CatalogEntry, sessions: dict) -> _Session:
    """The session (f*, f**, report) of a catalog entry, built once per run:
    ``sessions`` (entry id -> session) is created by each run."""
    if e.id not in sessions:
        sessions[e.id] = _Session(e.build(), e.dual_grid, NormChoice.L2)
    return sessions[e.id]


def run_ex1(seed: int, sessions: dict) -> _Outcome:
    """Fourth-root well: Hessian formulas, the zero modulus along the edge,
    and the hierarchy verdicts (firmly subdifferentiable but not totally
    convex on its whole domain)."""
    ses = _session(entry("fourth_root_well"), sessions)
    f = ses.f
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
    floor = DEFAULT_TOLS.delta0(m_edge.radii)
    edge_zero = bool((m_edge.values[in_unit] <= floor[in_unit]).all())

    center = g.index_of_nearest([0.0, 0.0])
    m_center = firm_modulus(f, center, [0.0, 0.0])
    center_pos, _, _ = certification_verdict(m_center)

    report = ses.report
    truth = report.truth()
    wit = report.verdicts["totally_convex_on_dom"].witness
    wit_on_edge = (wit is not None
                   and abs(abs(wit["point"]["point"][1]) - 1.0) < 1e-6)
    class_ok = (truth["essentially_firmly_subdifferentiable"]
                and truth["essentially_strictly_convex"]
                and not truth["totally_convex_on_dom"] and wit_on_edge)

    passed = hessian_ok and edge_zero and bool(center_pos) and class_ok
    body = {
        "hessian": {"ok": hessian_ok, "max_entry_err": max(hess_errs),
                    "max_det_err": max(det_errs), "tol": 1e-6},
        "edge_total_modulus_zero_on_unit_interval": edge_zero,
        "center_firm_certificate_positive": bool(center_pos),
        "classification": report.to_dict(),
        "edge_witness_on_y_equals_1": wit_on_edge,
    }
    return passed, body, {"edge_total_modulus": m_edge,
                          "center_firm_modulus": m_center}


def run_ex2(seed: int, sessions: dict) -> _Outcome:
    """Square-root well: not totally convex at the corner of its
    subdifferential domain, yet firmly subdifferentiable there."""
    ses = _session(entry("sqrt_well"), sessions)
    f = ses.f
    g = f.grid
    corner = g.index_of_nearest([1.0, 1.0])

    m_corner = total_convexity_modulus(f, corner)
    corner_pos, _, _ = certification_verdict(m_corner)
    m_firm = firm_modulus(f, corner, [1.05, 1.05])
    firm_pos, _, _ = certification_verdict(m_firm)

    report = ses.report
    truth = report.truth()
    wit = report.verdicts["totally_convex_on_dom_subdiff"].witness
    wit_corner = (wit is not None
                  and max(abs(abs(c) - 1.0) for c in wit["point"]["point"]) < 1e-6)
    passed = ((not corner_pos) and bool(firm_pos)
              and not truth["totally_convex_on_dom_subdiff"] and wit_corner
              and truth["essentially_firmly_subdifferentiable"]
              and truth["essentially_strictly_convex"])
    body = {
        "corner_total_certificate_positive": bool(corner_pos),
        "corner_firm_certificate_positive": bool(firm_pos),
        "corner_witness": wit,
        "classification": report.to_dict(),
    }
    return passed, body, {"corner_total_modulus": m_corner,
                          "corner_firm_modulus": m_firm}


def run_lemma1(seed: int, sessions: dict) -> _Outcome:
    """Strong minimum / conjugate differentiability / firm certificate:
    three-way agreement over catalog entries, all-false on the flat case."""
    ids = ["halfsq", "abs", "quartic", "exp", "neg_entropy", "box_indicator"]
    per_entry = {}
    ok = True
    for eid in ids:
        rep = _agreement(_session(entry(eid), sessions), n_probes=24)
        per_entry[eid] = rep.to_dict()
        ok = ok and len(rep.probes) >= 20 and not rep.disagreements

    e = entry("box_indicator")
    s0 = e.dual_grid.index_of_nearest([0.0])
    flat = _agreement(_session(e, sessions), duals=[s0]).probes[0]
    flat_ok = not (flat.strong_minimum or flat.conjugate_differentiable
                   or flat.firm_certificate)
    return ok and flat_ok, {"flat_case_all_false": flat_ok,
                            "entries": per_entry}, {}


def _chain_row(name: str, report) -> dict:
    return {"function": name, "chain_ok": report.chain_ok,
            "verdicts": report.truth()}


def _random_chain_rows(seed: int) -> list[dict]:
    """cor3-chain's rows of 20 random convex functions, which build no
    catalog session."""
    rng = np.random.default_rng(seed)
    g = grid_1d(-2.0, 2.0, 201)
    d = grid_1d(-3.0, 3.0, 241)
    rows = []
    for i in range(20):
        f = random_convex_1d(rng, g, strongly=bool(i % 2), boxed=(i % 3 == 0),
                             name=f"random_convex_{i}")
        rows.append(_chain_row(f.name, classify(f, d)))
    return rows


def run_cor3_chain(seed: int, sessions: dict,
                   random_rows: list[dict] | None = None) -> _Outcome:
    """Implication chain across the catalog and random convex functions;
    ``random_rows`` are ``_random_chain_rows(seed)`` if already made."""
    rows = [_chain_row(e.id, _session(e, sessions).report) for e in entries()]
    rows += _random_chain_rows(seed) if random_rows is None else random_rows
    ok = all(row["chain_ok"] for row in rows)
    return ok, {"n_functions": len(rows), "rows": rows}, {}


def run_cor4(seed: int, sessions: dict) -> _Outcome:
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
    return ok, {"sets": rows}, {}


def run_prop6(seed: int, sessions: dict) -> _Outcome:
    """Variational convexity detector against direct midpoint convexity."""
    rows = {}
    ok = True
    expected = {**dict.fromkeys((*CONVEX_SET_NAMES, "segment"), "CONVEX-CONSISTENT"),
                **dict.fromkeys(NONCONVEX_SET_NAMES, "NONCONVEX")}
    for name, kind in expected.items():
        v = convexity_detector(make_set(name, _SET_GRID), n_probes=200, seed=seed)
        rows[name] = {"kind": v.kind, "witness": v.witness_tilt,
                      "midpoint_convex": v.midpoint_convex,
                      "agreement": v.agreement}
        ok = ok and v.kind == kind and v.agreement
    return ok, {"sets": rows}, {}


def run_domain_chain(seed: int, sessions: dict) -> _Outcome:
    """Inclusion of attained-tilt and interior sets inside dom of d(f*), and
    no dual of that estimate where the analytic conjugate is +inf."""
    rows = {}
    ok = True
    for e in entries():
        r = _domain_chain(_session(e, sessions).conj)
        outside = None
        if e.conjugate_analytic is not None:
            off = np.isposinf(e.conjugate_analytic(e.dual_grid.points))
            outside = int((r.dom_sub_conj & off).sum())
        rows[e.id] = {"inclusion_holds": r.inclusion_holds,
                      "n_dom_mj": int(r.dom_mj.sum()),
                      "n_int_dom": int(r.int_dom_conj.sum()),
                      "n_dom_sub": int(r.dom_sub_conj.sum()),
                      "n_dom_sub_outside_analytic": outside,
                      "n_violations": int(r.violations.size)}
        ok = ok and r.inclusion_holds and not outside
    return ok, {"entries": rows}, {}


_RUNNERS: dict[str, Callable[[int, dict], _Outcome]] = {
    "ex1": run_ex1,
    "ex2": run_ex2,
    "lemma1": run_lemma1,
    "cor3-chain": run_cor3_chain,
    "cor4": run_cor4,
    "prop6": run_prop6,
    "domain-chain": run_domain_chain,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)


# The session-free experiments, run in a forked child beside the sessions.
_LANE = ("cor4", "prop6")


def _run(name: str, out: Path, seed: int, sessions: dict,
         *args) -> ExperimentResult:
    """Run one experiment and write its artifacts: ``<stem>.json``, the
    header (kind, name, passed) and the runner's body, then one
    ``<stem>_<key>.csv`` per curve, where the stem is the name with dashes
    as underscores. ``args`` go to the runner after the session dict."""
    passed, body, curves = _RUNNERS[name](seed, sessions, *args)
    stem = name.replace("-", "_")
    summary = {"kind": "experiment", "name": name, "passed": passed, **body}
    arts = [out / f"{stem}.json"]
    write_json(summary, arts[0])
    for key, curve in curves.items():
        arts.append(out / f"{stem}_{key}.csv")
        write_modulus_csv(curve, arts[-1])
    return ExperimentResult(name, passed, summary, arts)


def _attempt(step: Callable, *args):
    """``step(*args)``, or the error it raised."""
    try:
        return step(*args)
    except BaseException as err:
        return err


def _parent_lane(out: Path, seed: int, sessions: dict) -> dict:
    """The forked run's work in this process: every experiment but
    ``_LANE`` and cor3-chain, then the catalog reports cor3-chain reads."""
    done = {name: _run(name, out, seed, sessions) for name in EXPERIMENT_NAMES
            if name not in (*_LANE, "cor3-chain")}
    for e in entries():
        _session(e, sessions).report
    return done


def _child_lane(out: Path, seed: int) -> tuple[dict, list[dict]]:
    """The forked child's work: ``_LANE`` run and written, and the rows of
    cor3-chain's random functions."""
    return ({name: _run(name, out, seed, {}) for name in _LANE},
            _random_chain_rows(seed))


def _pin(cpus) -> None:
    """Run this process on ``cpus`` only, best effort: where the system
    refuses, it runs on as it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _run_forked(out: Path, seed: int, caller: set[int],
                usable: list[int]) -> dict:
    """``{name: result}`` of every experiment, run in two lanes.

    This process, pinned to the first of the ``usable`` CPUs, builds every
    catalog session; a forked child, pinned to the others, runs ``_LANE``
    and classifies cor3-chain's random functions, which it sends back
    through a pipe with its results. cor3-chain is written once the child
    is reaped. The first error of this process's lane, else the child's,
    is raised. Where the system refuses a pin, that lane runs unpinned;
    this process's affinity is reset to ``caller`` on every way out."""
    sessions: dict[str, _Session] = {}
    _pin(usable[:1])
    try:
        r, w = os.pipe()
        with open(r, "rb") as reader, open(w, "wb") as writer:
            if (pid := os.fork()) == 0:   # leaves by os._exit, flushing no stdio
                try:
                    _pin(usable[1:])
                    with writer:
                        pickle.dump(_attempt(_child_lane, out, seed), writer)
                finally:
                    os._exit(0)
            writer.close()
            here = _attempt(_parent_lane, out, seed, sessions)
            data = reader.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        _pin(caller)
    child = pickle.loads(data) if data else LegendreLabError(
        f"the {' and '.join(_LANE)} process ended without a result "
        f"(wait status {status})")
    for lane in (here, child):
        if isinstance(lane, BaseException):
            raise lane
    done, random_rows = child
    done.update(here)
    done["cor3-chain"] = _run("cor3-chain", out, seed, sessions, random_rows)
    return done


def run_experiments(which: str, out_dir: str | Path,
                    seed: int = 42) -> tuple[bool, list[ExperimentResult]]:
    """Run one experiment or all; writes a manifest either way.

    When two CPUs are usable (the process's CPU affinity, the first
    ``LL_THREADS`` of them if that is a positive integer), "all" runs in
    two lanes, each pinned to its own usable CPUs (``_run_forked``): a
    forked child runs prop6 and cor4 and classifies cor3-chain's random
    functions, and this process does the rest. The caller's affinity is
    restored however the run ends."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IoFailureError(str(err)) from err
    names = list(EXPERIMENT_NAMES) if which == "all" else [which]
    caller = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
              else set())
    usable = sorted(caller)[:_thread_cap()]    # read per call, not on import
    if which != "all" or len(usable) < 2:
        sessions: dict[str, _Session] = {}
        done = {name: _run(name, out, seed, sessions) for name in names}
    else:   # platforms with sched_getaffinity have fork
        done = _run_forked(out, seed, caller, usable)
    results = [done[name] for name in names]
    paths = [path for res in results for path in res.artifacts]
    passed = all(r.passed for r in results)
    config = {"experiment": which, "seed": seed,
              "set_grid": {"bounds": _SET_GRID.bounds, "counts": _SET_GRID.counts}}
    manifest = build_manifest(__version__, config, out, paths)
    write_json(manifest.to_dict(), out / "manifest.json")
    return passed, results
