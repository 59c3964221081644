"""Command-line entry point.

Subcommands: conjugate, classify, modulus, project, tchebychev,
verify-paper. Exit codes: 0 all checked properties hold, 1 a property
failed, 2 usage error. Set LL_THREADS to cap BLAS thread pools.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import SET_NAMES, entry, make_set
from .classify import classify, default_sample_plan
from .conjugate import conjugate
from .errors import LegendreLabError
from .grids import Grid, GridFunction
from .moduli import (certification_verdict, firm_modulus,
                     total_convexity_modulus, wellposedness_modulus)
from .projections import (ConstraintSet, solve_relative_projection,
                          tchebychev_test)
from .report_io import (read_constraint_set, read_grid_function, write_json,
                        write_grid_function, write_indices, write_mask,
                        write_modulus_csv)
from .experiments import EXPERIMENT_NAMES, run_experiments
from .tolerances import DEFAULT_TOLS

DEFAULT_DUAL_SPEC = "-3,3,201"


def _apply_thread_cap() -> None:
    cap = os.environ.get("LL_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def parse_grid_spec(spec: str) -> Grid:
    """Parse 'lb,ub,n' per axis, axes joined by ';'."""
    bounds = []
    counts = []
    for axis in spec.split(";"):
        lo, hi, n = axis.split(",")
        bounds.append((float(lo), float(hi)))
        counts.append(int(n))
    return Grid(tuple(bounds), tuple(counts))


def _parse_point(text: str) -> np.ndarray:
    return np.array([float(c) for c in text.split(",")])


def _load_function(args) -> GridFunction:
    if args.catalog:
        return entry(args.catalog).build()
    if args.input:
        return read_grid_function(args.input)
    raise SystemExit("one of --catalog or --input is required")


def _dual_grid_for(args, f: GridFunction) -> Grid:
    if args.dual_grid:
        return parse_grid_spec(args.dual_grid)
    if args.catalog:
        return entry(args.catalog).dual_grid
    return parse_grid_spec(";".join([DEFAULT_DUAL_SPEC] * f.grid.dim))


def _load_set(name_or_path: str, grid: Grid) -> ConstraintSet:
    if name_or_path in SET_NAMES:
        return make_set(name_or_path, grid)
    return read_constraint_set(name_or_path)


def _cmd_conjugate(args) -> int:
    f = _load_function(args)
    dual = _dual_grid_for(args, f)
    res = conjugate(f, dual, method=args.method)
    out = Path(args.out)
    write_grid_function(res.dual, out.with_suffix(".fstar.json"))
    write_mask(dual, res.trusted, out.with_suffix(".trust.json"),
               name=f.name + "* trust")
    write_indices(dual, res.argmax, out.with_suffix(".argmax.json"),
                  name=f.name + "* argmax")
    print(f"conjugate[{args.method}] of {f.name or 'input'}: "
          f"{int(res.trusted.sum())}/{dual.size} trusted dual points")
    return 0


def _cmd_classify(args) -> int:
    f = _load_function(args)
    dual = _dual_grid_for(args, f)
    from .conjugate import conjugate_fast
    plan = default_sample_plan(f, conjugate_fast(f, dual),
                               max_primal=args.samples, max_dual=args.samples)
    report = classify(f, dual, plan=plan)
    if args.out:
        write_json(report.to_dict(), args.out)
    print(f"classification of {f.name or 'input'} (chain_ok={report.chain_ok}):")
    for key, v in report.verdicts.items():
        mark = "PASS" if v.verdict else "FAIL"
        print(f"  {key:40s} {mark}  [{v.evidence}]")
    return 0 if report.chain_ok else 1


def _cmd_modulus(args) -> int:
    f = _load_function(args)
    radii = ([float(t) for t in args.radii.split(",")] if args.radii else None)
    if args.kind == "wellposed":
        if not args.subgradient:
            raise SystemExit("--subgradient supplies the tilt for --kind wellposed")
        s = _parse_point(args.subgradient)
        mod, rep = wellposedness_modulus(f, s, radii=radii)
        verdict = f"strong={rep.strong} minimizer={f.grid.point(rep.minimizer)}"
    else:
        if not args.at:
            raise SystemExit("--at is required for firm/total moduli")
        x = f.grid.index_of_nearest(_parse_point(args.at))
        if args.kind == "firm":
            if not args.subgradient:
                raise SystemExit("--subgradient is required for --kind firm")
            mod = firm_modulus(f, x, _parse_point(args.subgradient), radii=radii)
        else:
            mod = total_convexity_modulus(f, x, radii=radii)
        min_r = DEFAULT_TOLS.cert_min_radius(f.grid.max_spacing)
        pos, _, note = certification_verdict(mod, min_radius=min_r)
        verdict = f"certificate_positive={pos}" + (f" ({note})" if note else "")
    write_modulus_csv(mod, args.out)
    print(f"{args.kind} modulus -> {args.out}; {verdict}")
    return 0


def _cmd_project(args) -> int:
    f = entry(args.f).build() if args.f in _catalog_ids() else read_grid_function(args.f)
    S = _load_set(args.set, f.grid)
    cert = solve_relative_projection(f, S, _parse_point(args.tilt))
    payload = {
        "kind": "projection_certificate",
        "function": cert.function, "constraint": cert.constraint,
        "tilt": list(cert.tilt), "minimizer_point": list(cert.minimizer_point),
        "value": cert.value, "strong": cert.strong,
        "multiplicity": cert.report.multiplicity,
        "certificate_positive": cert.report.certificate_positive,
        "boundary_flag": cert.report.boundary_descent,
        "modulus": {"t": list(cert.modulus.radii),
                    "value": list(cert.modulus.values),
                    "empty": [bool(b) for b in cert.modulus.empty]},
    }
    if args.out:
        write_json(payload, args.out)
    print(f"projection minimizer {cert.minimizer_point} value {cert.value:.6g} "
          f"strong={cert.strong}")
    return 0


def _cmd_tchebychev(args) -> int:
    f = entry(args.f).build() if args.f in _catalog_ids() else read_grid_function(args.f)
    S = _load_set(args.set, f.grid)
    rep = tchebychev_test(f, S, n_probes=args.probes, seed=args.seed)
    payload = {
        "kind": "tchebychev_report", "function": f.name, "set": S.name,
        "passed": rep.passed, "verdict": rep.verdict, "n_probes": rep.n_probes,
        "witness_tilt": list(rep.witness_tilt) if rep.witness_tilt else None,
        "midpoint_convex": rep.midpoint_convex,
    }
    if args.out:
        write_json(payload, args.out)
    print(f"tchebychev[{S.name}]: {rep.verdict}; "
          f"S cap dom f midpoint-convex: {rep.midpoint_convex}")
    return 0


def _cmd_catalog(args) -> int:
    from .catalog import entries
    print("functions (usable with --catalog / --f):")
    for e in entries():
        star = "yes" if e.conjugate_analytic else "no"
        print(f"  {e.id:18s} dim={e.dim}  analytic_conjugate={star:3s}  "
              f"primal={e.primal_grid.counts} dual={e.dual_grid.counts}")
    print("sets (usable with --set):")
    print("  " + ", ".join(SET_NAMES))
    return 0


def _cmd_verify_paper(args) -> int:
    passed, results = run_experiments(args.experiment, args.out, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"{'PASS' if passed else 'FAIL'}  overall "
          f"({len(results)} experiment{'s' if len(results) != 1 else ''}; "
          f"artifacts in {args.out})")
    if not passed:
        first = next(r.name for r in results if not r.passed)
        print(f"first failing experiment: {first}", file=sys.stderr)
    return 0 if passed else 1


def _catalog_ids() -> set[str]:
    from .catalog import _REGISTRY
    return set(_REGISTRY)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="legendrelab",
        description="Convex-duality workbench: discrete conjugates, moduli, "
                    "classification, and projection experiments on box grids.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_function_args(sp):
        sp.add_argument("--catalog", help="catalog entry id")
        sp.add_argument("--input", help="grid-function JSON file")
        sp.add_argument("--dual-grid",
                        help="dual grid as 'lb,ub,n' per axis joined by ';' "
                             f"(default {DEFAULT_DUAL_SPEC} per axis, or the "
                             "catalog entry's recommended dual grid)")

    sp = sub.add_parser("conjugate", help="Legendre-Fenchel conjugate")
    add_function_args(sp)
    sp.add_argument("--method", choices=("fast", "brute"), default="fast")
    sp.add_argument("--out", required=True,
                    help="output prefix (.fstar/.trust/.argmax json files)")
    sp.set_defaults(func=_cmd_conjugate)

    sp = sub.add_parser("classify", help="convexity-hierarchy verdicts")
    add_function_args(sp)
    sp.add_argument("--samples", type=int, default=36)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("modulus", help="shell-infimum modulus curves")
    add_function_args(sp)
    sp.add_argument("--kind", choices=("firm", "total", "wellposed"),
                    required=True)
    sp.add_argument("--at", help="base point 'x' or 'x,y'")
    sp.add_argument("--subgradient",
                    help="dual vector; the tilt for --kind wellposed")
    sp.add_argument("--radii", help="comma-separated shell radii")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(func=_cmd_modulus)

    sp = sub.add_parser("project", help="relative projection onto a grid set")
    sp.add_argument("--f", required=True, help="catalog id or grid-function file")
    sp.add_argument("--set", required=True,
                    help=f"named set ({', '.join(SET_NAMES)}) or mask file")
    sp.add_argument("--tilt", required=True, help="tilt vector 'a' or 'a,b'")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("tchebychev", help="strong-Tchebychev probe test")
    sp.add_argument("--f", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--probes", type=int, default=200)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_tchebychev)

    sp = sub.add_parser("catalog", help="list built-in functions and sets")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("verify-paper", help="reproduction experiment suite")
    sp.add_argument("--experiment", choices=(*EXPERIMENT_NAMES, "all"),
                    default="all")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", required=True, help="artifact directory")
    sp.set_defaults(func=_cmd_verify_paper)
    return p


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LegendreLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
