"""Command-line entry point.

Subcommands: conjugate, classify, modulus, project, tchebychev,
verify-paper. Exit codes: 0 all checked properties hold, 1 a property
failed, 2 usage error. Set LL_THREADS to cap BLAS thread pools (applied
when the package is imported, see ``legendrelab``); LL_THREADS=1 also
keeps verify-paper in one process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import SET_NAMES, CatalogEntry, entry, make_set
from .classify import classify
from .conjugate import conjugate_brute, conjugate_fast
from .errors import LegendreLabError
from .grids import Grid, GridFunction, NormChoice, finite_range
from .moduli import (certification_verdict, firm_modulus,
                     total_convexity_modulus, wellposedness_modulus)
from .projections import (ConstraintSet, solve_relative_projection,
                          tchebychev_test)
from .report_io import (read_constraint_set, read_grid_function, write_json,
                        write_grid_function, write_indices, write_mask,
                        write_modulus_csv)
from .experiments import EXPERIMENT_NAMES, run_experiments

DEFAULT_DUAL_SPEC = "-3,3,201"
MAX_BRUTE_PAIRS = 250_000_000  # ~1 s per 10^8 pairs; catalog grids need 121^4


class UsageError(ValueError):
    """Malformed command-line input; ``main`` reports it and returns 2."""


def parse_grid_spec(spec: str) -> Grid:
    """Parse 'lb,ub,n' per axis, axes joined by ';'."""
    try:
        bounds = []
        counts = []
        for axis in spec.split(";"):
            lo, hi, n = axis.split(",")
            bounds.append((float(lo), float(hi)))
            counts.append(int(n))
        return Grid(tuple(bounds), tuple(counts))
    except ValueError as err:
        raise UsageError(f"bad grid spec {spec!r} (want 'lb,ub,n' per "
                         f"axis, joined by ';'): {err}") from None


def _parse_floats(text: str, option: str) -> list[float]:
    try:
        return [float(c) for c in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} wants comma-separated numbers, "
                         f"got {text!r}") from None


def _parse_point(text: str, grid: Grid, option: str) -> np.ndarray:
    """A point or dual vector with one finite coordinate per grid axis."""
    point = np.array(_parse_floats(text, option))
    if point.size != grid.dim or not np.isfinite(point).all():
        raise UsageError(f"{option} wants {grid.dim} finite "
                         f"coordinate(s), got {text!r}")
    return point


def _norms_finite(s: np.ndarray) -> bool:
    """Every norm of the dual vector ``s`` is finite: an l2 norm squares the
    coordinates, so it can overflow where the pairing with x does not."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite([norm.length(s) for norm in NormChoice]).all())


def _parse_tilt(text: str, f: GridFunction, option: str,
                norms: bool = False) -> np.ndarray:
    """A tilt s inside the finite-range rule of f; past it f - <., s> on
    dom f or its tie slack may overflow, and then every point ties. With
    ``norms`` the norms of s must be finite too."""
    s = _parse_point(text, f.grid, option)
    if not finite_range(f, np.abs(s)):
        raise UsageError(f"{option} {text!r} is too large: f - <., s> on "
                         "dom f breaks the finite-range rule")
    if norms and not _norms_finite(s):
        raise UsageError(f"{option} {text!r} is too large: its norm overflows")
    return s


def _at_least(value: int, least: int, option: str) -> int:
    if value < least:
        raise UsageError(f"{option} must be at least {least}, got {value}")
    return value


def _catalog_entry(entry_id: str) -> CatalogEntry:
    try:
        return entry(entry_id)
    except KeyError as err:
        raise UsageError(err.args[0]) from None


def _load_function(args) -> GridFunction:
    if bool(args.catalog) == bool(args.input):
        raise UsageError("give exactly one of --catalog or --input")
    if args.catalog:
        return _catalog_entry(args.catalog).build()
    return read_grid_function(args.input)


def _fast_conjugable(f: GridFunction, command: str) -> None:
    """The fast conjugate takes 1 or 2 axes; more is a usage error."""
    if f.grid.dim > 2:
        raise UsageError(f"{command} takes a 1- or 2-axis function (the fast "
                         f"conjugate), the input has {f.grid.dim} axes")


def _dual_grid_for(args, f: GridFunction) -> Grid:
    if args.dual_grid:
        dual = parse_grid_spec(args.dual_grid)
        if dual.dim != f.grid.dim:
            raise UsageError(f"--dual-grid has {dual.dim} axes, the function "
                             f"has {f.grid.dim}")
        what = f"--dual-grid {args.dual_grid!r}"
    elif args.catalog:
        dual = _catalog_entry(args.catalog).dual_grid
        what = f"the dual grid of catalog entry {args.catalog!r}"
    else:
        spec = ";".join([DEFAULT_DUAL_SPEC] * f.grid.dim)
        dual = parse_grid_spec(spec)
        what = f"the default dual grid {spec!r}"
    # the pairing range with the primal grid, and the largest dual norm
    corner = np.abs(dual.bounds).max(axis=1)
    if not (finite_range(f, corner) and _norms_finite(corner)):
        raise UsageError(f"{what} is too large for this function: its pairing "
                         "with the primal grid or its norm overflows")
    return dual


def _named_or_file(name_or_path: str, build, read):
    """``build(name)`` for a known name, else ``read(path)`` for an existing
    file; anything else, or a ValueError from ``build``, is a usage error."""
    try:
        return build(name_or_path)
    except KeyError as err:
        if not Path(name_or_path).exists():
            raise UsageError(err.args[0]) from None
    except ValueError as err:
        raise UsageError(str(err)) from None
    return read(name_or_path)


def _project_inputs(args) -> tuple[GridFunction, ConstraintSet]:
    f = _named_or_file(args.f, lambda n: entry(n).build(), read_grid_function)
    S = _named_or_file(args.set, lambda n: make_set(n, f.grid),
                       read_constraint_set)
    if S.grid != f.grid:
        raise UsageError(f"--set {args.set!r} is not on the grid of --f")
    return f, S


def _cmd_conjugate(args) -> int:
    f = _load_function(args)
    if args.method == "fast":
        _fast_conjugable(f, "conjugate --method fast")
    dual = _dual_grid_for(args, f)
    if args.method == "brute" and f.grid.size * dual.size > MAX_BRUTE_PAIRS:
        raise UsageError(f"--method brute would compare {f.grid.size} x "
                         f"{dual.size} points, above {MAX_BRUTE_PAIRS}")
    res = (conjugate_fast if args.method == "fast" else conjugate_brute)(f, dual)
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
    _fast_conjugable(f, "classify")
    dual = _dual_grid_for(args, f)
    report = classify(f, dual, samples=_at_least(args.samples, 1, "--samples"))
    if args.out:
        write_json(report.to_dict(), args.out)
    print(f"classification of {f.name or 'input'} (chain_ok={report.chain_ok}):")
    for key, v in report.verdicts.items():
        mark = "PASS" if v.verdict else "FAIL"
        print(f"  {key:40s} {mark}  [{v.evidence}]")
    return 0 if report.chain_ok else 1


def _curve(modulus, *args, radii: list[float] | None):
    """``modulus(*args, radii=radii)``, whose radii check is a usage error."""
    try:
        return modulus(*args, radii=radii)
    except ValueError as err:
        raise UsageError(f"--radii: {err}") from None


def _cmd_modulus(args) -> int:
    f = _load_function(args)
    radii = _parse_floats(args.radii, "--radii") if args.radii else None
    if args.kind == "wellposed":
        if args.at:
            raise UsageError("--kind wellposed takes no --at")
        if not args.subgradient:
            raise UsageError("--subgradient supplies the tilt for --kind wellposed")
        s = _parse_tilt(args.subgradient, f, "--subgradient")
        mod, rep = _curve(wellposedness_modulus, f, s, radii=radii)
        verdict = f"strong={rep.strong} minimizer={f.grid.point(rep.minimizer)}"
    else:
        if not args.at:
            raise UsageError("--at is required for firm/total moduli")
        at = _parse_point(args.at, f.grid, "--at")
        if not all(lo <= c <= hi for c, (lo, hi) in zip(at, f.grid.bounds)):
            raise UsageError(f"--at {args.at!r} lies outside the grid "
                             f"{list(f.grid.bounds)}")
        x = f.grid.index_of_nearest(at)
        if args.kind == "firm":
            if not args.subgradient:
                raise UsageError("--subgradient is required for --kind firm")
            s = _parse_tilt(args.subgradient, f, "--subgradient", norms=True)
            mod = _curve(firm_modulus, f, x, s, radii=radii)
        elif args.subgradient:
            raise UsageError("--kind total takes no --subgradient")
        else:
            mod = _curve(total_convexity_modulus, f, x, radii=radii)
        pos, _, note = certification_verdict(mod)
        verdict = f"certificate_positive={pos}" + (f" ({note})" if note else "")
    write_modulus_csv(mod, args.out)
    print(f"{args.kind} modulus -> {args.out}; {verdict}")
    return 0


def _cmd_project(args) -> int:
    f, S = _project_inputs(args)
    s = _parse_tilt(args.tilt, f, "--tilt")
    cert = solve_relative_projection(f, S, s)
    payload = {
        "kind": "projection_certificate",
        "function": cert.function, "constraint": cert.constraint,
        "tilt": list(cert.tilt), "minimizer_point": list(cert.minimizer_point),
        "value": cert.value, "strong": cert.strong,
        "multiplicity": cert.report.multiplicity,
        "certificate_positive": cert.report.certificate_positive,
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
    f, S = _project_inputs(args)
    rep = tchebychev_test(f, S, n_probes=_at_least(args.probes, 1, "--probes"),
                          seed=_at_least(args.seed, 0, "--seed"))
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
    passed, results = run_experiments(args.experiment, args.out,
                                      seed=_at_least(args.seed, 0, "--seed"))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"{'PASS' if passed else 'FAIL'}  overall "
          f"({len(results)} experiment{'s' if len(results) != 1 else ''}; "
          f"artifacts in {args.out})")
    if not passed:
        first = next(r.name for r in results if not r.passed)
        print(f"first failing experiment: {first}", file=sys.stderr)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="legendrelab",
        description="Convex-duality workbench: discrete conjugates, moduli, "
                    "classification, and projection experiments on box grids.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_function_args(sp, dual_grid=True):
        sp.add_argument("--catalog", help="catalog entry id")
        sp.add_argument("--input", help="grid-function JSON file")
        if dual_grid:
            sp.add_argument("--dual-grid",
                            help="dual grid as 'lb,ub,n' per axis joined by "
                                 f"';' (default {DEFAULT_DUAL_SPEC} per axis, or "
                                 "the catalog entry's recommended dual grid)")

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
    add_function_args(sp, dual_grid=False)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LegendreLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
