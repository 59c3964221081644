#!/usr/bin/env python3
"""Export the headline modulus curves of the two product-well examples.

Writes CSV curves (plot with any tool reading t,value,empty) showing why
the fourth-root well is firmly subdifferentiable but not totally convex on
its domain, and why the square-root well loses total convexity at the
corner of its subdifferential domain.

    python scripts/export_example_curves.py out/curves
"""

import sys
from pathlib import Path

from legendrelab import (certification_verdict, entry, firm_modulus,
                         total_convexity_modulus)
from legendrelab.report_io import write_json, write_modulus_csv


def main(out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = {}

    e1 = entry("fourth_root_well")
    f1 = e1.build()
    g = f1.grid

    curves = {
        "fourth_root_well_center_firm":
            firm_modulus(f1, g.index_of_nearest([0.0, 0.0]), [0.0, 0.0]),
        "fourth_root_well_edge_total":
            total_convexity_modulus(f1, g.index_of_nearest([0.0, 1.0])),
        "fourth_root_well_interior_total":
            total_convexity_modulus(f1, g.index_of_nearest([0.5, -0.3])),
    }
    f2 = entry("sqrt_well").build()
    curves["sqrt_well_corner_total"] = total_convexity_modulus(
        f2, g.index_of_nearest([1.0, 1.0]))
    curves["sqrt_well_corner_firm"] = firm_modulus(
        f2, g.index_of_nearest([1.0, 1.0]), [1.05, 1.05])

    for name, mod in curves.items():
        write_modulus_csv(mod, out / f"{name}.csv")
        pos, _, note = certification_verdict(mod)
        rows[name] = {"certificate_positive": pos, "note": note}
        print(f"{name:38s} positive={pos}")
    write_json({"kind": "curve_summary", "curves": rows}, out / "summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "out/curves"))
