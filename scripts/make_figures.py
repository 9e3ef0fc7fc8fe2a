#!/usr/bin/env python3
"""Produce the three preset bound frontiers and their summary numbers.

Writes <out>/<preset>_bound.csv (raw union frontier), the convex hull next
to it, and prints the sum-rate bound of each preset.
"""

import argparse
from pathlib import Path

from icbounds import GaussianIC, convex_hull, frontier_csv, outer_region, sum_rate_bound
from icbounds.cli import FIGURE_PRESETS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figures-out", help="output directory")
    ap.add_argument("--grid", type=int, default=201)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, params in sorted(FIGURE_PRESETS.items()):
        ch = GaussianIC(**params)
        region = outer_region(ch, grid_n=args.grid)
        (out / f"{name}_bound.csv").write_text(frontier_csv(region))
        hull = convex_hull(region)
        (out / f"{name}_bound_hull.csv").write_text(frontier_csv(hull))
        srb = sum_rate_bound(ch, grid_n=args.grid)
        print(f"{name}: r1_max={region.r1_max:.6f}  r2_max={region.r2_max:.6f}  "
              f"sum_rate_bound={srb:.6f}  (grid {args.grid})")
    print(f"wrote CSVs to {out}/")


if __name__ == "__main__":
    main()
