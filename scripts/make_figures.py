#!/usr/bin/env python3
"""Produce the three preset bound frontiers and their summary numbers.

Writes <out>/<preset>_bound.csv (raw union frontier) and the convex hull next
to it through the ``figure`` command, so the files are the ones
``icbounds figure --preset <preset> --grid <grid>`` writes, and prints the
sum-rate bound of each preset.
"""

import argparse

from icbounds import GaussianIC, outer_region, sum_rate_bound
from icbounds import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figures-out", help="output directory")
    ap.add_argument("--grid", type=int, default=201)
    args = ap.parse_args()

    for name, params in sorted(cli.FIGURE_PRESETS.items()):
        cli.main(["figure", "--preset", name, "--out", args.out,
                  "--grid", str(args.grid)], standalone_mode=False)
        ch = GaussianIC(**params)
        region = outer_region(ch, grid_n=args.grid)
        srb = sum_rate_bound(ch, grid_n=args.grid)
        print(f"{name}: r1_max={region.r1_max:.6f}  r2_max={region.r2_max:.6f}  "
              f"sum_rate_bound={srb:.6f}  (grid {args.grid})")


if __name__ == "__main__":
    main()
