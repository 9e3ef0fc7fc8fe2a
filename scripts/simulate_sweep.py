#!/usr/bin/env python3
"""Sweep the conferencing simulator across blocklengths on a demo channel.

The channel is y1 = x1 xor x2 (noiseless), y2 = x1: receiver 1 can decode
both messages, receiver 2 learns its message through the conference.  Rates
sit at a fixed fraction of the max-sum frontier point of the achievable
region, so the error estimates should fall as the blocklength grows.
"""

import argparse
import itertools

import numpy as np

from icbounds import DiscreteIC, SimConfig, inner_region_strong, simulate


def demo_channel(d12: float) -> DiscreteIC:
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1 ^ x2, x1, x1, x2] = 1.0
    return DiscreteIC(w, d12=d12)


def diagonal_frontier_point(region) -> float:
    lo, hi = 0.0, region.r1_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(region.frontier_at(mid)) >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d12", type=float, default=0.25 / 0.7)
    ap.add_argument("--fraction", type=float, default=0.7,
                    help="operating point as a fraction of the frontier")
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--blocklengths", type=int, nargs="+", default=[4, 8, 12])
    args = ap.parse_args()

    ch = demo_channel(args.d12)
    region = inner_region_strong(ch, grid=11)
    t_star = diagonal_frontier_point(region)
    rate = args.fraction * t_star
    print(f"frontier diagonal point {t_star:.4f}, operating at rate {rate:.4f}")
    for n in args.blocklengths:
        res = simulate(SimConfig(ch, n=n, r1=rate, r2=rate, scheme="thm2",
                                 trials=args.trials, seed=args.seed))
        print(f"n={n:3d}: err1={res.err1:.4f}±{res.err1_ci95:.4f}  "
              f"err2={res.err2:.4f}±{res.err2_ci95:.4f}  "
              f"effective rates {res.effective_rates[0]:.3f}/"
              f"{res.effective_rates[1]:.3f}  cells={res.cell_count}")


if __name__ == "__main__":
    main()
