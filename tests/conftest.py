"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: discrete
information quantities are accumulated over explicit outcome tuples,
geometry checks go through brute-force membership sampling, and the union
outer bound is maximized cell by cell over the flattened parameter set.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

from icbounds import DiscreteIC, GaussianIC
from icbounds import outer_bound as ob


def brute_entropy(joint: np.ndarray, axes: tuple, names: tuple) -> float:
    acc = defaultdict(float)
    for idx in np.ndindex(*joint.shape):
        p = float(joint[idx])
        if p <= 0:
            continue
        acc[tuple(idx[axes.index(n)] for n in names)] += p
    return -sum(p * math.log2(p) for p in acc.values() if p > 0)


def brute_mi(joint, axes, a, b, c=()) -> float:
    a, b, c = tuple(a), tuple(b), tuple(c)
    h = lambda names: brute_entropy(joint, axes, names)
    return h(a + c) + h(b + c) - h(a + b + c) - (h(c) if c else 0.0)


def h2(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def xor_copy_channel() -> DiscreteIC:
    """y1 = x1 xor x2 (noiseless), y2 = x1: passes the strong-regime check."""
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1 ^ x2, x1, x1, x2] = 1.0
    return DiscreteIC(w)


def orthogonal_channel(d12: float = 0.0, d21: float = 0.0) -> DiscreteIC:
    """y1 = x1, y2 = x2, both noiseless."""
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x2, x1, x2] = 1.0
    return DiscreteIC(w, d12=d12, d21=d21)


def constant_output_channel() -> DiscreteIC:
    w = np.zeros((2, 2, 2, 2))
    w[0, 0, :, :] = 1.0
    return DiscreteIC(w)


def random_channel(rng: np.random.Generator, lo=0.1, hi=3.0) -> GaussianIC:
    s = rng.uniform(lo, hi, size=4)
    p1, p2 = rng.uniform(0.1, 5.0, size=2)
    d12, d21 = rng.uniform(0.0, 1.0, size=2)
    return GaussianIC(*s, p1, p2, d12, d21)


class FlatUnionOracle:
    """The union outer bound as a 2-D sweep over every (alpha, beta) cell.

    Uses the parameter set of the library's evaluator (the warped base grid
    and the cliff families, in three product blocks) and its right-hand
    sides and per-cell sum-rate formula, but flattens the blocks into one
    cell table and maximizes over it cell by cell, with no use of
    separability.
    """

    def __init__(self, ch: GaussianIC, grid_n: int):
        al_g = ob._param_grid(grid_n, (ch.s12**2 + ch.s22**2) * ch.p2)
        be_g = ob._param_grid(grid_n, (ch.s11**2 + ch.s21**2) * ch.p1)
        al_c = ob._cliff_alpha(ch, ob.CLIFF_LEVELS)
        be_c = ob._cliff_beta(ch, ob.CLIFF_LEVELS)
        blocks = [(al_g, be_g), (al_c, be_g), (al_g, be_c)]
        alphas = np.concatenate([np.repeat(a, b.size) for a, b in blocks])
        betas = np.concatenate([np.tile(b, a.size) for a, b in blocks])
        rhs = ob._rhs_table(ch, alphas, betas)
        flat = [np.broadcast_to(r, alphas.shape).reshape(-1) for r in rhs]
        self.m10 = np.minimum(flat[0], flat[1])
        self.m01 = np.minimum(flat[2], flat[3])
        self.m11 = np.minimum.reduce(flat[4:10])
        self.m21 = np.minimum.reduce([flat[10], flat[12], flat[14]])
        self.m12 = np.minimum.reduce([flat[11], flat[13], flat[15]])
        self.r1_cap = float(np.max(self.m10))

    def frontier(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(x.shape, -np.inf)
        chunk = max(1, int(2_000_000 // max(x.size, 1)))
        for lo in range(0, self.m10.size, chunk):
            hi = lo + chunk
            f = self.m11[lo:hi, None] - x[None, :]
            np.minimum(f, self.m01[lo:hi, None], out=f)
            np.minimum(f, self.m21[lo:hi, None] - 2.0 * x[None, :], out=f)
            np.minimum(f, (self.m12[lo:hi, None] - x[None, :]) / 2.0, out=f)
            f[self.m10[lo:hi, None] < x[None, :]] = -np.inf
            np.maximum(out, f.max(axis=0), out=out)
        return out

    def max_sum(self) -> float:
        return ob._cell_max_sum(self.m10, self.m01, self.m11, self.m21, self.m12)


def random_discrete(rng: np.random.Generator, shape=(2, 2, 2, 2)) -> DiscreteIC:
    w = rng.gamma(1.0, size=shape)
    w /= w.sum(axis=(0, 1), keepdims=True)
    return DiscreteIC(w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
