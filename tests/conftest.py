"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: discrete
information quantities are accumulated over explicit outcome tuples,
geometry checks go through brute-force membership sampling, the union
outer bound is maximized cell by cell over the flattened parameter set, a
cell's sum rate is searched over candidate abscissae instead of read off
its LP dual, the discrete condition searches run one input point at a
time (over the p2 vertices, or over the p2 lattice they replaced), the
degradedness test loops over symbols, the cascade capacity evaluators'
mutual informations come from the covariance oracle instead of closed
forms, and the simulator's pair log-likelihoods run as first written
(column gathers).
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

from icbounds import DiscreteIC, GaussianIC
from icbounds import discrete as dsc
from icbounds import outer_bound as ob
from icbounds.regions import hull_of_points

from reference import RateConstraint, from_constraints, mi, rhs_reference


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


def xor_copy_channel(d12: float = 0.0) -> DiscreteIC:
    """y1 = x1 xor x2 (noiseless), y2 = x1: passes the strong-regime check."""
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1 ^ x2, x1, x1, x2] = 1.0
    return DiscreteIC(w, d12=d12)


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


def edge_floats(rng: np.random.Generator, n: int) -> np.ndarray:
    """n floats in descending order for the CSV writers: 0, the least
    subnormal, a subnormal, 1e300, decimal ties at the tenth significant
    digit and their neighbours one ulp either side (so the ninth digit
    rounds both ways, and 999999999|5 carries to a power of ten), then
    log-uniform values."""
    ties = [float(f"{m}5e{e}") for m in (123456788, 999999999, 100000000)
            for e in (-14, -9, 0, 5)]
    near = [np.nextafter(t, s) for t in ties for s in (0.0, np.inf)]
    vals = np.array([0.0, 5e-324, 1e-320, 1e300, *ties, *near])
    fill = 10.0 ** rng.uniform(-300, 300, n - vals.size)
    return np.sort(np.concatenate([vals, fill]))[::-1]


class FlatUnionOracle:
    """The union outer bound as a 2-D sweep over every (alpha, beta) cell.

    Uses the parameter set of the library's evaluator (the warped base grid
    and the cliff families, in three product blocks), the 16 right-hand
    sides of ``rhs_reference`` and the library's per-cell sum-rate
    formula, but flattens the blocks into one cell table and maximizes over
    it cell by cell, with no use of separability.  The table is held with
    the largest R1 bound m10 first, so the cells an abscissa x reaches
    (m10 >= x) are a prefix of it.
    """

    def __init__(self, ch: GaussianIC, grid_n: int):
        al_g = ob._param_grid(grid_n, (ch.s12**2 + ch.s22**2) * ch.p2)
        be_g = ob._param_grid(grid_n, (ch.s11**2 + ch.s21**2) * ch.p1)
        al_c, be_c = ob._cliffs(ch.s11**2 * ch.p1, ch.s12**2 * ch.p2,
                                ch.s21**2 * ch.p1)
        blocks = [(al_g, be_g), (al_c, be_g), (al_g, be_c)]
        alphas = np.concatenate([np.repeat(a, b.size) for a, b in blocks])
        betas = np.concatenate([np.tile(b, a.size) for a, b in blocks])
        rhs = rhs_reference(ch, alphas, betas)
        flat = [np.broadcast_to(r, alphas.shape).reshape(-1) for r in rhs]
        m10 = np.minimum(flat[0], flat[1])
        order = np.argsort(-m10, kind="stable")
        self.m10 = m10[order]
        self.m01 = np.minimum(flat[2], flat[3])[order]
        self.m11 = np.minimum.reduce(flat[4:10])[order]
        self.m21 = np.minimum.reduce([flat[10], flat[12], flat[14]])[order]
        self.m12 = np.minimum.reduce([flat[11], flat[13], flat[15]])[order]
        self.r1_cap = float(np.max(np.minimum.reduce(
            [self.m10, self.m11, self.m21 / 2.0, self.m12])))

    def frontier(self, x: np.ndarray) -> np.ndarray:
        """Each abscissa against every cell it reaches (-inf if none), a
        block of abscissae at a time: a block's rows run along the cells
        and hold about 32k cells in all, so its temporaries stay near
        cache size."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        reach = np.searchsorted(-self.m10, -x, side="right")  # cells m10 >= x
        out = np.full(x.shape, -np.inf)
        step = max(1, (1 << 15) // self.m10.size)
        for lo in range(0, x.size, step):
            rows, k = slice(lo, lo + step), reach[lo:lo + step].max()
            if k == 0:
                continue
            xs = x[rows, None]
            f = self.m11[:k] - xs
            np.minimum(f, self.m01[:k], out=f)
            np.minimum(f, self.m21[:k] - 2.0 * xs, out=f)
            np.minimum(f, (self.m12[:k] - xs) / 2.0, out=f)
            for row, r in zip(f, reach[rows]):
                row[r:] = -np.inf
            out[rows] = f.max(axis=1)
        return out

    def max_sum(self) -> float:
        return float(np.max(ob._cell_max_sum(self.m10, self.m01, self.m11,
                                             self.m21, self.m12)))


def candidate_cell_max_sum(m10, m01, m11, m21, m12) -> np.ndarray:
    """Largest R1 + R2 per cell by searching the abscissa R1 = x.

    At R1 = x the largest sum is min(x + m01, m11, m21 - x, (m12 + x)/2),
    concave and piecewise linear in x on [0, x_hi], so its max sits at an
    end or where an increasing piece meets a non-increasing one: six
    candidates, each clipped to [0, x_hi].
    """
    x_hi = np.minimum.reduce([m10, m11, m21 / 2.0, m12])
    x_hi = np.maximum(x_hi, 0.0)
    cands = [np.zeros_like(x_hi), x_hi,
             (m21 - m01) / 2.0, m11 - m01,
             (2.0 * m21 - m12) / 3.0, 2.0 * m11 - m12]
    best = np.full(np.shape(m10), -np.inf)
    for x in cands:
        x = np.clip(x, 0.0, x_hi)
        val = np.minimum.reduce([x + m01, m11, m21 - x, (m12 + x) / 2.0])
        np.maximum(best, val, out=best)
    return best


class PointwiseSearchOracle:
    """The discrete condition searches and inner regions, one point at a time.

    Each product input (and, for condition 7, each auxiliary kernel at each
    probe input) gets its own einsum joint and one ``mi`` call per
    information term; a strict ``<`` keeps the first minimum in loop order.
    Each inner-region input gets a ``from_constraints`` pentagon, and the
    vertices of all of them go through one ``hull_of_points``.  The library
    evaluates the same lattices from the channel matrices in row blocks.
    """

    AXES = ("x1", "x2", "y1", "y2")

    def __init__(self, ch: DiscreteIC):
        self.ch = ch

    def _joint(self, p1, p2):
        return np.einsum("a,b,cdab->abcd", p1, p2, self.ch.w, optimize=True)

    def pair_gap(self, p1, p2) -> float:
        """I(x1;y2|x2) - I(x1;y1|x2) at independent inputs."""
        j = self._joint(p1, p2)
        return (mi(j, self.AXES, ("x1",), ("y2",), ("x2",))
                - mi(j, self.AXES, ("x1",), ("y1",), ("x2",)))

    def vertices(self, resolution: int) -> np.ndarray:
        """The p2 simplex's vertices at any resolution: the library's p2 set."""
        return np.eye(self.ch.nx2)

    def lattice(self, resolution: int) -> np.ndarray:
        """The p2 lattice the searches took before they took the vertices."""
        return dsc.simplex_grid(self.ch.nx2, resolution)

    def gap_search(self, grid: int, p2_set):
        """(worst gap, p1, p2) of the condition-4/11/14 search over the p1
        lattice x ``p2_set(grid)``.  Each of the two refinements shrinks the
        p1 lattice around the incumbent; the p2 lattice shrinks with it,
        while the vertices stay as they are (the gap is linear in p2)."""
        lat1 = dsc.simplex_grid(self.ch.nx1, grid)
        set2 = p2_set(grid)
        best = (np.inf, None, None)
        for p1 in lat1:
            for p2 in set2:
                g = self.pair_gap(p1, p2)
                if g < best[0]:
                    best = (g, p1, p2)
        for _ in range(2):
            _, p1c, p2c = best
            patch2 = set2 if p2_set == self.vertices else dsc._shrink_patch(p2c, set2)
            for p1 in dsc._shrink_patch(p1c, lat1):
                for p2 in patch2:
                    g = self.pair_gap(p1, p2)
                    if g < best[0]:
                        best = (g, p1, p2)
        return best

    def aux_gap(self, p1, p2, kernel) -> float:
        """I(v;y1|x2) - I(v;y2|x2) at independent inputs and P(v|x1,x2)."""
        j = np.einsum("a,b,abv,cdab->vabcd", p1, p2, kernel, self.ch.w,
                      optimize=True)
        axes = ("v",) + self.AXES
        return (mi(j, axes, ("v",), ("y1",), ("x2",))
                - mi(j, axes, ("v",), ("y2",), ("x2",)))

    def condition7(self, grid: int, p2_set, samples: int = 2000, seed: int = 0):
        """(worst gap, p1, p2, kernel) of the condition-7 search, kernels
        outer and probes inner, with the library's kernel draws; the probes
        take their p2 from ``p2_set``."""
        ch = self.ch
        rng = np.random.default_rng(seed)
        lat1 = dsc.simplex_grid(ch.nx1, max(3, grid // 4))
        set2 = p2_set(max(3, grid // 4))
        probes = [(p1, p2) for p1 in lat1 for p2 in set2]
        kernels = dsc._sample_v_kernels(ch, samples, rng)
        best = (np.inf, None, None, None)
        for kernel in kernels:
            for p1, p2 in probes:
                g = self.aux_gap(p1, p2, kernel)
                if g < best[0]:
                    best = (g, p1, p2, kernel)
        return best

    def inner_region(self, grid: int, one_sided: bool):
        pts = []
        for p1 in dsc.simplex_grid(self.ch.nx1, grid):
            for p2 in dsc.simplex_grid(self.ch.nx2, grid):
                reg = from_constraints(self.pentagon(p1, p2, one_sided))
                pts.extend(zip(reg.r1, reg.r2))
        return hull_of_points(np.array(pts))

    def pentagon(self, p1, p2, one_sided: bool) -> list:
        j = self._joint(p1, p2)
        d12 = self.ch.d12

        def f(a, b, c=()):
            return mi(j, self.AXES, a, b, c)

        if one_sided:
            r1 = f(("x1",), ("y1",))
            r2 = f(("x2",), ("y2",), ("x1",))
            s = f(("x1", "x2"), ("y2",)) + d12
        else:
            r1 = f(("x1",), ("y1",), ("x2",))
            r2 = min(f(("x2",), ("y2",), ("x1",)) + d12,
                     f(("x2",), ("y1",), ("x1",)))
            s = min(f(("x1", "x2"), ("y2",)) + d12, f(("x1", "x2"), ("y1",)))
        return [RateConstraint(1, 0, r1, "r1"), RateConstraint(0, 1, r2, "r2"),
                RateConstraint(1, 1, s, "sum")]


def degraded_given_loop(ch: DiscreteIC, which: str) -> bool:
    """Physical degradedness, one (x1, front output) pair at a time: each
    live x2's conditional law of the back output must match that of the
    first live x2 within DEGRADE_TOL."""
    w = ch.w if which == "y2" else ch.w.transpose(1, 0, 2, 3)
    lead = w.sum(axis=1)
    for x1 in range(w.shape[2]):
        for yf in range(w.shape[0]):
            ref = None
            for x2 in range(w.shape[3]):
                if lead[yf, x1, x2] <= dsc.DEGRADE_TOL:
                    continue
                cond = w[yf, :, x1, x2] / lead[yf, x1, x2]
                if ref is None:
                    ref = cond
                elif np.max(np.abs(cond - ref)) > dsc.DEGRADE_TOL:
                    return False
    return True


def pair_loglik_columns(log_w, y, cb_a, cb_b) -> np.ndarray:
    """Sum_t log w[y_t, a_t, b_t] over an (m_a, m_b) block, column-gathered."""
    total = np.zeros((cb_a.shape[0], cb_b.shape[0]))
    for t in range(y.size):
        total += log_w[y[t]][cb_a[:, t]][:, cb_b[:, t]]
    return total


def random_discrete(rng: np.random.Generator, shape=(2, 2, 2, 2)) -> DiscreteIC:
    w = rng.gamma(1.0, size=shape)
    w /= w.sum(axis=(0, 1), keepdims=True)
    return DiscreteIC(w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
