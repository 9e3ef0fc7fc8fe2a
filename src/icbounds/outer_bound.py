"""Explicit outer bound for the Gaussian channel with conferencing receivers.

The bound is a family of 16 linear rate constraints parameterized by a pair
(alpha, beta) in the unit square; the bound region is the union of the
per-parameter polytopes.  The union is taken over a warped parameter grid on
each axis plus two cliff families that pin the feasibility edges, in three
product blocks.  Each right-hand side depends on alpha alone or on beta
alone, so the largest R2 at a given R1 over a block is the min of a max over
its alphas and a max over its betas: two 1-D sweeps instead of a 2-D one,
with the same values bit for bit.  The frontier is exact at every sampled
abscissa for the swept parameter set and monotone under grid refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .gaussian import GaussianIC, psi
from .regions import (
    FRONTIER_SAMPLES,
    RateConstraint,
    RateRegion,
    from_constraints,
    point_region,
)

# (c1, c2) coefficient pattern of each of the 16 constraints, in order.
COEFFS: tuple[tuple[float, float], ...] = (
    (1, 0), (1, 0), (0, 1), (0, 1),
    (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1),
    (2, 1), (1, 2), (2, 1), (1, 2), (2, 1), (1, 2),
)

DEFAULT_GRID = 201


@dataclass(frozen=True)
class BoundParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise InputError("alpha and beta must lie in [0, 1]")


def _rhs_table(ch: GaussianIC, alpha, beta):
    """Right-hand sides of the 16 constraints, broadcast over alpha/beta.

    Returns a list of 16 arrays in canonical constraint order.
    """
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    a, b = ch.s11**2, ch.s12**2
    c, d = ch.s21**2, ch.s22**2
    p1, p2 = ch.p1, ch.p2
    d12, d21 = ch.d12, ch.d21
    det2 = (ch.s11 * ch.s22 - ch.s12 * ch.s21) ** 2
    cross_strong_1 = abs(ch.s21) >= abs(ch.s11)  # interference into rx2 at least as loud
    cross_strong_2 = abs(ch.s12) >= abs(ch.s22)

    r1a = psi((a * p1 + b * (1 - al) * p2) / (b * al * p2 + 1)) + d21
    r1b = psi(a * p1) + d21 + np.zeros_like(al)
    k1 = np.minimum(r1a, r1b)

    r2a = psi(a * be * p1 / (c * be * p1 + 1)) + psi(c * p1)
    r2b = psi(c * be * p1 / (a * be * p1 + 1)) + psi(a * p1)
    k2 = np.minimum(r2a, r2b)

    r3a = psi((c * (1 - be) * p1 + d * p2) / (c * be * p1 + 1)) + d12
    r3b = psi(d * p2) + d12 + np.zeros_like(be)
    k3 = np.minimum(r3a, r3b)

    r4a = psi(d * al * p2 / (b * al * p2 + 1)) + psi(b * p2)
    r4b = psi(b * al * p2 / (d * al * p2 + 1)) + psi(d * p2)
    k4 = np.minimum(r4a, r4b)

    if cross_strong_1:
        k5 = psi(c * p1 + d * p2) + d12 + d21 + np.zeros_like(be)
    else:
        k5 = (psi(a * be * p1)
              + psi((c * (1 - be) * p1 + d * p2) / (c * be * p1 + 1))
              + d12 + d21)
    if cross_strong_2:
        k6 = psi(a * p1 + b * p2) + d12 + d21 + np.zeros_like(al)
    else:
        k6 = (psi(d * al * p2)
              + psi((a * p1 + b * (1 - al) * p2) / (b * al * p2 + 1))
              + d12 + d21)

    k7 = psi(a * be * p1 / (c * be * p1 + 1)) + psi(c * p1 + d * p2) + d12
    k8 = psi(d * al * p2 / (b * al * p2 + 1)) + psi(a * p1 + b * p2) + d21
    k9 = psi(a * p1 + b * p2 + c * p1 + d * p2 + det2 * p1 * p2) + np.zeros_like(al)
    k10 = (psi(b * p2 + a * p1 / (c * p1 + 1))
           + psi(c * p1 + d * p2 / (b * p2 + 1))
           + d12 + d21 + np.zeros_like(al))

    guard1 = 0.0 if cross_strong_1 else 1.0
    guard2 = 0.0 if cross_strong_2 else 1.0
    k11 = (guard1 * (psi(a * be * p1) - psi(c * be * p1))
           + psi(c * p1 + d * p2 / (b * p2 + 1))
           + psi(a * p1 + b * p2) + d12 + 2 * d21)
    k12 = (guard2 * (psi(d * al * p2) - psi(b * al * p2))
           + psi(b * p2 + a * p1 / (c * p1 + 1))
           + psi(c * p1 + d * p2) + 2 * d12 + d21)

    k13 = (psi((a + c) * be * p1)
           + psi(c * (1 - be) * p1 / (1 + c * be * p1)
                 + d * p2 / ((b * p2 + 1) * (1 + c * be * p1)))
           + psi(a * p1 + b * p2) + d12 + d21)
    k14 = (psi((b + d) * al * p2)
           + psi(b * (1 - al) * p2 / (1 + b * al * p2)
                 + a * p1 / ((c * p1 + 1) * (1 + b * al * p2)))
           + psi(c * p1 + d * p2) + d12 + d21)

    k15 = (psi(a * p1 + b * p2 / (1 + b * p2) + c * p1
               + d * p2 / (1 + b * p2) + det2 * p1 * p2 / (1 + b * p2))
           + psi(a * p1 + b * p2) + d21 + np.zeros_like(al))
    k16 = (psi(a * p1 / (1 + c * p1) + b * p2 + c * p1 / (1 + c * p1)
               + d * p2 + det2 * p1 * p2 / (1 + c * p1))
           + psi(c * p1 + d * p2) + d12 + np.zeros_like(al))

    return [k1, k2, k3, k4, k5, k6, k7, k8, k9, k10,
            k11, k12, k13, k14, k15, k16]


def constraints_at(ch: GaussianIC, params: BoundParams) -> list[RateConstraint]:
    """The 16 rate constraints at one parameter point, in canonical order."""
    rhs = _rhs_table(ch, params.alpha, params.beta)
    return [RateConstraint(c1, c2, float(r), tag=f"c{i + 1:02d}")
            for i, ((c1, c2), r) in enumerate(zip(COEFFS, rhs))]


def region_at(ch: GaussianIC, params: BoundParams) -> RateRegion:
    """Exact convex polytope cut out by the 16 constraints at (alpha, beta)."""
    return from_constraints(constraints_at(ch, params), tag="outer-cell")


def _param_grid(n: int, snr: float) -> np.ndarray:
    """Parameter grid warped to be uniform in log2(1 + snr * value).

    A grid uniform in the raw parameter resolves nothing at high SNR: the
    binding window shrinks like 1/snr, so 51 vs 201 points can differ by a
    bit or more.  Spacing uniformly in the conditional-rate coordinate keeps
    refinements nested and makes the sweep converge at caption-scale gains.
    The endpoints are exactly 0 and 1; expm1(log1p(snr)) / snr can round
    above 1, and 1 - alpha < 0 is a negative SNR when a gain is zero.
    """
    t = np.linspace(0.0, 1.0, n)
    if snr <= 1e-9:
        return t
    out = np.expm1(t * math.log1p(snr)) / snr
    out[-1] = 1.0
    return out


CLIFF_LEVELS = 256


def _cliff_alpha(ch: GaussianIC, levels: int) -> np.ndarray:
    """Parameters where the alpha-side single-user bound hits uniform levels.

    The per-column maximum often sits exactly where that bound equals the
    queried abscissa, so a fixed family of such parameters pins the
    feasibility edge independently of the grid resolution (and of the
    conference capacities, keeping sweeps with different budgets cell-wise
    comparable).
    """
    a, b = ch.s11**2 * ch.p1, ch.s12**2 * ch.p2
    if b <= 0:
        return np.empty(0)
    lo, hi = psi(a / (b + 1)), psi(a + b)
    snr = np.exp2(2.0 * np.linspace(lo, hi, levels)) - 1.0
    vals = (a + b - snr) / (b * (snr + 1.0))
    return np.clip(vals, 0.0, 1.0)


def _cliff_beta(ch: GaussianIC, levels: int) -> np.ndarray:
    """Beta values where the beta-side single-user bound hits uniform levels."""
    a, c = ch.s11**2 * ch.p1, ch.s21**2 * ch.p1
    if a <= 0 and c <= 0:
        return np.empty(0)
    dense = _param_grid(4097, a + c)
    bound = np.minimum(
        psi(a * dense / (c * dense + 1)) + psi(c),
        psi(c * dense / (a * dense + 1)) + psi(a),
    )
    lvl = np.linspace(bound[0], bound[-1], levels)
    return np.interp(lvl, bound, dense)


# The (c1, c2) classes whose constraints reduce to one bound each, in the
# order m10, m01, m11, m21, m12.
_CLASSES: tuple[tuple[float, float], ...] = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def _side_bounds(rhs, n_alpha: int, n_beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced bounds per constraint class, split into alpha and beta sides.

    ``rhs`` comes from ``_rhs_table`` evaluated on a column of alphas and a
    row of betas, so an entry that depends on one parameter alone is shaped
    (n_alpha, 1) or (1, n_beta).  Each class bound is the min of its
    constraints, so it splits as min(alpha side, beta side); a side with no
    constraint of the class holds +inf.  Returns two (5, n) arrays with rows
    m10, m01, m11, m21, m12.  Raises if an entry depends on both parameters:
    the union would then not separate.
    """
    parts = ([[] for _ in _CLASSES], [[] for _ in _CLASSES])
    for i, (r, coeffs) in enumerate(zip(rhs, COEFFS)):
        shape = np.shape(r)
        if shape == (n_alpha, 1):
            side = 0
        elif shape == (1, n_beta):
            side = 1
        else:
            raise RuntimeError(
                f"constraint c{i + 1:02d} has shape {shape}, not a function of "
                f"alpha alone ({n_alpha}, 1) or beta alone (1, {n_beta})"
            )
        parts[side][_CLASSES.index(coeffs)].append(np.ravel(r))
    return tuple(
        np.array([np.minimum.reduce(p) if p else np.full(n, np.inf) for p in cls])
        for cls, n in zip(parts, (n_alpha, n_beta))
    )


def _side_frontier(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max over one side's parameters of F_x, for each abscissa in x.

    F_x = min(m01, m11 - x, m21 - 2x, (m12 - x)/2), or -inf where m10 < x.
    """
    m10, m01, m11, m21, m12 = m[:, :, None]
    f = m11 - x
    np.minimum(f, m01, out=f)
    np.minimum(f, m21 - 2.0 * x, out=f)
    np.minimum(f, (m12 - x) / 2.0, out=f)
    f[m10 < x] = -np.inf
    return f.max(axis=0)


class _UnionEvaluator:
    """Union frontier over three product blocks of parameters.

    The parameter set is the warped base grid on each axis plus the two cliff
    families, taken as three product blocks: alpha grid x beta grid, alpha
    cliffs x beta grid and alpha grid x beta cliffs.  Every right-hand side
    depends on alpha alone or beta alone, so each reduced bound is
    min(a(alpha), b(beta)), and on a block A x B the frontier at abscissa x is

        min(max_{alpha in A} F_x(alpha), max_{beta in B} G_x(beta))

    with F_x from ``_side_frontier`` on the alpha side and G_x the same on
    the beta side.  This equals the per-cell maximization over A x B exactly
    in floating point: t - x, t - 2x and (t - x)/2 round monotonically in t,
    so min commutes with them, and the max of min(F, G) over a product is
    min(max F, max G).  The union frontier is the max over the blocks.
    """

    def __init__(self, ch: GaussianIC, grid_n: int):
        al_g = _param_grid(grid_n, (ch.s12**2 + ch.s22**2) * ch.p2)
        be_g = _param_grid(grid_n, (ch.s11**2 + ch.s21**2) * ch.p1)
        al_c = _cliff_alpha(ch, CLIFF_LEVELS)
        be_c = _cliff_beta(ch, CLIFF_LEVELS)
        al = np.concatenate([al_g, al_c])
        be = np.concatenate([be_g, be_c])
        rhs = _rhs_table(ch, al[:, None], be[None, :])
        a, b = _side_bounds(rhs, al.size, be.size)
        # the four axis sets: alpha grid, alpha cliffs, beta grid, beta cliffs
        self.sides = (a[:, :grid_n], a[:, grid_n:], b[:, :grid_n], b[:, grid_n:])
        # the product blocks as index pairs into sides; an empty cliff family
        # (no alpha cliffs when s12 = 0) contributes no block
        self.blocks = [(i, j) for i, j in ((0, 2), (1, 2), (0, 3))
                       if self.sides[i].size and self.sides[j].size]
        self.r1_cap = float(max(
            min(self.sides[i][0].max(), self.sides[j][0].max())
            for i, j in self.blocks
        ))

    def frontier(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        side_max = [_side_frontier(m, x) if m.size else None for m in self.sides]
        out = np.full(x.shape, -np.inf)
        for i, j in self.blocks:
            np.maximum(out, np.minimum(side_max[i], side_max[j]), out=out)
        return out

    def max_sum(self) -> float:
        """Exact max of R1 + R2 over the union of cell polytopes."""
        return max(float(np.max(_cell_max_sum(*np.minimum(
            self.sides[i][:, :, None], self.sides[j][:, None, :]))))
            for i, j in self.blocks)


def _cell_max_sum(m10, m01, m11, m21, m12) -> np.ndarray:
    """Largest R1 + R2 in each cell, given its reduced bounds (equal shapes).

    A cell is the LP max R1 + R2 s.t. R1 <= m10, R2 <= m01, R1 + R2 <= m11,
    2 R1 + R2 <= m21, R1 + 2 R2 <= m12, R1, R2 >= 0.  The bounds are
    nonnegative (psi terms plus conference capacities), so the origin is
    feasible and the max is the least dual objective over the seven
    vertices of {y >= 0: y10 + y11 + 2 y21 + y12 >= 1,
    y01 + y11 + y21 + 2 y12 >= 1}.
    """
    return np.minimum.reduce([m11, m21, m12, m10 + m01, (m10 + m12) / 2.0,
                              (m01 + m21) / 2.0, (m21 + m12) / 3.0])


@functools.lru_cache(maxsize=1)
def _evaluator(ch: GaussianIC, grid_n: int) -> _UnionEvaluator:
    """The evaluator of the last channel and grid asked for.

    A command that draws the frontier and then prints the sum rate, as
    ``outer`` does, builds it once.
    """
    return _UnionEvaluator(ch, grid_n)


def outer_region(ch: GaussianIC, grid_n: int = DEFAULT_GRID) -> RateRegion:
    """Union of the per-parameter polytopes over a grid_n x grid_n sweep,
    sampled on the CSV grid: FRONTIER_SAMPLES even abscissae up to r1_cap,
    or up to the last nonnegative sample if the frontier ends below 0."""
    if grid_n < 2:
        raise InputError("grid_n must be at least 2")
    ev = _evaluator(ch, grid_n)
    if ev.r1_cap <= 0:
        return point_region("outer")
    grid = np.linspace(0.0, ev.r1_cap, FRONTIER_SAMPLES)
    vals = ev.frontier(grid)
    if vals[-1] < 0:
        ok = np.flatnonzero(vals >= 0)
        if not ok.size:
            return point_region("outer")
        grid = np.linspace(0.0, grid[ok[-1]], FRONTIER_SAMPLES)
        vals = ev.frontier(grid)
    return RateRegion(grid, vals, tag="outer", frontier_fn=ev.frontier)


def sum_rate_bound(ch: GaussianIC, grid_n: int = DEFAULT_GRID) -> float:
    """Largest R1 + R2 admitted by the union bound."""
    if grid_n < 2:
        raise InputError("grid_n must be at least 2")
    return max(_evaluator(ch, grid_n).max_sum(), 0.0)
