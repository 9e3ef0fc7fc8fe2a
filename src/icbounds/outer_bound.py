"""Explicit outer bound for the Gaussian channel with conferencing receivers.

The bound is a family of 16 linear rate constraints parameterized by a pair
(alpha, beta) in the unit square; the bound region is the union of the
per-parameter polytopes.  The union is taken over a warped parameter grid on
each axis plus two cliff families that pin the feasibility edges, in three
product blocks: grid x grid, alpha cliffs x beta grid and alpha grid x beta
cliffs (143,313 cells at grid 201).  The cliff families are warped grids
too (the beta one through a one-line map), placed where the single-user
bounds take uniform levels exactly.  The 16 right-hand sides are sums of 25
named psi terms, each computed once; every term is constant or a monotone
function of alpha alone or of beta alone.  So ``_side_bounds`` writes each
constraint into an alpha-side or a beta-side table of class bounds, and the
largest R2 at a given R1 over a block is the min of a max over its alphas
and a max over its betas: two 1-D sweeps instead of a 2-D one, with the same
values bit for bit.  A cliff block can raise the frontier only where its
own axis binds on the grid block, so each cliff family is swept at those
abscissae alone.  The frontier is exact at every sampled abscissa for the
swept parameter set and monotone under grid refinement.  Both sweeps take
their cells in ``regions.chunks``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputError
from .gaussian import POWER_OVERFLOW, GaussianIC, psi
from .regions import RateRegion, chunks, frontier_abscissae

DEFAULT_GRID = 201


def _squares(ch: GaussianIC) -> tuple[float, float, float, float, float]:
    """s11^2, s12^2, s21^2, s22^2 and (s11 s22 - s12 s21)^2.

    Raises when they overflow, or when the received powers of x1 and of x2
    summed over both outputs, (s11^2 + s21^2) p1 and (s12^2 + s22^2) p2, do;
    each received power s_ij^2 p_j is at most one of those two.  Raises too
    when a product of received powers that ``_side_bounds`` forms does:
    with alpha, beta <= 1 none exceeds the bounds checked here."""
    try:
        sq = (ch.s11**2, ch.s12**2, ch.s21**2, ch.s22**2,
              (ch.s11 * ch.s22 - ch.s12 * ch.s21) ** 2)
    except OverflowError:
        raise InputError("squared gains overflow: the gains are too large for "
                         "floating point") from None
    a, b, c, d, det2 = sq
    x1, x2 = (a + c) * ch.p1, (b + d) * ch.p2
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise InputError(POWER_OVERFLOW)
    products = (
        (x1 + 1) * (x2 + 1),       # be_k13's and al_k14's denominators
        x1 + x2 + det2 * ch.p1 * ch.p2,  # y12's SNR, which bounds gt1's and gt2's
    )
    if not all(map(math.isfinite, products)):
        raise InputError("products of received powers overflow: the gains or "
                         "powers are too large for floating point")
    return sq


def _side_bounds(ch: GaussianIC, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """The reduced bound of each constraint class at each alpha and at each
    beta.

    The 16 constraints k1 ... k16 fall into the classes R1 (m10), R2 (m01),
    R1 + R2 (m11), 2 R1 + R2 (m21) and R1 + 2 R2 (m12), and each right-hand
    side depends on alpha alone or on beta alone.  So a class bound is the
    min of its constraints and splits as min(alpha side, beta side).
    Returns the two sides as (5, n) arrays with rows m10, m01, m11, m21,
    m12; a constant constraint is put on the alpha side, and a side with no
    constraint of a class holds +inf.

    Each of the 25 distinct psi terms is computed once, under a name, and
    each constraint adds its terms left to right.  ``i11`` ... ``i22`` are
    psi(s_jk^2 p_k), ``y1``/``y2`` psi of all of y1/y2, ``g1``/``g2`` and
    ``gt1``/``gt2`` the genie terms of k10-k12 and k16/k15.  An ``al_`` or
    ``be_`` term depends on that parameter alone and is monotone in it.
    Alphas are taken as a column and betas as a row, so a beta term written
    into an alpha-side bound, or the reverse, raises when the side is
    broadcast to its parameter's shape.
    """
    al = np.asarray(alpha, dtype=float).reshape(-1, 1)
    be = np.asarray(beta, dtype=float).reshape(1, -1)
    a, b, c, d, det2 = _squares(ch)
    p1, p2 = ch.p1, ch.p2
    d12, d21 = ch.d12, ch.d21

    i11, i12, i21, i22 = psi(a * p1), psi(b * p2), psi(c * p1), psi(d * p2)
    y1, y2 = psi(a * p1 + b * p2), psi(c * p1 + d * p2)
    y12 = psi(a * p1 + b * p2 + c * p1 + d * p2 + det2 * p1 * p2)
    g1 = psi(b * p2 + a * p1 / (c * p1 + 1))
    g2 = psi(c * p1 + d * p2 / (b * p2 + 1))
    gt2 = psi(a * p1 + b * p2 / (1 + b * p2) + c * p1
              + d * p2 / (1 + b * p2) + det2 * p1 * p2 / (1 + b * p2))
    gt1 = psi(a * p1 / (1 + c * p1) + b * p2 + c * p1 / (1 + c * p1)
              + d * p2 + det2 * p1 * p2 / (1 + c * p1))

    # nondecreasing in alpha
    al_12, al_22, al_sum = psi(b * al * p2), psi(d * al * p2), psi((b + d) * al * p2)
    al_22_12 = psi(d * al * p2 / (b * al * p2 + 1))
    al_12_22 = psi(b * al * p2 / (d * al * p2 + 1))
    # nonincreasing in alpha
    al_y1 = psi((a * p1 + b * (1 - al) * p2) / (b * al * p2 + 1))
    al_k14 = psi(b * (1 - al) * p2 / (1 + b * al * p2)
                 + a * p1 / ((c * p1 + 1) * (1 + b * al * p2)))
    # nondecreasing in beta
    be_11, be_21, be_sum = psi(a * be * p1), psi(c * be * p1), psi((a + c) * be * p1)
    be_11_21 = psi(a * be * p1 / (c * be * p1 + 1))
    be_21_11 = psi(c * be * p1 / (a * be * p1 + 1))
    # nonincreasing in beta
    be_y2 = psi((c * (1 - be) * p1 + d * p2) / (c * be * p1 + 1))
    be_k13 = psi(c * (1 - be) * p1 / (1 + c * be * p1)
                 + d * p2 / ((b * p2 + 1) * (1 + c * be * p1)))

    k1 = np.minimum(al_y1 + d21, i11 + d21)
    k2 = np.minimum(be_11_21 + i21, be_21_11 + i11)
    k3 = np.minimum(be_y2 + d12, i22 + d12)
    k4 = np.minimum(al_22_12 + i12, al_12_22 + i22)
    if abs(ch.s21) >= abs(ch.s11):  # interference into rx2 at least as loud
        k5 = y2 + d12 + d21
        k11 = g2 + y1 + d12 + 2 * d21
    else:
        k5 = be_11 + be_y2 + d12 + d21
        k11 = be_11 - be_21 + g2 + y1 + d12 + 2 * d21
    if abs(ch.s12) >= abs(ch.s22):
        k6 = y1 + d12 + d21
        k12 = g1 + y2 + 2 * d12 + d21
    else:
        k6 = al_22 + al_y1 + d12 + d21
        k12 = al_22 - al_12 + g1 + y2 + 2 * d12 + d21
    k7 = be_11_21 + y2 + d12
    k8 = al_22_12 + y1 + d21
    k9 = y12
    k10 = g1 + g2 + d12 + d21
    k13 = be_sum + be_k13 + y1 + d12 + d21
    k14 = al_sum + al_k14 + y2 + d12 + d21
    k15 = gt2 + y1 + d21
    k16 = gt1 + y2 + d12

    least = functools.partial(functools.reduce, np.minimum)
    alpha_side = (k1, k4, least((k6, k8, k9, k10)), k15, least((k12, k14, k16)))
    beta_side = (k2, k3, least((k5, k7)), least((k11, k13)), np.inf)
    return tuple(np.array([np.broadcast_to(m, p.shape).ravel() for m in side])
                 for side, p in ((alpha_side, al), (beta_side, be)))


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


def _cliffs(a: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The alpha and the beta cliff families, given the received powers
    a = s11^2 p1, b = s12^2 p2 and c = s21^2 p1: the parameters where each
    side's single-user bound hits CLIFF_LEVELS uniform levels.

    The per-column maximum often sits exactly where that bound equals the
    queried abscissa, so a fixed family of such parameters pins the
    feasibility edge independently of the grid resolution (and of the
    conference capacities, keeping sweeps with different budgets cell-wise
    comparable).  Both families are warped grids.  The alpha bound
    psi((a + b (1 - alpha)) / (b alpha + 1)) is psi(a + b) - psi(b alpha),
    uniform exactly where ``_param_grid(CLIFF_LEVELS, b)`` is.  With lo <= hi
    the two of a and c, psi(s) - psi(s beta) grows with s, so the beta bound
    (k2) is psi(hi beta / (lo beta + 1)) + psi(lo); it is uniform where
    hi beta / (lo beta + 1) = v hi / (lo + 1) for v on
    ``_param_grid(CLIFF_LEVELS, hi / (lo + 1))``, that is at
    beta = v / (1 + lo (1 - v)).  A family whose bound is constant (no
    alpha cliffs when b = 0, no beta cliffs when a = c = 0) is empty.
    """
    alpha = _param_grid(CLIFF_LEVELS, b) if b > 0 else np.empty(0)
    if a <= 0 and c <= 0:
        return alpha, np.empty(0)
    lo, hi = sorted((a, c))
    v = _param_grid(CLIFF_LEVELS, hi / (lo + 1))
    return alpha, v / (1 + lo * (1 - v))


def _side_frontier(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max over one side's parameters of F_x, for each abscissa in x.

    F_x = min(m01, m11 - x, m21 - 2x, (m12 - x)/2), or -inf where m10 < x.
    The parameters are taken in ``regions.chunks`` of x.size cells each and
    folded into a running max, which is exact, so memory stays at one
    chunk's temporaries whatever the grid.  A side with no parameters gives
    -inf everywhere.
    """
    out = np.full(x.shape, -np.inf)
    for cols in chunks(m.shape[1], x.size):
        m10, m01, m11, m21, m12 = m[:, cols, None]
        f = m11 - x
        np.minimum(f, m01, out=f)
        np.minimum(f, m21 - 2.0 * x, out=f)
        np.minimum(f, (m12 - x) / 2.0, out=f)
        f[m10 < x] = -np.inf
        np.maximum(out, f.max(axis=0), out=out)
    return out


class _UnionEvaluator:
    """Union frontier over three product blocks of parameters.

    The parameter set is the warped base grid on each axis plus the two cliff
    families of ``_cliffs`` (warped grids of CLIFF_LEVELS points each),
    taken as three product blocks: alpha grid x beta grid, alpha cliffs x
    beta grid and alpha grid x beta cliffs.  Every right-hand side
    depends on alpha alone or beta alone, so each reduced bound is
    min(a(alpha), b(beta)), and on a block A x B the frontier at abscissa x is

        min(max_{alpha in A} F_x(alpha), max_{beta in B} G_x(beta))

    with F_x from ``_side_frontier`` on the alpha side and G_x the same on
    the beta side.  This equals the per-cell maximization over A x B exactly
    in floating point: t - x, t - 2x and (t - x)/2 round monotonically in t,
    so min commutes with them, and the max of min(F, G) over a product is
    min(max F, max G).  The union frontier is the max over the blocks.

    With A and B the grid sides' maxima at x, the grid block gives
    min(A, B), the alpha-cliff block min(C, B) and the beta-cliff block
    min(A, D).  min(C, B) <= B, so it exceeds min(A, B) only where A < B;
    likewise min(A, D) only where B < A.  So ``frontier`` sweeps the alpha
    cliffs only at the abscissae where A < B, the beta cliffs only where
    B < A and neither where A == B, and folds each in with the same max:
    the value at every abscissa is the max over the same block values, so
    it is bit-equal to sweeping both families everywhere.
    """

    def __init__(self, ch: GaussianIC, grid_n: int):
        if grid_n < 2:
            raise InputError("grid_n must be at least 2")
        s11_sq, s12_sq, s21_sq, s22_sq, _ = _squares(ch)
        al_g = _param_grid(grid_n, (s12_sq + s22_sq) * ch.p2)
        be_g = _param_grid(grid_n, (s11_sq + s21_sq) * ch.p1)
        al_c, be_c = _cliffs(s11_sq * ch.p1, s12_sq * ch.p2, s21_sq * ch.p1)
        al = np.concatenate([al_g, al_c])
        be = np.concatenate([be_g, be_c])
        a, b = _side_bounds(ch, al, be)
        # the four axis sets: alpha grid, alpha cliffs, beta grid, beta cliffs
        self.sides = (a[:, :grid_n], a[:, grid_n:], b[:, :grid_n], b[:, grid_n:])
        # the product blocks as index pairs into sides; an empty cliff family
        # (no alpha cliffs when s12 = 0) contributes no block
        self.blocks = [(i, j) for i, j in ((0, 2), (1, 2), (0, 3))
                       if self.sides[i].size and self.sides[j].size]
        # a cell's R1 extent min(m10, m11, m21/2, m12) splits into sides
        # like the bounds, so the frontier at r1_cap is >= 0 by construction
        extent = [np.minimum.reduce([m[0], m[2], m[3] / 2.0, m[4]])
                  for m in self.sides]
        self.r1_cap = float(max(min(extent[i].max(), extent[j].max())
                                for i, j in self.blocks))

    def frontier(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        al_grid, al_cliffs, be_grid, be_cliffs = self.sides
        a, b = _side_frontier(al_grid, x), _side_frontier(be_grid, x)
        out = np.minimum(a, b)
        # each cliff family at its own binding abscissae (see the class
        # docstring); an empty family sweeps to -inf and changes nothing
        for cliffs, binds, other in ((al_cliffs, a < b, b), (be_cliffs, b < a, a)):
            out[binds] = np.maximum(out[binds], np.minimum(
                _side_frontier(cliffs, x[binds]), other[binds]))
        return out

    def max_sum(self) -> float:
        """Exact max of R1 + R2 over the union of cell polytopes.

        A cell's value ``_cell_max_sum(min(a, b))`` is nondecreasing in each
        reduced bound, in floating point too (min, sum, halving and thirds
        round monotonically), so ``_cell_max_sum`` of one parameter's side
        bounds alone is an upper bound on every cell that parameter is in.
        For each block, the parameter with the largest such bound on each
        side is swept first against the whole other side; the largest of
        those cell values is ``best``.  Only parameters whose bound exceeds
        ``best`` can be in a larger cell, so only their rows and columns are
        swept, in ``regions.chunks`` of rows.  The result is
        the max of a subset of the cell values that holds the maximiser:
        bit-equal to sweeping every cell.
        """
        bound = [_cell_max_sum(*m) for m in self.sides]
        best = -np.inf
        for i, j in self.blocks:
            for k, other in ((i, j), (j, i)):
                row = self.sides[k][:, [bound[k].argmax()]]
                best = max(best, float(np.max(_cell_max_sum(*np.minimum(
                    row, self.sides[other])))))
        for i, j in self.blocks:
            a = self.sides[i][:, bound[i] > best]
            b = self.sides[j][:, bound[j] > best]
            if not b.size:
                continue
            for rows in chunks(a.shape[1], b.shape[1]):
                best = max(best, float(np.max(_cell_max_sum(*np.minimum(
                    a[:, rows, None], b[:, None, :])))))
        return best


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
    """Union of the per-parameter polytopes over grid_n warped values per
    axis plus the two cliff families, in three product blocks, sampled on
    the CSV grid up to r1_cap (``regions.frontier_abscissae``)."""
    ev = _evaluator(ch, grid_n)
    grid = frontier_abscissae(ev.r1_cap)
    return RateRegion(grid, ev.frontier(grid), frontier_fn=ev.frontier)


def sum_rate_bound(ch: GaussianIC, grid_n: int = DEFAULT_GRID) -> float:
    """Largest R1 + R2 admitted by the union bound."""
    return max(_evaluator(ch, grid_n).max_sum(), 0.0)
