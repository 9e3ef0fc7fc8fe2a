"""Exact 2-D rate-region geometry.

A region here is always a down-closed subset of the nonnegative quadrant,
described by its upper frontier r2 = f(r1), non-increasing in r1.  Pentagons
get their exact frontier vertices (:func:`pentagon_vertices`); unions of
many polytopes are represented by a sampled frontier plus, when the producer
can supply one, an exact frontier evaluator used by comparisons.  Halfplane
intersection and the region comparisons the tests use live in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError

FRONTIER_SAMPLES = 512
# Cells per chunk of every cell table the bounds sweep (see ``chunks``), so
# memory does not grow with a table and temporaries stay near cache size.
SWEEP_CELLS = 1 << 16


def chunks(n: int, cells_each: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at most
    max(1, SWEEP_CELLS // cells_each) items of ``cells_each`` cells."""
    step = max(1, SWEEP_CELLS // max(cells_each, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


@dataclass(frozen=True, eq=False)
class RateRegion:
    """Down-closed rate region given by frontier samples (r1 ascending).

    ``r2`` is the largest achievable R2 at each ``r1``; the polygon is the
    down-closure of these points.  ``frontier_fn``, when set, evaluates the
    frontier exactly at arbitrary abscissae and takes precedence over linear
    interpolation of the samples.
    """

    r1: np.ndarray
    r2: np.ndarray
    frontier_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        r1 = np.atleast_1d(np.asarray(self.r1, dtype=float))
        r2 = np.atleast_1d(np.asarray(self.r2, dtype=float))
        if r1.shape != r2.shape or r1.ndim != 1 or r1.size == 0:
            raise InputError("frontier arrays must be equal-length 1-D")
        if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
            raise InputError("frontier values must be finite")
        if r1[0] < -1e-12 or np.any(np.diff(r1) < -1e-12):
            raise InputError("frontier r1 must be ascending and nonnegative")
        if np.any(r2 < -1e-9) or np.any(np.diff(r2) > 1e-9):
            raise InputError("frontier r2 must be non-increasing and nonnegative")
        object.__setattr__(self, "r1", np.maximum(r1, 0.0))
        object.__setattr__(self, "r2", np.maximum(r2, 0.0))

    @property
    def r1_max(self) -> float:
        return float(self.r1[-1])

    @property
    def r2_max(self) -> float:
        return float(self.r2[0])

    def frontier_at(self, x) -> np.ndarray:
        """Frontier value at abscissae x; 0 beyond the region's extent."""
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x)
        if self.frontier_fn is not None:
            val = np.asarray(self.frontier_fn(flat), dtype=float)
        else:
            val = np.interp(flat, self.r1, self.r2)
        val = np.where(flat > self.r1_max + 1e-15, 0.0, val)
        return np.maximum(val, 0.0).reshape(x.shape)

    def max_sum(self) -> float:
        return float(np.max(self.r1 + self.r2))


def point_region() -> RateRegion:
    return RateRegion(np.array([0.0]), np.array([0.0]))


def pentagon_vertices(r1, r2, s) -> np.ndarray:
    """Frontier vertices of each pentagon R1 <= r1, R2 <= r2, R1 + R2 <= s
    (1-D arrays, or scalars for one pentagon): (0, min(r2, s)), the corner
    (s - r2, r2) when the sum bound cuts the R2 edge, and (min(r1, s), .),
    dropping only a point equal to the one before it, however small the
    rates.  A corner on or near the line through the ends stays: an inner
    region's convex hull decides collinearity, and in one pentagon such a
    corner lies on the frontier anyway.  Rows: origins, then corners, then
    ends."""
    r1, r2, s = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r1, r2, s))
    for name, v in (("r1", r1), ("r2", r2), ("sum", s)):
        bad = ~np.isfinite(v) | (v < -1e-12)
        if bad.any():
            raise InputError(f"constraint {name!r} has rhs {v[bad][0]}")
    x_end = np.maximum(np.minimum(r1, s), 0.0)
    r2, s = np.maximum(r2, 0.0), np.maximum(s, 0.0)
    y0 = np.minimum(r2, s)
    xa = s - r2
    ya = np.minimum(r2, s - xa)
    y_end = np.minimum(r2, s - x_end)
    x0 = np.zeros_like(y0)
    # each kept point lies strictly right of the one before it
    keep_a = (0.0 < xa) & (xa < x_end)
    keep_end = x_end != 0.0
    pts = [np.column_stack([x0, y0]),
           np.column_stack([xa, ya])[keep_a],
           np.column_stack([x_end, y_end])[keep_end]]
    return np.maximum(np.concatenate(pts), 0.0)


def hull_of_points(points) -> RateRegion:
    """Down-closed convex hull of arbitrary nonnegative rate pairs.

    Used for time-sharing closures: the hull frontier is the upper concave
    chain over the highest point at each abscissa.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.size == 0:
        return point_region()
    # Only the Pareto staircase can reach the chain: each point at x > 0
    # higher than all points right of it (x, then y, descending).
    pts = np.maximum(pts, 0.0)
    x, y = pts[np.lexsort((-pts[:, 1], -pts[:, 0]))].T
    top = np.maximum.accumulate(y)
    # The chord test's slack is 1e-15 times the extents' product when that
    # is below 1 bit^2, so a region shrunk by a power of two keeps the same
    # vertices.
    tol = 1e-15 * min(1.0, float(x[0]) * float(top[-1]))
    stair = (x > 0) & (y > np.concatenate([[-1.0], top[:-1]]))
    best = [(0.0, float(top[-1]))] + list(zip(x[stair][::-1].tolist(),
                                              y[stair][::-1].tolist()))
    chain: list[tuple[float, float]] = []
    for p in best:
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
            if cross >= -tol:  # middle point on/under the chord: drop it
                chain.pop()
            else:
                break
        chain.append(p)
    # A concave chain that starts at the global max height never rises.
    arr = np.array(chain)
    return RateRegion(arr[:, 0], np.minimum.accumulate(arr[:, 1]))


def convex_hull(region: RateRegion) -> RateRegion:
    """Upper concave envelope of a region's frontier (time-sharing closure)."""
    pts = np.column_stack([region.r1, region.r2])
    if region.r1_max > 0:
        pts = np.vstack([pts, [region.r1_max, 0.0]])
    return hull_of_points(pts)


def frontier_abscissae(r1_max: float) -> np.ndarray:
    """The CSV grid: FRONTIER_SAMPLES even abscissae over [0, r1_max], or
    the one abscissa 0 when r1_max is 0."""
    return np.linspace(0.0, r1_max, FRONTIER_SAMPLES if r1_max > 0 else 1)


def frontier_csv(region: RateRegion) -> str:
    """CSV text: header, then the frontier on ``frontier_abscissae`` to 9
    significant digits, interpolated from the region's own samples
    (``outer_region`` samples exactly this grid)."""
    grid = frontier_abscissae(region.r1_max)
    vals = np.maximum(np.interp(grid, region.r1, region.r2), 0.0)
    rows = map("%.9g,%.9g".__mod__, zip(grid.tolist(), vals.tolist()))
    return "\n".join(["r1,r2", *rows]) + "\n"


def from_csv(text: str) -> RateRegion:
    """Parse a frontier CSV, such as :func:`frontier_csv` writes: a header
    'r1,r2', then rows of exactly two finite numbers, r1 ascending.  The
    region is the down-closure of the rows' points, so each r2 is raised
    to the largest r2 at or right of its r1; a non-increasing column reads
    as written."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != "r1,r2":
        raise InputError("frontier CSV must start with header 'r1,r2'")
    pairs = []
    for ln in lines[1:]:
        try:
            r1, r2 = ln.split(",")
            pairs.append((float(r1), float(r2)))
        except ValueError:  # too few or too many values, or not a number
            raise InputError(f"bad CSV row {ln!r}: need two numbers") from None
    if not pairs:
        raise InputError("frontier CSV has no data rows")
    arr = np.array(pairs)
    return RateRegion(arr[:, 0], np.maximum.accumulate(arr[::-1, 1])[::-1])
