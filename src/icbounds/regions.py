"""Exact 2-D rate-region geometry.

A region here is always a down-closed subset of the nonnegative quadrant,
described by its upper frontier r2 = f(r1), non-increasing in r1.  Convex
polytopes get an exact vertex frontier (halfplane intersection); unions of
many polytopes are represented by a sampled frontier plus, when the producer
can supply one, an exact frontier evaluator used by comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, UnboundedRegionError

FRONTIER_SAMPLES = 512


@dataclass(frozen=True)
class RateConstraint:
    """One linear inequality c1*R1 + c2*R2 <= rhs, rates in bits/use."""

    c1: float
    c2: float
    rhs: float
    tag: str = ""

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0 or (self.c1 == 0 and self.c2 == 0):
            raise InputError(f"invalid coefficients ({self.c1}, {self.c2})")
        if not np.isfinite(self.rhs) or self.rhs < -1e-12:
            raise InputError(f"constraint {self.tag!r} has rhs {self.rhs}")


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
    tag: str = ""
    frontier_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        r1 = np.atleast_1d(np.asarray(self.r1, dtype=float))
        r2 = np.atleast_1d(np.asarray(self.r2, dtype=float))
        if r1.shape != r2.shape or r1.ndim != 1 or r1.size == 0:
            raise InputError("frontier arrays must be equal-length 1-D")
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

    @property
    def vertices(self) -> np.ndarray:
        """Simple CCW polygon: origin, bottom-right corner, frontier right to left."""
        pts = [(0.0, 0.0)]
        if self.r1_max > 0:
            pts.append((self.r1_max, 0.0))
        for x, y in zip(self.r1[::-1], self.r2[::-1]):
            p = (float(x), float(y))
            if p != pts[-1] and p != (0.0, 0.0):
                pts.append(p)
        return np.array(pts)

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

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        if x < -tol or y < -tol or x > self.r1_max + tol:
            return False
        return y <= float(self.frontier_at(min(x, self.r1_max))) + tol

    def max_sum(self) -> float:
        return float(np.max(self.r1 + self.r2))

    def is_point(self) -> bool:
        return self.r1_max <= 0 and self.r2_max <= 0


def point_region(tag: str = "") -> RateRegion:
    return RateRegion(np.array([0.0]), np.array([0.0]), tag=tag)


def from_constraints(
    constraints: Sequence[RateConstraint], tag: str = ""
) -> RateRegion:
    """Intersect halfplanes with the nonnegative quadrant.

    Every constraint has nonnegative coefficients, so the result is a convex
    down-closed polygon whose frontier is the lower envelope of the lines
    r2 = (rhs - c1*r1)/c2.  Requires at least one constraint bounding each
    axis (c1 > 0 somewhere and c2 > 0 somewhere).
    """
    cs = list(constraints)
    if not cs:
        raise UnboundedRegionError("empty constraint set")
    if not any(c.c1 > 0 for c in cs):
        raise UnboundedRegionError("R1 unbounded: no constraint with c1 > 0")
    if not any(c.c2 > 0 for c in cs):
        raise UnboundedRegionError("R2 unbounded: no constraint with c2 > 0")

    r1_max = max(min(c.rhs / c.c1 for c in cs if c.c1 > 0), 0.0)
    lines = [(c.c1, c.c2, max(c.rhs, 0.0)) for c in cs if c.c2 > 0]

    def envelope(x: np.ndarray) -> np.ndarray:
        return np.min([(rhs - a * x) / b for a, b, rhs in lines], axis=0)

    # Candidate breakpoints: domain ends, pairwise line crossings, zero
    # crossings.  The envelope is evaluated exactly at every candidate, so
    # interpolating through the surviving points reproduces it exactly.
    xs = {0.0, r1_max}
    for i, (a1, b1, rhs1) in enumerate(lines):
        if a1 > 0 and rhs1 / a1 < r1_max:
            xs.add(rhs1 / a1)
        for a2, b2, rhs2 in lines[i + 1 :]:
            den = a1 * b2 - a2 * b1
            if abs(den) > 1e-302:
                x = (rhs1 * b2 - rhs2 * b1) / den
                if 0.0 < x < r1_max:
                    xs.add(x)
    xs = np.array(sorted(xs))
    ys = envelope(xs)

    keep = ys >= -1e-12
    if not keep[0]:
        return point_region(tag)
    if not keep.all():
        k = int(np.argmin(keep))  # first sample below zero: cut at the root
        x0, x1 = xs[k - 1], xs[k]
        y0, y1 = ys[k - 1], ys[k]
        xr = x0 if y0 <= 0 else x0 + (x1 - x0) * y0 / (y0 - y1)
        xs = np.append(xs[:k], xr)
        ys = np.append(ys[:k], 0.0)
    ys = np.maximum(ys, 0.0)

    xs, ys = _dedupe_collinear(xs, ys)
    return RateRegion(xs, ys, tag=tag)


def _dedupe_collinear(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop repeated and collinear interior points for a canonical vertex list."""
    pts = [(float(xs[0]), float(ys[0]))]
    for x, y in zip(xs[1:], ys[1:]):
        if abs(x - pts[-1][0]) < 1e-12 and abs(y - pts[-1][1]) < 1e-12:
            continue
        pts.append((float(x), float(y)))
    if len(pts) <= 2:
        arr = np.array(pts).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]
    keep = [pts[0]]
    for k in range(1, len(pts) - 1):
        (x0, y0), (x1, y1), (x2, y2) = keep[-1], pts[k], pts[k + 1]
        cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        if abs(cross) > 1e-10 * max(1.0, abs(x2 - x0), abs(y2 - y0)):
            keep.append(pts[k])
    keep.append(pts[-1])
    arr = np.array(keep)
    return arr[:, 0], arr[:, 1]


def includes(a: RateRegion, b: RateRegion, tol: float = 1e-6) -> bool:
    """True when every frontier sample of b lies inside a, within tol."""
    if b.r1_max > a.r1_max + tol:
        return False
    xs = np.union1d(b.r1, np.linspace(0.0, b.r1_max, FRONTIER_SAMPLES))
    fb = b.frontier_at(xs)
    fa = a.frontier_at(np.minimum(xs, a.r1_max))
    return bool(np.all(fb <= fa + tol))


def gap(a: RateRegion, b: RateRegion) -> float:
    """Signed max frontier difference a - b on a shared r1 grid.

    Frontiers count as 0 beyond a region's extent, so the value is positive
    exactly when a pokes above (or beyond) b somewhere.
    """
    hi = max(a.r1_max, b.r1_max)
    grid = np.linspace(0.0, hi, FRONTIER_SAMPLES) if hi > 0 else np.array([0.0])
    return float(np.max(a.frontier_at(grid) - b.frontier_at(grid)))


def hull_of_points(points, tag: str = "") -> RateRegion:
    """Down-closed convex hull of arbitrary nonnegative rate pairs.

    Used for time-sharing closures: the hull frontier is the upper concave
    chain over the highest point at each abscissa.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.size == 0:
        return point_region(tag)
    pts = np.maximum(pts, 0.0)
    r2_max = float(pts[:, 1].max())
    best: dict[float, float] = {0.0: r2_max}
    for x, y in pts:
        x = float(x)
        if y > best.get(x, -1.0):
            best[x] = float(y)
    chain: list[tuple[float, float]] = []
    for p in sorted(best.items()):
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
            if cross >= -1e-15:  # middle point on/under the chord: drop it
                chain.pop()
            else:
                break
        chain.append(p)
    # A concave chain that starts at the global max height never rises.
    arr = np.array(chain)
    return RateRegion(arr[:, 0], np.minimum.accumulate(arr[:, 1]), tag=tag)


def convex_hull(region: RateRegion, tag: str = "") -> RateRegion:
    """Upper concave envelope of a region's frontier (time-sharing closure)."""
    pts = np.column_stack([region.r1, region.r2])
    if region.r1_max > 0:
        pts = np.vstack([pts, [region.r1_max, 0.0]])
    return hull_of_points(pts, tag=tag or region.tag)


def frontier_csv(region: RateRegion) -> str:
    """CSV text: header, then the frontier at FRONTIER_SAMPLES even abscissae
    over [0, r1_max] to 9 significant digits, interpolated from the region's
    own samples (``outer_region`` samples exactly this grid)."""
    n = FRONTIER_SAMPLES if region.r1_max > 0 else 1
    grid = np.linspace(0.0, region.r1_max, n)
    vals = np.maximum(np.interp(grid, region.r1, region.r2), 0.0)
    rows = [f"{x:.9g},{y:.9g}" for x, y in zip(grid, vals)]
    return "\n".join(["r1,r2"] + rows) + "\n"


def from_csv(text: str, tag: str = "") -> RateRegion:
    """Parse a frontier CSV produced by :func:`frontier_csv`."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != "r1,r2":
        raise InputError("frontier CSV must start with header 'r1,r2'")
    try:
        pairs = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    except ValueError as exc:
        raise InputError(f"bad CSV row: {exc}") from exc
    if not pairs:
        raise InputError("frontier CSV has no data rows")
    arr = np.array(pairs)
    return RateRegion(arr[:, 0], np.minimum.accumulate(arr[:, 1]), tag=tag)
