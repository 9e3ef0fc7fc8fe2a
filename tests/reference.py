"""Reference code that only the tests use.

These definitions check the library rather than serve a command: the
covariance oracle for Gaussian mutual informations, halfplane
intersection and region comparisons, the convex hull's point loop as
first written, the 16 outer-bound constraints at one parameter point,
and the per-distribution 11-constraint discrete kernel.  That kernel and
the pointwise search oracle in ``conftest.py`` take their informations
from ``mi``, which sums the positive cells of one labelled joint table's
marginals and shares no code with the library's kernel (which builds each
term from the channel matrices), so the two agree to rounding.  The outer
bound's 16 constraints come from ``rhs_reference``, a frozen copy of the
table as it was written before each information term was named; the
library's side tables (``outer_bound._side_bounds``) must equal its class
minima bit for bit.  ``simplex_grid_reference`` is the simplex lattice as
first written, one sorted symbol tuple per point.  ``run_trial_two_branch``
is the simulator's trial as first written: ``draw_codebook_rowwise`` draws
through ``Generator.choice`` and de-duplicates row by row, and receiver 2's
decoder is written once per scheme.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from icbounds.discrete import NORM_TOL, DiscreteIC
from icbounds.errors import InputError
from icbounds.gaussian import GaussianIC, psi
from icbounds.outer_bound import _squares
from icbounds.regions import RateRegion, frontier_abscissae, point_region
from icbounds.sim import (_DEDUP_PASSES, SimConfig, _pair_loglik, _Precomp,
                          _transmit, _trial_rng)


# ---------------------------------------------------------------------------
# errors


class DegenerateChannelError(InputError):
    """Channel gains make a required derived quantity undefined."""


class UnboundedRegionError(InputError):
    """Constraint set does not bound the rate region in some direction."""


class NumericalError(ArithmeticError):
    """Covariance degenerated beyond what ridge regularization can absorb."""


# ---------------------------------------------------------------------------
# covariance oracle (gaussian)
#
# gaussian_mi over a GaussianSystem takes any conditional mutual information
# of jointly Gaussian variables as differences of log-determinants with an
# absolute ridge, with zt1, zt2 two spare independent copies of the noises.
# It loses digits as the SNR grows.  Against a 60-digit reference on random
# cascade channels, the capacity evaluators' values through it were within
# 6e-15 bits at gains <= 3, 7e-10 bits at gains <= 1000 and 0.04 bits at
# gains <= 1e7.


RIDGE = 1e-12


PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GaussianSystem:
    """Labelled zero-mean jointly Gaussian variables with covariance cov."""

    labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InputError("duplicate labels in Gaussian system")
        if cov.shape != (n, n):
            raise InputError("covariance shape does not match labels")
        if not np.allclose(cov, cov.T, atol=1e-9, rtol=1e-9):
            raise InputError("covariance must be symmetric")
        scale = max(1.0, float(np.max(np.abs(np.diag(cov)))) if n else 1.0)
        if n and np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) < -PSD_TOL * scale:
            raise InputError("covariance is not positive semidefinite")
        object.__setattr__(self, "cov", (cov + cov.T) / 2)
        object.__setattr__(self, "labels", tuple(self.labels))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}") from None

    def extend(self, label: str, coeffs: Mapping[str, float]) -> "GaussianSystem":
        """Adjoin a new variable defined as a linear combination of existing ones."""
        vec = np.zeros(len(self.labels))
        for name, c in coeffs.items():
            vec[self.index(name)] = c
        with np.errstate(over="ignore", invalid="ignore"):
            col = self.cov @ vec
            var = float(vec @ col)
        if not (np.isfinite(col).all() and math.isfinite(var)):
            raise InputError(
                f"covariance of {label!r} overflows: the gains or powers are "
                "too large for floating point"
            )
        n = len(self.labels)
        new = np.zeros((n + 1, n + 1))
        new[:n, :n] = self.cov
        new[:n, n] = col
        new[n, :n] = col
        new[n, n] = var
        return GaussianSystem(self.labels + (label,), new)

    def extend_many(self, defs: Mapping[str, Mapping[str, float]]) -> "GaussianSystem":
        sys = self
        for label, coeffs in defs.items():
            sys = sys.extend(label, coeffs)
        return sys

    def subcov(self, labels: Iterable[str]) -> np.ndarray:
        idx = [self.index(l) for l in labels]
        return self.cov[np.ix_(idx, idx)]


def independent_system(labels: Iterable[str], variances: Iterable[float]) -> GaussianSystem:
    labels = tuple(labels)
    return GaussianSystem(labels, np.diag(np.asarray(list(variances), dtype=float)))


def build_system(ch: GaussianIC) -> GaussianSystem:
    """x1, x2 at full power, four unit noises, and the two channel outputs."""
    base = independent_system(
        ("x1", "x2", "z1", "z2", "zt1", "zt2"),
        (ch.p1, ch.p2, 1.0, 1.0, 1.0, 1.0),
    )
    return base.extend_many({
        "y1": {"x1": ch.s11, "x2": ch.s12, "z1": 1.0},
        "y2": {"x1": ch.s21, "x2": ch.s22, "z2": 1.0},
    })


def cascade_system(ch) -> GaussianSystem:
    """x1, x2 at full power, two unit noises and the outputs of a
    ``CorrelatedGaussianIC``, each output adjoined as its kind's equation
    reads: gaussian-6's y2 hears y1, gaussian-13's y1 hears y2."""
    base = independent_system(("x1", "x2", "z1", "z2"), (ch.p1, ch.p2, 1.0, 1.0))
    if ch.kind == "gaussian-6":
        return base.extend_many({
            "y1": {"x1": ch.s11, "x2": ch.s12, "z1": 1.0},
            "y2": {"x1": ch.s21, "y1": ch.s22, "z2": 1.0},
        })
    return base.extend_many({
        "y2": {"x1": ch.s21, "x2": ch.s22, "z2": 1.0},
        "y1": {"x1": ch.s11, "y2": ch.s12, "z1": 1.0},
    })


def cascade_form(ch) -> tuple[np.ndarray, np.ndarray]:
    """The correlated-noise form y = H x + n of a ``CorrelatedGaussianIC``:
    (H, the covariance of n), written out from the cascade's equations."""
    s11, s12, s21, s22 = ch.s11, ch.s12, ch.s21, ch.s22
    if ch.kind == "gaussian-6":
        return (np.array([[s11, s12], [s21 + s22 * s11, s22 * s12]]),
                np.array([[1.0, s22], [s22, s22 * s22 + 1.0]]))
    return (np.array([[s11 + s12 * s21, s12 * s22], [s21, s22]]),
            np.array([[s12 * s12 + 1.0, s12], [s12, 1.0]]))


def _logdet(mat: np.ndarray, what: str) -> float:
    if mat.size == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(mat)
    if sign > 0:
        return float(logdet)
    # exactly-degenerate combinations (e.g. outputs plus their own rotations)
    # get a diagonal ridge; anything still singular is a real error
    sign, logdet = np.linalg.slogdet(mat + RIDGE * np.eye(mat.shape[0]))
    if sign <= 0:
        raise NumericalError(
            f"covariance block for {what} is singular beyond ridge "
            f"regularization (sign={sign})"
        )
    return float(logdet)


def gaussian_mi(
    sys: GaussianSystem,
    targets: Iterable[str],
    observed: Iterable[str],
    conditioning: Iterable[str] = (),
) -> float:
    """I(targets; observed | conditioning) in bits.

    Evaluated as 0.5*log2( det(S_AC) det(S_BC) / (det(S_C) det(S_ABC)) ),
    with a tiny ridge on each determinant so exactly-degenerate linear
    combinations stay evaluable.
    """
    a = tuple(targets)
    b = tuple(observed)
    c = tuple(conditioning)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise InputError("target, observed and conditioning sets must be disjoint")
    if not a or not b:
        return 0.0
    l_ac = _logdet(sys.subcov(a + c), "targets+conditioning")
    l_bc = _logdet(sys.subcov(b + c), "observed+conditioning")
    l_c = _logdet(sys.subcov(c), "conditioning")
    l_abc = _logdet(sys.subcov(a + b + c), "all")
    val = 0.5 * (l_ac + l_bc - l_c - l_abc) / math.log(2.0)
    return max(val, 0.0) if val > -1e-6 else _raise_negative(val)


def _raise_negative(val: float) -> float:
    raise NumericalError(f"mutual information evaluated to {val}, "
                         "covariance too ill-conditioned")


@dataclass(frozen=True)
class DerivedSignals:
    """Linear-combination coefficients for the transformed outputs and genies.

    Over the base labels of :func:`build_system`:

    * yh1, yh2: rotated outputs that isolate one input each,
    * zh1, zh2: their noises,
    * zb1, zb2: residual noises of y1 given yh2 and of y2 given yh1,
    * g1, g2: genie signals reusing the channel noises,
    * gt1, gt2: genie signals with the independent spare noises.

    The transform is consistent only if zb1 is uncorrelated with zh2 and
    zb2 with zh1; both hold identically in the gains.
    """

    coeffs: dict[str, dict[str, float]]

    def extend(self, sys: GaussianSystem) -> GaussianSystem:
        return sys.extend_many(self.coeffs)


def derived_signals(ch: GaussianIC) -> DerivedSignals:
    den1 = ch.s12**2 + ch.s22**2  # combining weight for (y1, y2) -> yh1
    den2 = ch.s11**2 + ch.s21**2  # combining weight for (y1, y2) -> yh2
    if den1 <= 0 or den2 <= 0:
        raise DegenerateChannelError(
            "derived signals need s12^2+s22^2 > 0 and s11^2+s21^2 > 0"
        )
    s11, s12, s21, s22 = ch.s11, ch.s12, ch.s21, ch.s22
    coeffs = {
        "yh1": {"x1": (s11 * s12 + s21 * s22) / den1, "x2": 1.0,
                "z1": s12 / den1, "z2": s22 / den1},
        "yh2": {"x1": 1.0, "x2": (s11 * s12 + s21 * s22) / den2,
                "z1": s11 / den2, "z2": s21 / den2},
        "zh1": {"z1": s12 / den1, "z2": s22 / den1},
        "zh2": {"z1": s11 / den2, "z2": s21 / den2},
        "zb1": {"z1": s21 * s21 / den2, "z2": -s21 * s11 / den2},
        "zb2": {"z1": -s12 * s22 / den1, "z2": s12 * s12 / den1},
        "g1": {"x1": s21, "z2": 1.0},
        "g2": {"x2": s12, "z1": 1.0},
        "gt1": {"x1": s21, "zt2": 1.0},
        "gt2": {"x2": s12, "zt1": 1.0},
    }
    sig = DerivedSignals(coeffs)
    _check_orthogonality(ch, sig)
    return sig


def _check_orthogonality(ch: GaussianIC, sig: DerivedSignals) -> None:
    sys = sig.extend(build_system(ch))
    for bar, hat in (("zb1", "zh2"), ("zb2", "zh1")):
        cov = sys.cov[sys.index(bar), sys.index(hat)]
        if abs(cov) > 1e-12:
            raise NumericalError(f"cov({bar}, {hat}) = {cov}, transform inconsistent")


def full_system(ch: GaussianIC) -> GaussianSystem:
    """Channel system extended with every derived signal."""
    return derived_signals(ch).extend(build_system(ch))


# ---------------------------------------------------------------------------
# halfplane geometry and comparisons (regions)


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


def from_constraints(constraints: Sequence[RateConstraint]) -> RateRegion:
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
        return point_region()
    if not keep.all():
        k = int(np.argmin(keep))  # first sample below zero: cut at the root
        x0, x1 = xs[k - 1], xs[k]
        y0, y1 = ys[k - 1], ys[k]
        xr = x0 if y0 <= 0 else x0 + (x1 - x0) * y0 / (y0 - y1)
        xs = np.append(xs[:k], xr)
        ys = np.append(ys[:k], 0.0)
    ys = np.maximum(ys, 0.0)

    xs, ys = _dedupe_collinear(xs, ys)
    return RateRegion(xs, ys)


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


def hull_of_points_loop(points) -> RateRegion:
    """``regions.hull_of_points`` as first written: every point goes through
    a dict of the highest point per abscissa, then the same chain loop, with
    the chord tolerance scaled as the library scales it."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.size == 0:
        return point_region()
    pts = np.maximum(pts, 0.0)
    r2_max = float(pts[:, 1].max())
    tol = 1e-15 * min(1.0, float(pts[:, 0].max()) * r2_max)
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
            if cross >= -tol:  # middle point on/under the chord: drop it
                chain.pop()
            else:
                break
        chain.append(p)
    # A concave chain that starts at the global max height never rises.
    arr = np.array(chain)
    return RateRegion(arr[:, 0], np.minimum.accumulate(arr[:, 1]))


def includes(a: RateRegion, b: RateRegion, tol: float = 1e-6,
             htol: float = 0.0) -> bool:
    """True when every frontier sample of b lies inside a, within tol in R2
    once moved htol left in R1 (so two vertical drops htol apart match)."""
    if b.r1_max - htol > a.r1_max + tol:
        return False
    xs = np.union1d(b.r1, frontier_abscissae(b.r1_max))
    fb = b.frontier_at(xs)
    fa = a.frontier_at(np.minimum(np.maximum(xs - htol, 0.0), a.r1_max))
    return bool(np.all(fb <= fa + tol))


def gap(a: RateRegion, b: RateRegion, htol: float = 0.0) -> float:
    """Signed max frontier difference a - b on a shared r1 grid, each
    sample of a against b htol to its left.

    Frontiers count as 0 beyond a region's extent, so the value is positive
    exactly when a pokes above (or beyond) b somewhere.
    """
    grid = frontier_abscissae(max(a.r1_max, b.r1_max))
    return float(np.max(a.frontier_at(grid)
                        - b.frontier_at(np.maximum(grid - htol, 0.0))))


def vertices(region: RateRegion) -> np.ndarray:
    """Simple CCW polygon: origin, bottom-right corner, frontier right to left."""
    pts = [(0.0, 0.0)]
    if region.r1_max > 0:
        pts.append((region.r1_max, 0.0))
    for x, y in zip(region.r1[::-1], region.r2[::-1]):
        p = (float(x), float(y))
        if p != pts[-1] and p != (0.0, 0.0):
            pts.append(p)
    return np.array(pts)


def contains(region: RateRegion, x: float, y: float, tol: float = 1e-9) -> bool:
    if x < -tol or y < -tol or x > region.r1_max + tol:
        return False
    return y <= float(region.frontier_at(min(x, region.r1_max))) + tol


def is_point(region: RateRegion) -> bool:
    return region.r1_max <= 0 and region.r2_max <= 0


# ---------------------------------------------------------------------------
# outer-bound constraints at one parameter point


# (c1, c2) coefficient pattern of each of the 16 constraints, in order.
COEFFS: tuple[tuple[float, float], ...] = (
    (1, 0), (1, 0), (0, 1), (0, 1),
    (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1),
    (2, 1), (1, 2), (2, 1), (1, 2), (2, 1), (1, 2),
)

# The (c1, c2) classes in the order of the library's side-table rows:
# m10, m01, m11, m21, m12.
CLASSES: tuple[tuple[float, float], ...] = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


@dataclass(frozen=True)
class BoundParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise InputError("alpha and beta must lie in [0, 1]")


def constraints_at(ch: GaussianIC, params: BoundParams) -> list[RateConstraint]:
    """The 16 rate constraints at one parameter point, in canonical order."""
    rhs = rhs_reference(ch, params.alpha, params.beta)
    return [RateConstraint(c1, c2, float(r), tag=f"c{i + 1:02d}")
            for i, ((c1, c2), r) in enumerate(zip(COEFFS, rhs))]


def region_at(ch: GaussianIC, params: BoundParams) -> RateRegion:
    """Exact convex polytope cut out by the 16 constraints at (alpha, beta)."""
    return from_constraints(constraints_at(ch, params))


def rhs_reference(ch: GaussianIC, alpha, beta):
    """Right-hand sides of the 16 constraints, broadcast over alpha/beta, as
    the library's table was written before each information term was named:
    43 psi expressions added in the same left-to-right order.  Every entry
    carries the shape of the one parameter it depends on (a constant one
    that of alpha).
    """
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    a, b, c, d, det2 = _squares(ch)
    p1, p2 = ch.p1, ch.p2
    d12, d21 = ch.d12, ch.d21
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


def reference_sides(ch: GaussianIC, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """The class minima of ``rhs_reference`` on each side, as two (5, n)
    tables with rows m10, m01, m11, m21, m12 (+inf where a side has no
    constraint of the class).

    ``rhs_reference`` runs on a column of alphas and a row of betas, and
    each entry goes to the side whose shape it has, so not both of alpha
    and beta may be of length 1.
    """
    al = np.asarray(alpha, dtype=float).reshape(-1, 1)
    be = np.asarray(beta, dtype=float).reshape(1, -1)
    if al.size == be.size == 1:
        raise ValueError("a side is told by its shape: give two alphas or two betas")
    parts = ([[] for _ in CLASSES], [[] for _ in CLASSES])
    for i, (r, coeffs) in enumerate(zip(rhs_reference(ch, al, be), COEFFS)):
        side = [np.shape(r) == p.shape for p in (al, be)].index(True)
        parts[side][CLASSES.index(coeffs)].append(np.ravel(r))
    return tuple(
        np.array([np.minimum.reduce(p) if p else np.full(n, np.inf) for p in cls])
        for cls, n in zip(parts, (al.size, be.size))
    )


# ---------------------------------------------------------------------------
# per-distribution discrete kernel


def simplex_grid_reference(dim: int, resolution: int) -> np.ndarray:
    """Uniform lattice on the probability simplex with the given resolution,
    one ``resolution - 1``-long symbol tuple per point: (points, steps, dim)
    memory, so keep the resolution small."""
    if resolution < 2:
        raise InputError("simplex resolution must be at least 2")
    steps = resolution - 1
    comps = np.array(list(itertools.combinations_with_replacement(range(dim), steps)))
    return (comps[:, :, None] == np.arange(dim)).sum(axis=1) / steps


def mi(
    table: np.ndarray,
    axes: Sequence[str],
    a: Iterable[str],
    b: Iterable[str],
    cond: Iterable[str] = (),
) -> float:
    """I(a; b | cond) in bits from a joint PMF with labelled axes, clamped
    at 0.  Each entropy sums the positive cells of its marginal table only,
    in table order."""
    table = np.asarray(table, dtype=float)
    if table.ndim != len(axes):
        raise InputError("axis labels do not match table dimensions")
    if abs(float(table.sum()) - 1.0) > 1e-9 or np.any(table < -NORM_TOL):
        raise InputError("joint table must be a normalized PMF")
    a, b, c = tuple(a), tuple(b), tuple(cond)
    sa, sb, sc = set(a), set(b), set(c)
    if (sa & sb) or (sa & sc) or (sb & sc):
        raise InputError("variable groups must be disjoint")
    for name in sa | sb | sc:
        if name not in axes:
            raise InputError(f"unknown axis {name!r}")

    def h(names):
        drop = tuple(i for i, n in enumerate(axes) if n not in names)
        q = (table.sum(axis=drop) if drop else table).reshape(-1)
        q = q[q > 0]
        return float(-(q * np.log2(q)).sum())

    val = h(sa | sc) + h(sb | sc) - h(sa | sb | sc) - (h(sc) if c else 0.0)
    return max(val, 0.0)


@dataclass(frozen=True, eq=False)
class AuxJointDist:
    """Input and auxiliary factorization p(q) p(x1|q) p(x2|q) p(u,v|x1,x2,q)."""

    p_q: np.ndarray
    p_x1_q: np.ndarray
    p_x2_q: np.ndarray
    p_uv_x1x2q: np.ndarray

    def __post_init__(self):
        pq = np.asarray(self.p_q, dtype=float)
        p1 = np.asarray(self.p_x1_q, dtype=float)
        p2 = np.asarray(self.p_x2_q, dtype=float)
        puv = np.asarray(self.p_uv_x1x2q, dtype=float)
        nq = pq.shape[0]
        if pq.ndim != 1 or p1.ndim != 2 or p2.ndim != 2 or puv.ndim != 5:
            raise InputError("factor tables have wrong ranks")
        if p1.shape[0] != nq or p2.shape[0] != nq or puv.shape[0] != nq:
            raise InputError("factor tables disagree on |Q|")
        if puv.shape[1] != p1.shape[1] or puv.shape[2] != p2.shape[1]:
            raise InputError("auxiliary table disagrees on input alphabets")
        for t, ax in ((pq, None), (p1, 1), (p2, 1), (puv, (3, 4))):
            if np.any(t < -NORM_TOL):
                raise InputError("probabilities must be nonnegative")
            s = t.sum() if ax is None else t.sum(axis=ax)
            if np.max(np.abs(s - 1.0)) > NORM_TOL:
                raise InputError("conditional tables must be row-normalized")

    @classmethod
    def uniform(cls, nx1: int, nx2: int) -> "AuxJointDist":
        """Degenerate Q, U, V with independent uniform inputs."""
        return cls(np.array([1.0]), np.full((1, nx1), 1 / nx1),
                   np.full((1, nx2), 1 / nx2), np.ones((1, nx1, nx2, 1, 1)))


AXES7 = ("q", "u", "v", "x1", "x2", "y1", "y2")


def joint_with_aux(ch: DiscreteIC, dist: AuxJointDist) -> np.ndarray:
    """Joint PMF over (q, u, v, x1, x2, y1, y2)."""
    if dist.p_x1_q.shape[1] != ch.nx1 or dist.p_x2_q.shape[1] != ch.nx2:
        raise InputError("distribution alphabets do not match the channel")
    return np.einsum(
        "q,qa,qb,qabuv,cdab->quvabcd",
        dist.p_q, dist.p_x1_q, dist.p_x2_q, dist.p_uv_x1x2q, ch.w,
        optimize=True,
    )


def outer_constraints(ch: DiscreteIC, dist: AuxJointDist) -> list[RateConstraint]:
    """The 11 outer-bound constraints evaluated at one auxiliary distribution,
    with the channel's conference budgets d12 and d21.

    The bound proper is a union over all admissible distributions; this is
    the per-distribution kernel.
    """
    d12, d21 = ch.d12, ch.d21
    j = joint_with_aux(ch, dist)

    def f(a, b, c=()):
        return mi(j, AXES7, a, b, c)

    rows = [
        (1, 0, min(f(("u", "x1"), ("y1",), ("q",)) + d21,
                   f(("x1",), ("y1",), ("x2", "q")) + d21)),
        (1, 0, f(("x1",), ("y1",), ("y2", "x2", "v", "q"))
         + f(("x1",), ("y2",), ("x2", "q"))),
        (1, 0, f(("x1",), ("y2",), ("y1", "x2", "v", "q"))
         + f(("x1",), ("y1",), ("x2", "q"))),
        (0, 1, min(f(("v", "x2"), ("y2",), ("q",)) + d12,
                   f(("x2",), ("y2",), ("x1", "q")) + d12)),
        (0, 1, f(("x2",), ("y2",), ("y1", "x1", "u", "q"))
         + f(("x2",), ("y1",), ("x1", "q"))),
        (0, 1, f(("x2",), ("y1",), ("y2", "x1", "u", "q"))
         + f(("x2",), ("y2",), ("x1", "q"))),
        (1, 1, f(("x1",), ("y1",), ("v", "x2", "q"))
         + f(("v", "x2"), ("y2",), ("q",)) + d12 + d21),
        (1, 1, f(("x2",), ("y2",), ("u", "x1", "q"))
         + f(("u", "x1"), ("y1",), ("q",)) + d12 + d21),
        (1, 1, f(("x1",), ("y1",), ("y2", "x2", "v", "q"))
         + f(("x1", "x2"), ("y2",), ("q",)) + d12),
        (1, 1, f(("x2",), ("y2",), ("y1", "x1", "u", "q"))
         + f(("x1", "x2"), ("y1",), ("q",)) + d21),
        (1, 1, f(("x1", "x2"), ("y1", "y2"), ("q",))),
    ]
    return [RateConstraint(c1, c2, rhs, tag=f"g{i + 1:02d}")
            for i, (c1, c2, rhs) in enumerate(rows)]


def to_json_dict(ch: DiscreteIC) -> dict:
    return {
        "type": "discrete",
        "ny1": ch.ny1, "ny2": ch.ny2,
        "nx1": ch.nx1, "nx2": ch.nx2,
        "w": [float(v) for v in ch.w.reshape(-1)],
        "d12": ch.d12, "d21": ch.d21,
    }


# ---------------------------------------------------------------------------
# simulator trial (sim)


def draw_codebook_rowwise(rng, count, n, pmf) -> np.ndarray:
    """i.i.d. codebook drawn by ``rng.choice(p=pmf)``; duplicates found by
    ``np.unique(axis=0)`` and ``np.setdiff1d`` and redrawn while
    count <= space / 2."""
    cb = rng.choice(pmf.size, size=(count, n), p=pmf)
    space = float(pmf[pmf > 0].size) ** n
    if count <= space / 2:
        for _ in range(_DEDUP_PASSES):
            _, first = np.unique(cb, axis=0, return_index=True)
            dup = np.setdiff1d(np.arange(count), first, assume_unique=False)
            if dup.size == 0:
                break
            cb[dup] = rng.choice(pmf.size, size=(dup.size, n), p=pmf)
    return cb


def run_trial_two_branch(cfg: SimConfig, pre: _Precomp,
                         trial: int) -> tuple[bool, bool]:
    """``sim._run_trial`` as first written: codebooks drawn through
    ``Generator.choice`` and de-duplicated row by row, and the cell lookup
    and receiver 2's joint ML decoder written out once per scheme."""
    rng = _trial_rng(cfg.seed, trial)
    cb1 = draw_codebook_rowwise(rng, pre.m1, cfg.n, cfg.p1)
    cb2 = draw_codebook_rowwise(rng, pre.m2, cfg.n, cfg.p2)
    m1 = int(rng.integers(pre.m1))
    m2 = int(rng.integers(pre.m2))
    y1, y2 = _transmit(rng, pre, cb1[m1], cb2[m2])
    part = pre.part

    if cfg.scheme == "thm2":
        # receiver 1: joint ML over both codebooks
        ll = _pair_loglik(pre.log_w1, y1, cb1, cb2)
        flat = int(np.argmax(ll))
        m1_hat, m2_hat_rx1 = divmod(flat, pre.m2)
        cell = part.cell_of(m2_hat_rx1)
        # receiver 2: ML over message 1 and the announced cell of message 2
        members = part.cell_members(cell)
        ll2 = _pair_loglik(pre.log_w2, y2, cb1, cb2[members])
        flat2 = int(np.argmax(ll2))
        m2_hat = int(members[flat2 % members.size])
        return m1_hat != m1, m2_hat != m2

    # scheme thm4: receiver 1 decodes its own message, interference as noise
    ll1 = pre.log_w1_tin[y1[None, :], cb1].sum(axis=1)
    m1_hat = int(np.argmax(ll1))
    cell = part.cell_of(m1_hat)
    members = part.cell_members(cell)
    ll2 = _pair_loglik(pre.log_w2, y2, cb1[members], cb2)
    flat2 = int(np.argmax(ll2))
    m2_hat = flat2 % pre.m2
    return m1_hat != m1, m2_hat != m2
