"""Regime classification and capacity evaluators for the special channels.

Two cascade channels with one-directional conferencing (the receiver of the
conference link is receiver 2, budget d12) admit exact capacity statements:

* kind "gaussian-6":  y2 = s21*x1 + s22*y1 + z2  (receiver 2 hears y1),
* kind "gaussian-13": y1 = s11*x1 + s12*y2 + z1  (receiver 1 hears y2),

plus the one-sided channel (s12 = 0).  Each evaluator computes its region or
sum rate with independent full-power Gaussian inputs.  Every mutual
information it needs involves one output alone, so each is psi of a ratio of
received powers and noise variances.  :func:`classify` is the one place that
computes a regime threshold; every evaluator's regime gate asks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChannelShapeError,
    InputError,
    RegimeViolationError,
    UndefinedThresholdError,
)
from .gaussian import GaussianIC, psi
from .regions import RateConstraint, RateRegion, from_constraints

REGIME_TOL = 1e-9


@dataclass(frozen=True)
class CorrelatedGaussianIC:
    """Effective two-user Gaussian channel with correlated noises.

    y = H x + n with x independent zero-mean (powers p1, p2) and n zero-mean
    with covariance noise_cov.  Cascade substitution produces these; kind and
    gains keep the originating parameterization for regime checks.
    """

    gain: np.ndarray
    noise_cov: np.ndarray
    p1: float
    p2: float
    d12: float = 0.0
    d21: float = 0.0
    kind: str | None = None
    gains: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        h = np.asarray(self.gain, dtype=float)
        n = np.asarray(self.noise_cov, dtype=float)
        if h.shape != (2, 2) or n.shape != (2, 2):
            raise InputError("gain and noise_cov must be 2x2")
        if not (np.isfinite(h).all() and np.isfinite(n).all()):
            raise InputError("matrix entries must be finite")
        if not np.allclose(n, n.T, atol=1e-12):
            raise InputError("noise covariance must be symmetric")
        if np.min(np.linalg.eigvalsh((n + n.T) / 2)) < -1e-10:
            raise InputError("noise covariance must be PSD")
        if self.p1 < 0 or self.p2 < 0 or self.d12 < 0 or self.d21 < 0:
            raise InputError("powers and conference capacities must be nonnegative")
        object.__setattr__(self, "gain", h)
        object.__setattr__(self, "noise_cov", (n + n.T) / 2)


@dataclass(frozen=True)
class RegimeReport:
    """Which corollary-style condition holds, with the signed slack."""

    label: str
    threshold: float
    margin: float
    boundary: bool = field(default=False)


def effective_form(
    kind: str,
    s11: float,
    s12: float,
    s21: float,
    s22: float,
    p1: float,
    p2: float,
    d12: float,
) -> CorrelatedGaussianIC:
    """Substitute the cascade output to get the explicit correlated-noise form."""
    if kind == "gaussian-6":
        h = np.array([[s11, s12],
                      [s21 + s22 * s11, s22 * s12]])
        n = np.array([[1.0, s22],
                      [s22, s22**2 + 1.0]])
    elif kind == "gaussian-13":
        h = np.array([[s11 + s12 * s21, s12 * s22],
                      [s21, s22]])
        n = np.array([[s12**2 + 1.0, s12],
                      [s12, 1.0]])
    else:
        raise ChannelShapeError(f"unknown cascade kind {kind!r}")
    return CorrelatedGaussianIC(h, n, p1, p2, d12=d12,
                                kind=kind, gains=(s11, s12, s21, s22))


def classify(kind: str, s11: float, s12: float, s21: float, s22: float) -> RegimeReport:
    """Evaluate the regime condition for the given channel kind.

    gaussian-6 channels split along (s11^2 - s21^2)/(2 s11 s21) vs s22
    (below or equal: strong regime, above or equal: mixed); gaussian-13
    channels check (s21^2 - s11^2)/(2 s11 s21) >= s12; one-sided channels
    (kind "one-sided", s12 = 0) check s21 >= s11.
    """
    if kind in ("gaussian-6", "gaussian-13"):
        if s11 == 0 or s21 == 0:
            raise UndefinedThresholdError(
                "regime threshold needs nonzero s11 and s21"
            )
        try:
            if kind == "gaussian-6":
                thr = (s11**2 - s21**2) / (2 * s11 * s21)
            else:
                thr = (s21**2 - s11**2) / (2 * s11 * s21)
        except (OverflowError, ZeroDivisionError):
            raise UndefinedThresholdError(
                "regime threshold overflows or divides by zero in floating point"
            ) from None
    if kind == "gaussian-6":
        if s22 >= thr:
            return RegimeReport("corollary-1", thr, s22 - thr,
                                boundary=abs(s22 - thr) == 0.0)
        return RegimeReport("corollary-2", thr, thr - s22)
    if kind == "gaussian-13":
        margin = thr - s12
        label = "corollary-3" if margin >= 0 else "none"
        return RegimeReport(label, thr, margin, boundary=margin == 0.0)
    if kind == "one-sided":
        if s12 != 0:
            raise ChannelShapeError("one-sided classification requires s12 = 0")
        margin = s21 - s11
        label = "corollary-4" if margin >= 0 else "none"
        return RegimeReport(label, s11, margin, boundary=margin == 0.0)
    raise ChannelShapeError(f"unknown channel kind {kind!r}")


def _require(kind: str | None, gains: tuple[float, float, float, float] | None,
             want: str, force: bool) -> None:
    """Pass when ``classify`` labels the channel ``want`` or puts it within
    REGIME_TOL of the threshold; ``classify`` raises on an undefined one."""
    if force:
        return
    if kind is None or gains is None:
        raise RegimeViolationError(
            "channel carries no regime metadata; pass force=True to evaluate anyway"
        )
    report = classify(kind, *gains)
    if report.label == want or abs(report.margin) <= REGIME_TOL:
        return
    raise RegimeViolationError(
        f"channel violates {want} (classified {report.label}, margin "
        f"{report.margin:.6g}); use force to override"
    )


def _received(ch: CorrelatedGaussianIC) -> tuple[float, ...]:
    """(a1, b1, n1, a2, b2, n2): the received powers of x1 and x2 and the
    noise variance at y1, then the same at y2, at full power.

    Raises when a noise variance is not positive or a power overflows, so
    every signal-to-noise ratio formed from them is finite.
    """
    (h11, h12), (h21, h22) = ch.gain.tolist()
    n1, n2 = np.diag(ch.noise_cov).tolist()
    p1, p2 = float(ch.p1), float(ch.p2)
    a1, b1 = h11 * h11 * p1, h12 * h12 * p2
    a2, b2 = h21 * h21 * p1, h22 * h22 * p2
    if not (n1 > 0 and n2 > 0):
        raise InputError("noise variances must be positive")
    if not (math.isfinite((a1 + b1) / n1) and math.isfinite((a2 + b2) / n2)):
        raise InputError("received powers overflow: the gains or powers are "
                         "too large for floating point")
    return a1, b1, n1, a2, b2, n2


def capacity_region_strong(ch: CorrelatedGaussianIC, force: bool = False) -> RateRegion:
    """Capacity region in the strong regime (both receivers decode both).

    R1 <= I(x1;y1|x2), R2 <= min(I(x2;y2|x1) + d12, I(x2;y1|x1)),
    R1+R2 <= min(I(x1,x2;y2) + d12, I(x1,x2;y1)), evaluated with independent
    full-power Gaussian inputs.
    """
    if ch.kind == "gaussian-13":
        raise ChannelShapeError("strong-regime region applies to gaussian-6 channels")
    _require(ch.kind, ch.gains, "corollary-1", force)
    a1, b1, n1, a2, b2, n2 = _received(ch)
    r1 = psi(a1 / n1)
    r2 = min(psi(b2 / n2) + ch.d12, psi(b1 / n1))
    s = min(psi((a2 + b2) / n2) + ch.d12, psi((a1 + b1) / n1))
    return from_constraints([
        RateConstraint(1, 0, r1, "r1"),
        RateConstraint(0, 1, r2, "r2"),
        RateConstraint(1, 1, s, "sum"),
    ], tag="strong-capacity")


def sum_capacity_fwd_own(ch: CorrelatedGaussianIC, force: bool = False) -> float:
    """Sum capacity when the conference forwards receiver 2's own message.

    min(I(x1;y1|x2) + I(x2;y2) + d12, I(x1,x2;y1)) at full power.
    """
    if ch.kind == "gaussian-13":
        raise ChannelShapeError("this sum capacity applies to gaussian-6 channels")
    _require(ch.kind, ch.gains, "corollary-2", force)
    a1, b1, n1, a2, b2, n2 = _received(ch)
    return min(psi(a1 / n1) + psi(b2 / (a2 + n2)) + ch.d12,
               psi((a1 + b1) / n1))


def sum_capacity_fwd_interference(
    ch: CorrelatedGaussianIC, force: bool = False
) -> float:
    """Sum capacity when the conference forwards interference information.

    min(I(x2;y2|x1) + I(x1;y1), I(x1,x2;y2) + d12) at full power.
    """
    if ch.kind == "gaussian-6":
        raise ChannelShapeError("this sum capacity applies to gaussian-13 channels")
    _require(ch.kind, ch.gains, "corollary-3", force)
    a1, b1, n1, a2, b2, n2 = _received(ch)
    return min(psi(b2 / n2) + psi(a1 / (b1 + n1)),
               psi((a2 + b2) / n2) + ch.d12)


def capacity_region_one_sided(
    ch: GaussianIC, force: bool = False
) -> RateRegion:
    """Capacity region of the one-sided channel, interference decoded at rx2.

    Requires s12 = 0; the regime gate is s21 >= s11.  The region is the
    pentagon R1 <= psi(s11^2 p1), R2 <= psi(s22^2 p2),
    R1 + R2 <= psi(s21^2 p1 + s22^2 p2) + d12.
    """
    if ch.s12 != 0:
        raise ChannelShapeError("one-sided region requires s12 = 0")
    _require("one-sided", (ch.s11, 0.0, ch.s21, ch.s22), "corollary-4", force)
    return from_constraints([
        RateConstraint(1, 0, psi(ch.s11**2 * ch.p1), "r1"),
        RateConstraint(0, 1, psi(ch.s22**2 * ch.p2), "r2"),
        RateConstraint(1, 1, psi(ch.s21**2 * ch.p1 + ch.s22**2 * ch.p2) + ch.d12,
                       "sum"),
    ], tag="one-sided-capacity")
