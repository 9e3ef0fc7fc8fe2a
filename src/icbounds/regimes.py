"""Regime classification and capacity evaluators for the special channels.

Two cascade channels with one-directional conferencing (the receiver of the
conference link is receiver 2, budget d12) admit exact capacity statements:

* kind "gaussian-6":  y2 = s21*x1 + s22*y1 + z2  (receiver 2 hears y1),
* kind "gaussian-13": y1 = s11*x1 + s12*y2 + z1  (receiver 1 hears y2),

plus the one-sided channel (s12 = 0).  A :class:`CorrelatedGaussianIC` holds
a cascade channel as its own parameters (kind, four gains, two powers, d12)
and derives the correlated-noise form y = H x + n from them.  Each evaluator
computes its region or sum rate with independent full-power Gaussian inputs.
Every mutual information it needs involves one output alone, so each is psi
of a ratio of received powers and noise variances, and every region is one
pentagon.  :func:`classify` is the one place that computes a regime
threshold; every evaluator's regime gate asks it.
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
from .regions import RateRegion, pentagon_vertices

REGIME_TOL = 1e-9
_OVERFLOW = ("received powers overflow: the gains or powers are too large "
             "for floating point")


@dataclass(frozen=True)
class CorrelatedGaussianIC:
    """A cascade channel of kind "gaussian-6" or "gaussian-13", held as its
    four gains, two powers and conference budget d12.

    Substituting the cascade output gives the correlated-noise form
    y = H x + n, x independent zero-mean with powers p1, p2: ``gain`` is H
    and ``noise_cov`` the covariance of n, both computed from the gains.
    """

    kind: str
    s11: float
    s12: float
    s21: float
    s22: float
    p1: float
    p2: float
    d12: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian-6", "gaussian-13"):
            raise ChannelShapeError(f"unknown cascade kind {self.kind!r}")
        if not all(map(math.isfinite, (*self.gains, self.p1, self.p2, self.d12))):
            raise InputError("channel parameters must be finite")
        if self.p1 < 0 or self.p2 < 0 or self.d12 < 0:
            raise InputError("powers and conference capacities must be nonnegative")

    @property
    def gains(self) -> tuple[float, float, float, float]:
        return self.s11, self.s12, self.s21, self.s22

    @property
    def gain(self) -> np.ndarray:
        s11, s12, s21, s22 = self.gains
        if self.kind == "gaussian-6":
            return np.array([[s11, s12], [s21 + s22 * s11, s22 * s12]])
        return np.array([[s11 + s12 * s21, s12 * s22], [s21, s22]])

    @property
    def noise_cov(self) -> np.ndarray:
        if self.kind == "gaussian-6":
            return np.array([[1.0, self.s22], [self.s22, self.s22 * self.s22 + 1.0]])
        return np.array([[self.s12 * self.s12 + 1.0, self.s12], [self.s12, 1.0]])


@dataclass(frozen=True)
class RegimeReport:
    """Which corollary-style condition holds, with the signed slack."""

    label: str
    threshold: float
    margin: float
    boundary: bool = field(default=False)


def classify(kind: str, s11: float, s12: float, s21: float, s22: float) -> RegimeReport:
    """Evaluate the regime condition for the given channel kind.

    Each gate asks whether y2 hears x1 at least as well as y1 does, so a
    sign flip that only relabels an input or an output keeps the label.
    With sg = sign(s11 s21), gaussian-6 channels split along
    (s11^2 - s21^2)/(2|s11 s21|) vs sg*s22, i.e. (s21 + s22 s11)^2/(1 + s22^2)
    vs s11^2 (below or equal: strong regime, above or equal: mixed);
    gaussian-13 channels check (s21^2 - s11^2)/(2|s11 s21|) >= sg*s12, i.e.
    s21^2 >= (s11 + s12 s21)^2/(1 + s12^2); one-sided channels (kind
    "one-sided", s12 = 0) check |s21| >= |s11|.
    """
    if kind in ("gaussian-6", "gaussian-13"):
        if s11 == 0 or s21 == 0:
            raise UndefinedThresholdError("regime threshold needs nonzero s11 and s21")
        a, b = (s11, s21) if kind == "gaussian-6" else (s21, s11)
        try:
            den = 2 * s11 * s21
            thr = (a**2 - b**2) / abs(den)
        except (OverflowError, ZeroDivisionError):
            raise UndefinedThresholdError(
                "regime threshold overflows or divides by zero in floating point"
            ) from None
    if kind == "gaussian-6":
        sg_s22 = s22 if den > 0 else -s22
        if sg_s22 >= thr:
            return RegimeReport("corollary-1", thr, sg_s22 - thr,
                                boundary=abs(sg_s22 - thr) == 0.0)
        return RegimeReport("corollary-2", thr, thr - sg_s22)
    if kind == "gaussian-13":
        margin = thr - (s12 if den > 0 else -s12)
        label = "corollary-3" if margin >= 0 else "none"
        return RegimeReport(label, thr, margin, boundary=margin == 0.0)
    if kind == "one-sided":
        if s12 != 0:
            raise ChannelShapeError("one-sided classification requires s12 = 0")
        margin = abs(s21) - abs(s11)
        label = "corollary-4" if margin >= 0 else "none"
        return RegimeReport(label, abs(s11), margin, boundary=margin == 0.0)
    raise ChannelShapeError(f"unknown channel kind {kind!r}")


def _require(kind: str, gains: tuple[float, float, float, float],
             want: str, force: bool) -> None:
    """Pass when ``classify`` labels the channel ``want`` or puts it within
    REGIME_TOL of the threshold; ``classify`` raises on an undefined one."""
    if force:
        return
    report = classify(kind, *gains)
    if report.label == want or abs(report.margin) <= REGIME_TOL:
        return
    raise RegimeViolationError(
        f"channel violates {want} (classified {report.label}, margin "
        f"{report.margin:.6g}); use force to override"
    )


def _received(ch: CorrelatedGaussianIC, kind: str, want: str,
              force: bool) -> tuple[float, ...]:
    """(a1, b1, n1, a2, b2, n2) of a ``kind`` channel that passes the
    ``want`` gate: the received powers of x1 and x2 and the noise variance
    at y1, then the same at y2, at full power.  Raises when one overflows,
    so every signal-to-noise ratio formed from them is finite."""
    if ch.kind != kind:
        raise ChannelShapeError(f"the {want} evaluators apply to {kind} channels")
    _require(kind, ch.gains, want, force)
    (h11, h12), (h21, h22) = ch.gain.tolist()
    n1, n2 = ch.noise_cov.diagonal().tolist()
    p1, p2 = float(ch.p1), float(ch.p2)
    a1, b1 = h11 * h11 * p1, h12 * h12 * p2
    a2, b2 = h21 * h21 * p1, h22 * h22 * p2
    if not all(map(math.isfinite, (n1, n2, (a1 + b1) / n1, (a2 + b2) / n2))):
        raise InputError(_OVERFLOW)
    return a1, b1, n1, a2, b2, n2


def capacity_region_strong(ch: CorrelatedGaussianIC, force: bool = False) -> RateRegion:
    """Capacity region in the strong regime (both receivers decode both).

    R1 <= I(x1;y1|x2), R2 <= min(I(x2;y2|x1) + d12, I(x2;y1|x1)),
    R1+R2 <= min(I(x1,x2;y2) + d12, I(x1,x2;y1)), evaluated with independent
    full-power Gaussian inputs.
    """
    a1, b1, n1, a2, b2, n2 = _received(ch, "gaussian-6", "corollary-1", force)
    r1 = psi(a1 / n1)
    r2 = min(psi(b2 / n2) + ch.d12, psi(b1 / n1))
    s = min(psi((a2 + b2) / n2) + ch.d12, psi((a1 + b1) / n1))
    return RateRegion(*pentagon_vertices(r1, r2, s).T)


def sum_capacity_fwd_own(ch: CorrelatedGaussianIC, force: bool = False) -> float:
    """Sum capacity when the conference forwards receiver 2's own message.

    min(I(x1;y1|x2) + I(x2;y2) + d12, I(x1,x2;y1)) at full power.
    """
    a1, b1, n1, a2, b2, n2 = _received(ch, "gaussian-6", "corollary-2", force)
    return min(psi(a1 / n1) + psi(b2 / (a2 + n2)) + ch.d12,
               psi((a1 + b1) / n1))


def sum_capacity_fwd_interference(
    ch: CorrelatedGaussianIC, force: bool = False
) -> float:
    """Sum capacity when the conference forwards interference information.

    min(I(x2;y2|x1) + I(x1;y1), I(x1,x2;y2) + d12) at full power.
    """
    a1, b1, n1, a2, b2, n2 = _received(ch, "gaussian-13", "corollary-3", force)
    return min(psi(b2 / n2) + psi(a1 / (b1 + n1)),
               psi((a2 + b2) / n2) + ch.d12)


def capacity_region_one_sided(ch: GaussianIC, force: bool = False) -> RateRegion:
    """Capacity region of the one-sided channel, interference decoded at rx2.

    Requires s12 = 0; the regime gate is |s21| >= |s11|.  The region is the
    pentagon R1 <= psi(s11^2 p1), R2 <= psi(s22^2 p2),
    R1 + R2 <= psi(s21^2 p1 + s22^2 p2) + d12.
    """
    if ch.s12 != 0:
        raise ChannelShapeError("one-sided region requires s12 = 0")
    _require("one-sided", (ch.s11, 0.0, ch.s21, ch.s22), "corollary-4", force)
    try:
        a, b, c = ch.s11**2 * ch.p1, ch.s22**2 * ch.p2, ch.s21**2 * ch.p1
    except OverflowError:
        raise InputError(_OVERFLOW) from None
    if not all(map(math.isfinite, (a, b, c + b))):
        raise InputError(_OVERFLOW)
    return RateRegion(*pentagon_vertices(psi(a), psi(b), psi(c + b) + ch.d12).T)
