"""Covariance algebra and the Gaussian mutual-information oracle.

All rates are in bits (log base 2).  Channels are real-gain, unit-noise:

    y1 = s11*x1 + s12*x2 + z1
    y2 = s21*x1 + s22*x2 + z2

with E[x_i^2] <= p_i and z1, z2 (plus two spare independent copies zt1, zt2)
zero-mean unit-variance Gaussians.  Everything here is a pure function of
immutable inputs.

The oracle (:func:`gaussian_mi` over a :class:`GaussianSystem`) is the test
reference for the library's closed forms: it takes any conditional mutual
information of jointly Gaussian variables as differences of log-determinants
with an absolute ridge.  It loses digits as the SNR grows.  Against a
60-digit reference on random cascade channels, the capacity evaluators'
values through it were within 6e-15 bits at gains <= 3, 7e-10 bits at
gains <= 1000 and 0.04 bits at gains <= 1e7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateChannelError, InputError, NumericalError

RIDGE = 1e-12
PSD_TOL = 1e-10


def psi(x):
    """Gaussian point-to-point capacity 0.5*log2(1 + x) for SNR x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise InputError("psi requires a nonnegative SNR argument")
    out = 0.5 * np.log1p(x) / math.log(2.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianIC:
    """Standard-form scalar Gaussian interference channel."""

    s11: float
    s12: float
    s21: float
    s22: float
    p1: float
    p2: float
    d12: float = 0.0
    d21: float = 0.0

    def __post_init__(self):
        vals = (self.s11, self.s12, self.s21, self.s22,
                self.p1, self.p2, self.d12, self.d21)
        if not all(math.isfinite(v) for v in vals):
            raise InputError("channel parameters must be finite")
        if self.p1 < 0 or self.p2 < 0:
            raise InputError("powers must be nonnegative")
        if self.d12 < 0 or self.d21 < 0:
            raise InputError("conference capacities must be nonnegative")


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
