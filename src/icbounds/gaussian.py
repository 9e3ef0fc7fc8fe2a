"""The Gaussian channel record and the point-to-point capacity psi.

All rates are in bits (log base 2).  Channels are real-gain, unit-noise:

    y1 = s11*x1 + s12*x2 + z1
    y2 = s21*x1 + s22*x2 + z2

with E[x_i^2] <= p_i and z1, z2 zero-mean unit-variance Gaussians.  The
covariance oracle that checks the library's closed forms against
log-determinants lives with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


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
