import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from icbounds import (
    GaussianIC,
    GaussianSystem,
    build_system,
    derived_signals,
    full_system,
    gaussian_mi,
    psi,
)
from icbounds.errors import DegenerateChannelError, InputError

from conftest import random_channel

FIG2 = GaussianIC(100, 60, 60, 100, 1.0, 1.0, 0.5, 0.5)


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(1.0) == pytest.approx(0.5, abs=1e-15)
    assert psi(3.0) == pytest.approx(1.0, abs=1e-15)


def test_psi_rejects_negative():
    with pytest.raises(InputError):
        psi(-1e-9)


@given(st.floats(0, 1e9), st.floats(0, 1e9))
def test_psi_monotone(x, y):
    lo, hi = sorted((x, y))
    assert psi(lo) <= psi(hi)


def test_psi_matches_scalar_channel(rng):
    for p in rng.uniform(0.0, 20.0, size=100):
        sys = GaussianSystem(("x", "z"), np.diag([p, 1.0])).extend(
            "y", {"x": 1.0, "z": 1.0}
        )
        assert gaussian_mi(sys, ("x",), ("y",)) == pytest.approx(psi(p), abs=1e-12)


def test_build_system_overflow_names_the_cause():
    with pytest.raises(InputError, match="gains or powers are too large"):
        build_system(GaussianIC(1e200, 0.4, 1e200, 0.5, 1.0, 1.0))


def test_build_system_noise_only():
    sys = build_system(GaussianIC(2, 3, 4, 5, 0.0, 0.0))
    assert sys.subcov(("y1",))[0, 0] == pytest.approx(1.0)
    assert sys.subcov(("y2",))[0, 0] == pytest.approx(1.0)


def test_build_system_output_variance_at_preset():
    sys = build_system(FIG2)
    assert sys.subcov(("y1",))[0, 0] == pytest.approx(13601.0, abs=1e-9)


def test_output_cross_covariance(rng):
    for _ in range(50):
        ch = random_channel(rng)
        sys = build_system(ch)
        want = ch.s11 * ch.s21 * ch.p1 + ch.s12 * ch.s22 * ch.p2
        got = sys.subcov(("y1", "y2"))[0, 1]
        assert got == pytest.approx(want, abs=1e-9, rel=1e-12)


def test_mi_independent_is_zero():
    sys = GaussianSystem(("a", "b"), np.diag([2.0, 3.0]))
    assert gaussian_mi(sys, ("a",), ("b",)) == 0.0


def test_mi_requires_disjoint_groups():
    sys = GaussianSystem(("a", "b"), np.diag([1.0, 1.0]))
    with pytest.raises(InputError):
        gaussian_mi(sys, ("a",), ("a",))


def test_mi_chain_rule(rng):
    labels = ("a", "b", "c", "d")
    for _ in range(40):
        f = rng.normal(size=(4, 4))
        cov = f @ f.T + 0.1 * np.eye(4)
        sys = GaussianSystem(labels, cov)
        lhs = gaussian_mi(sys, ("a",), ("b", "c"), ("d",))
        rhs = gaussian_mi(sys, ("a",), ("b",), ("d",)) + gaussian_mi(
            sys, ("a",), ("c",), ("b", "d")
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert lhs >= 0.0


def test_conditional_mi_closed_form(rng):
    # I(x1,x2; y1 | g1) = psi(s12^2 p2 + s11^2 p1 / (s21^2 p1 + 1))
    for _ in range(25):
        ch = random_channel(rng)
        sys = full_system(ch)
        want = psi(ch.s12**2 * ch.p2
                   + ch.s11**2 * ch.p1 / (ch.s21**2 * ch.p1 + 1))
        got = gaussian_mi(sys, ("x1", "x2"), ("y1",), ("g1",))
        assert got == pytest.approx(want, abs=1e-9)
    # at the high-gain preset the covariances span ~8 decades, so the
    # determinant path keeps fewer digits
    got = gaussian_mi(full_system(FIG2), ("x1", "x2"), ("y1",), ("g1",))
    want = psi(60**2 + 100**2 / (60**2 + 1))
    assert got == pytest.approx(want, abs=1e-6)


def test_derived_signal_coefficients_symmetric_gains():
    ch = GaussianIC(1, 1, 1, 1, 1.0, 1.0)
    sig = derived_signals(ch)
    assert sig.coeffs["zh1"] == {"z1": 0.5, "z2": 0.5}
    assert sig.coeffs["zb2"] == {"z1": -0.5, "z2": 0.5}
    sys = sig.extend(build_system(ch))
    cov = sys.cov[sys.index("zh1"), sys.index("zb2")]
    assert abs(cov) <= 1e-15


def test_noise_orthogonality_pairings(rng):
    for _ in range(1000):
        ch = random_channel(rng)
        sys = full_system(ch)
        c1 = sys.cov[sys.index("zb1"), sys.index("zh2")]
        c2 = sys.cov[sys.index("zb2"), sys.index("zh1")]
        assert abs(c1) <= 1e-12 and abs(c2) <= 1e-12


def test_hat_noise_variance(rng):
    for _ in range(50):
        ch = random_channel(rng)
        sys = full_system(ch)
        want = 1.0 / (ch.s12**2 + ch.s22**2)
        assert sys.subcov(("zh1",))[0, 0] == pytest.approx(want, rel=1e-12)


def test_rotated_output_identity(rng):
    # replacing y1 by the rotated output loses nothing about x2
    for _ in range(100):
        ch = random_channel(rng)
        sys = full_system(ch)
        lhs = gaussian_mi(sys, ("x2",), ("y1", "y2"), ("x1",))
        rhs = gaussian_mi(sys, ("x2",), ("yh1", "y2"), ("x1",))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_derived_signals_degenerate_channel():
    with pytest.raises(DegenerateChannelError):
        derived_signals(GaussianIC(1, 0, 1, 0, 1, 1))


def test_system_validation():
    with pytest.raises(InputError):
        GaussianSystem(("a", "a"), np.eye(2))
    with pytest.raises(InputError):
        GaussianSystem(("a", "b"), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        GaussianSystem(("a", "b"), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_channel_validation():
    with pytest.raises(InputError):
        GaussianIC(1, 1, 1, 1, -0.5, 1)
    with pytest.raises(InputError):
        GaussianIC(1, 1, 1, 1, 1, 1, d12=-0.1)
    with pytest.raises(InputError):
        GaussianIC(math.inf, 1, 1, 1, 1, 1)
