import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from icbounds import (
    CorrelatedGaussianIC,
    GaussianIC,
    capacity_region_one_sided,
    capacity_region_strong,
    classify,
    outer_region,
    psi,
    sum_capacity_fwd_interference,
    sum_capacity_fwd_own,
)
from icbounds.errors import (
    ChannelShapeError,
    InputError,
    RegimeViolationError,
    UndefinedThresholdError,
)
from icbounds.regimes import REGIME_TOL

from conftest import oracle_system
from reference import gaussian_mi, includes, is_point


def margin_zero_channel(rng):
    s21 = rng.uniform(0.2, 1.5)
    s11 = s21 * rng.uniform(1.0, 3.0)
    s22 = (s11**2 - s21**2) / (2 * s11 * s21)
    s12 = rng.uniform(0.2, 2.0)
    p1, p2 = rng.uniform(0.5, 4.0, size=2)
    return CorrelatedGaussianIC("gaussian-6", s11, s12, s21, s22, p1, p2,
                                d12=rng.uniform(0, 1))


def test_effective_form_unit_gains():
    ch = CorrelatedGaussianIC("gaussian-6", 1, 1, 1, 1, 1, 1, 0.0)
    assert np.allclose(ch.gain, [[1, 1], [2, 1]])
    assert np.allclose(ch.noise_cov, [[1, 1], [1, 2]])


def test_effective_form_severed_cascade():
    ch = CorrelatedGaussianIC("gaussian-6", 1.2, 0.7, 0.9, 0.0, 1, 1, 0.0)
    assert np.allclose(ch.noise_cov, np.eye(2))
    assert np.allclose(ch.gain[1], [0.9, 0.0])


def test_effective_form_reverse_cascade():
    ch = CorrelatedGaussianIC("gaussian-13", 1.0, 0.5, 2.0, 3.0, 1, 1, 0.0)
    assert np.allclose(ch.gain[0], [2.0, 1.5])
    assert np.allclose(ch.noise_cov, [[1.25, 0.5], [0.5, 1.0]])


def test_effective_form_noise_cov_psd(rng):
    for _ in range(50):
        kind = "gaussian-6" if rng.uniform() < 0.5 else "gaussian-13"
        s = rng.uniform(-3, 3, size=4)
        ch = CorrelatedGaussianIC(kind, *s, 1.0, 1.0, 0.0)
        assert np.min(np.linalg.eigvalsh(ch.noise_cov)) >= -1e-12


def test_effective_form_unknown_kind():
    with pytest.raises(ChannelShapeError):
        CorrelatedGaussianIC("gaussian-99", 1, 1, 1, 1, 1, 1, 0.0)


def test_classify_equal_gains_is_strong():
    rep = classify("gaussian-6", 2.0, 0.5, 2.0, 0.9)
    assert rep.label == "corollary-1"
    assert rep.threshold == 0.0
    assert rep.margin == pytest.approx(0.9)


def test_classify_boundary():
    rep = classify("gaussian-6", 2.0, 1.0, 1.0, 0.75)
    assert rep.margin == 0.0 and rep.boundary
    assert rep.threshold == pytest.approx(0.75)


def test_classify_one_sided():
    rep = classify("one-sided", 2.0, 0.0, 3.0, 1.0)
    assert rep.label == "corollary-4" and rep.margin == pytest.approx(1.0)
    rep = classify("one-sided", 3.0, 0.0, 2.0, 1.0)
    assert rep.label == "none"


def test_one_sided_gate_ignores_gain_signs(rng):
    # every one-sided formula sees the gains only through their squares, so
    # flipping the sign of s11, s21 or s22 changes neither the report nor
    # the region; (2, 1) and (1, 2) at either sign are the two repro shapes
    chans = [(2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 1.0)]
    chans += [tuple(rng.uniform(0.0, 2.5, size=3)) for _ in range(40)]
    labels = set()
    for s11, s21, s22 in chans:
        base = classify("one-sided", s11, 0.0, s21, s22)
        labels.add(base.label)
        if base.label != "none":
            want = capacity_region_one_sided(GaussianIC(s11, 0.0, s21, s22,
                                                        1.5, 0.8, 0.3, 0.0))
        for f11, f21, f22 in itertools.product((1.0, -1.0), repeat=3):
            gains = (f11 * s11, 0.0, f21 * s21, f22 * s22)
            assert classify("one-sided", *gains) == base, gains
            ch = GaussianIC(*gains, 1.5, 0.8, 0.3, 0.0)
            if base.label == "none":
                with pytest.raises(RegimeViolationError):
                    capacity_region_one_sided(ch)
            else:
                reg = capacity_region_one_sided(ch)
                assert np.array_equal(reg.r1, want.r1)
                assert np.array_equal(reg.r2, want.r2)
    assert labels == {"corollary-4", "none"}


def snr_margin(kind, s11, s12, s21, s22) -> float:
    """How much better y2 hears x1 than y1 does, in received SNR (noise
    variance 1 + s22^2 at y2 for gaussian-6, 1 + s12^2 at y1 for
    gaussian-13); the gate's corollary holds when it is >= 0."""
    if kind == "gaussian-6":
        return (s21 + s22 * s11) ** 2 / (1 + s22 ** 2) - s11 ** 2
    return s21 ** 2 - (s11 + s12 * s21) ** 2 / (1 + s12 ** 2)


# the sign flips of x1, y1 and y2 on (s11, s12, s21, s22); each product of
# them (x2 is the product of all three) only relabels an input or an output
CASCADE_FLIPS = {
    "gaussian-6": ((-1, 1, -1, 1), (-1, -1, 1, -1), (1, 1, -1, -1)),
    "gaussian-13": ((-1, 1, -1, 1), (-1, -1, 1, 1), (1, -1, -1, -1)),
}
CASCADE_LABELS = {"gaussian-6": ("corollary-1", "corollary-2"),
                  "gaussian-13": ("corollary-3", "none")}


def relabellings(kind, gains):
    """The 8 sign patterns of ``gains`` reached by the kind's flips."""
    for use in itertools.product((False, True), repeat=3):
        sign = np.ones(4)
        for on, flip in zip(use, CASCADE_FLIPS[kind]):
            if on:
                sign *= flip
        yield tuple(float(v) for v in sign * np.asarray(gains))


@pytest.mark.parametrize("kind", sorted(CASCADE_FLIPS))
def test_cascade_gate_is_the_received_snr_rule(rng, kind):
    yes, no = CASCADE_LABELS[kind]
    seen = set()
    for _ in range(4000):
        gains = tuple(rng.uniform(-3.0, 3.0, size=4))
        margin = snr_margin(kind, *gains)
        if abs(margin) < 1e-9:
            continue
        label = classify(kind, *gains).label
        assert label == (yes if margin >= 0 else no), gains
        seen.add((label, gains[0] * gains[2] > 0))
    assert seen == {(yes, True), (yes, False), (no, True), (no, False)}


@pytest.mark.parametrize("kind", sorted(CASCADE_FLIPS))
def test_cascade_gate_ignores_relabelling_signs(rng, kind):
    # a relabelled channel is the same channel: same report, same capacity
    evaluate = {"corollary-1": capacity_region_strong,
                "corollary-2": sum_capacity_fwd_own,
                "corollary-3": sum_capacity_fwd_interference}
    labels = set()
    for _ in range(60):
        gains = tuple(rng.uniform(-2.5, 2.5, size=4))
        base = classify(kind, *gains)
        labels.add(base.label)
        want = None
        for flipped in relabellings(kind, gains):
            assert classify(kind, *flipped) == base, flipped
            if base.label in evaluate:
                got = evaluate[base.label](CorrelatedGaussianIC(
                    kind, *flipped, 1.5, 0.8, 0.05))
                if not isinstance(got, float):
                    got = got.max_sum()
                want = got if want is None else want
                assert got == pytest.approx(want, abs=1e-12)
    assert labels == set(CASCADE_LABELS[kind])


def test_sign_flipped_output_keeps_corollary_3():
    # (1, -0.4, -2, -1.5) is (1, 0.4, 2, 1.5) with y2 negated
    want = None
    for gains in ((1.0, 0.4, 2.0, 1.5), (1.0, -0.4, -2.0, -1.5)):
        rep = classify("gaussian-13", *gains)
        assert rep.label == "corollary-3"
        assert rep.margin == pytest.approx(0.35, abs=1e-12)
        got = sum_capacity_fwd_interference(
            CorrelatedGaussianIC("gaussian-13", *gains, 1.5, 0.8, 0.05))
        assert got == pytest.approx(1.61875176, abs=1e-8)
        want = got if want is None else want
        assert got == pytest.approx(want, abs=1e-12)


def test_classify_errors():
    with pytest.raises(UndefinedThresholdError):
        classify("gaussian-6", 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ChannelShapeError):
        classify("one-sided", 1.0, 0.5, 2.0, 1.0)


def test_strong_region_zero_power():
    ch = CorrelatedGaussianIC("gaussian-6", 1, 1, 1, 1, 0.0, 0.0, 0.5)
    assert is_point(capacity_region_strong(ch))


def test_strong_region_direct_rate_bound():
    # equal direct/cross gains sit on the strong boundary; with no
    # conference the private rate is the single-user look
    ch = CorrelatedGaussianIC("gaussian-6", 1.3, 0.8, 1.3, 0.6, 2.0, 1.0, 0.0)
    reg = capacity_region_strong(ch)
    assert reg.r1_max == pytest.approx(psi(1.3**2 * 2.0), abs=1e-12)


def test_regime_gate_and_force():
    ch = CorrelatedGaussianIC("gaussian-6", 3.0, 1.0, 1.0, 0.2, 1.0, 1.0, 0.3)
    with pytest.raises(RegimeViolationError):
        capacity_region_strong(ch)
    capacity_region_strong(ch, force=True)
    # mirrored gate for the mixed-regime sum capacity
    ch2 = CorrelatedGaussianIC("gaussian-6", 1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.3)
    with pytest.raises(RegimeViolationError):
        sum_capacity_fwd_own(ch2)
    sum_capacity_fwd_own(ch2, force=True)


def test_boundary_sum_consistency(rng):
    for _ in range(10):
        ch = margin_zero_channel(rng)
        reg = capacity_region_strong(ch)
        assert reg.max_sum() == pytest.approx(sum_capacity_fwd_own(ch), abs=1e-9)


def test_sum_capacity_value_hand_checked():
    # cascade gains (3, 1, 1, 1), unit powers, d12 = 0.3:
    # direct look 0.5*log2(10); own-signal look 0.5*log2(19/18);
    # receiver-1 joint look 0.5*log2(11)
    ch = CorrelatedGaussianIC("gaussian-6", 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.3)
    want = min(0.5 * math.log2(10) + 0.5 * math.log2(19 / 18) + 0.3,
               0.5 * math.log2(11))
    assert sum_capacity_fwd_own(ch) == pytest.approx(want, abs=1e-9)


def test_sum_capacity_saturates_at_receiver1_look():
    ch = CorrelatedGaussianIC("gaussian-6", 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0)
    sys = oracle_system(ch)
    want = gaussian_mi(sys, ("x1", "x2"), ("y1",))
    assert sum_capacity_fwd_own(ch) == pytest.approx(want, abs=1e-12)


def test_fwd_interference_monotone_in_conference():
    vals = []
    for d12 in (0.0, 0.3, 0.8, 2.0):
        ch = CorrelatedGaussianIC("gaussian-13", 1.0, 0.4, 2.0, 1.5, 1.0, 1.0, d12)
        vals.append(sum_capacity_fwd_interference(ch))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_fwd_interference_closed_form_decoupled():
    # gaussian-13 with s12 = 0 and no conference: plain psi terms
    ch = CorrelatedGaussianIC("gaussian-13", 1.0, 0.0, 2.0, 1.5, 2.0, 1.0, 0.0)
    alt1 = psi(1.5**2 * 1.0) + psi(1.0**2 * 2.0)
    det2 = (1.0 * 1.5) ** 2
    alt2 = psi(2.0**2 * 2.0 + 1.5**2 * 1.0 + det2 * 2.0 * 1.0)
    assert sum_capacity_fwd_interference(ch) == pytest.approx(
        min(alt1, alt2), abs=1e-9)


def test_fwd_interference_wrong_kind():
    ch = CorrelatedGaussianIC("gaussian-6", 1.0, 0.4, 2.0, 1.5, 1.0, 1.0, 0.1)
    with pytest.raises(ChannelShapeError):
        sum_capacity_fwd_interference(ch)


def test_one_sided_region_frozen_vertices():
    reg = capacity_region_one_sided(GaussianIC(1, 0, 2, 1, 1, 1, 0.5, 0))
    assert np.allclose(reg.r1, [0.0, 0.5], atol=1e-12)
    assert np.allclose(reg.r2, [0.5, 0.5], atol=1e-12)


def test_one_sided_region_full_rectangle_when_conference_large():
    ch = GaussianIC(1, 0, 2, 1, 1, 1, 5.0, 0)
    reg = capacity_region_one_sided(ch)
    assert reg.r1_max == pytest.approx(psi(1.0))
    assert reg.r2_max == pytest.approx(psi(1.0))
    assert reg.max_sum() == pytest.approx(psi(1.0) + psi(1.0), abs=1e-12)


def test_one_sided_requires_shape_and_regime():
    with pytest.raises(ChannelShapeError):
        capacity_region_one_sided(GaussianIC(1, 0.5, 2, 1, 1, 1, 0.5, 0))
    weak = GaussianIC(2, 0, 1, 1, 1, 1, 0.5, 0)
    with pytest.raises(RegimeViolationError):
        capacity_region_one_sided(weak)
    capacity_region_one_sided(weak, force=True)


def test_one_sided_zero_power():
    assert is_point(capacity_region_one_sided(GaussianIC(1, 0, 2, 1, 0, 0, 0.5, 0)))


def test_capacity_inside_outer_bound(rng):
    for _ in range(10):
        s11 = rng.uniform(0.2, 2.0)
        ch = GaussianIC(s11, 0.0, s11 * rng.uniform(1.0, 2.5),
                        rng.uniform(0.2, 2.0), rng.uniform(0.3, 4.0),
                        rng.uniform(0.3, 4.0), rng.uniform(0, 1), 0.0)
        cap = capacity_region_one_sided(ch)
        assert includes(outer_region(ch, grid_n=11), cap, tol=1e-6)


def test_strong_region_monotone_in_conference():
    regs = []
    for d12 in (0.0, 0.4, 1.0):
        ch = CorrelatedGaussianIC("gaussian-6", 1.3, 0.8, 1.3, 0.6, 2.0, 1.0, d12)
        regs.append(capacity_region_strong(ch))
    assert includes(regs[1], regs[0], tol=1e-9)
    assert includes(regs[2], regs[1], tol=1e-9)


def test_correlated_channel_validation():
    with pytest.raises(InputError, match="nonnegative"):
        CorrelatedGaussianIC("gaussian-6", 1, 1, 1, 1, -1, 1, 0.0)
    with pytest.raises(InputError, match="finite"):
        CorrelatedGaussianIC("gaussian-13", 1, float("nan"), 1, 1, 1, 1, 0.0)
    with pytest.raises(InputError, match="finite"):
        CorrelatedGaussianIC("gaussian-6", 1, 1, float("inf"), 1, 1, 1, 0.0)
    with pytest.raises(ChannelShapeError):
        CorrelatedGaussianIC("gaussian", 1, 1, 1, 1, 1, 1, 0.0)


# evaluator, channel kind it takes, corollary its gate wants
GATED = [
    (capacity_region_strong, "gaussian-6", "corollary-1"),
    (sum_capacity_fwd_own, "gaussian-6", "corollary-2"),
    (sum_capacity_fwd_interference, "gaussian-13", "corollary-3"),
    (capacity_region_one_sided, "one-sided", "corollary-4"),
]
# distances from the threshold, in and around the gate tolerance
OFFSETS = (0.0, 1e-10, -1e-10, 0.5 * REGIME_TOL, -0.5 * REGIME_TOL,
           REGIME_TOL, -REGIME_TOL, 2 * REGIME_TOL, -2 * REGIME_TOL,
           5e-9, -5e-9, 0.1, -0.1)


def gate_channel(rng, kind):
    """Random channel of ``kind``; mostly near its threshold, sometimes far
    from it, sometimes with a zero gain that leaves the threshold undefined."""
    s11, s12, s21, s22 = rng.uniform(-2.5, 2.5, size=4)
    if rng.uniform() < 0.1:
        s11, s21 = (0.0, s21) if rng.uniform() < 0.5 else (s11, 0.0)
    p1, p2, d12 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0, 1)
    near = rng.uniform() < 0.8
    offset = OFFSETS[rng.integers(len(OFFSETS))] if near else rng.uniform(-2, 2)
    if kind == "one-sided":
        s21 = s11 + offset if near else s21
        return GaussianIC(s11, 0.0, s21, s22, p1, p2, d12, 0.0), (s11, 0.0, s21, s22)
    if s11 and s21:
        thr = ((s11**2 - s21**2) if kind == "gaussian-6" else (s21**2 - s11**2)) / (
            2 * s11 * s21)
        if kind == "gaussian-6":
            s22 = thr + offset if near else s22
        else:
            s12 = thr - offset if near else s12
    gains = (s11, s12, s21, s22)
    return CorrelatedGaussianIC(kind, *gains, p1, p2, d12), gains


@pytest.mark.parametrize("evaluate, kind, want", GATED,
                         ids=[w for _, _, w in GATED])
def test_gate_follows_classify(rng, evaluate, kind, want):
    outcomes = set()
    for _ in range(250):
        ch, gains = gate_channel(rng, kind)
        try:
            report = classify(kind, *gains)
        except UndefinedThresholdError:
            with pytest.raises(UndefinedThresholdError):
                evaluate(ch)
            evaluate(ch, force=True)
            outcomes.add("undefined")
            continue
        passes = report.label == want or abs(report.margin) <= REGIME_TOL
        try:
            evaluate(ch)
        except RegimeViolationError:
            assert not passes, (gains, report)
            outcomes.add("violation")
            evaluate(ch, force=True)
        else:
            assert passes, (gains, report)
            outcomes.add("tolerated" if report.label != want else "pass")
    want_outcomes = {"pass", "tolerated", "violation"}
    if kind != "one-sided":
        want_outcomes.add("undefined")
    assert outcomes == want_outcomes


def _oracle_values(ch):
    """The three evaluators' values through the covariance oracle: the strong
    region as (R1 extent, R2 extent, max sum), then the two sum capacities."""
    sys = oracle_system(ch)
    f = lambda a, b, c=(): gaussian_mi(sys, a, b, c)
    r1 = f(("x1",), ("y1",), ("x2",))
    r2 = min(f(("x2",), ("y2",), ("x1",)) + ch.d12, f(("x2",), ("y1",), ("x1",)))
    s = min(f(("x1", "x2"), ("y2",)) + ch.d12, f(("x1", "x2"), ("y1",)))
    own = min(r1 + f(("x2",), ("y2",)) + ch.d12, f(("x1", "x2"), ("y1",)))
    interf = min(f(("x2",), ("y2",), ("x1",)) + f(("x1",), ("y1",)),
                 f(("x1", "x2"), ("y2",)) + ch.d12)
    return (min(r1, s), min(r2, s), min(s, r1 + r2)), own, interf


def test_closed_forms_match_covariance_oracle(rng):
    chans = []
    for _ in range(240):
        kind = "gaussian-6" if rng.uniform() < 0.5 else "gaussian-13"
        s = rng.uniform(0.05, 3.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        p1, p2, d12 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0), rng.uniform(0, 1)
        chans.append(CorrelatedGaussianIC(kind, *s, p1, p2, d12))
    for kind in ("gaussian-6", "gaussian-13"):
        for gains in ((0.0, 1.0, 1.0, 0.75), (1.5, 1.0, 0.0, 0.75),
                      (0.0, 0.4, 2.0, 1.5), (1.0, 0.4, 0.0, 1.5),
                      (0.0, 0.0, 0.0, 0.0)):
            chans.append(CorrelatedGaussianIC(kind, *gains, 1.0, 1.0, 0.3))
    for ch in chans:
        region, own, interf = _oracle_values(ch)
        if ch.kind == "gaussian-6":
            reg = capacity_region_strong(ch, force=True)
            assert (reg.r1_max, reg.r2_max, reg.max_sum()) == pytest.approx(
                region, rel=0, abs=1e-12)
            assert sum_capacity_fwd_own(ch, force=True) == pytest.approx(
                own, rel=0, abs=1e-12)
        else:
            assert sum_capacity_fwd_interference(ch, force=True) == pytest.approx(
                interf, rel=0, abs=1e-12)


def _decimal_fwd_own(s11, s12, s21, s22, p1, p2, d12) -> Decimal:
    """Theorem 3's sum capacity of a gaussian-6 channel at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        s11, s12, s21, s22, p1, p2, d12 = map(
            Decimal, (s11, s12, s21, s22, p1, p2, d12))
        psi = lambda x: (1 + x).ln() / (2 * Decimal(2).ln())
        a1, b1, n1 = s11 * s11 * p1, s12 * s12 * p2, Decimal(1)
        h21 = s21 + s22 * s11
        a2, b2, n2 = h21 * h21 * p1, (s22 * s12) ** 2 * p2, s22 * s22 + 1
        return min(psi(a1 / n1) + psi(b2 / (a2 + n2)) + d12,
                   psi((a1 + b1) / n1))


@pytest.mark.parametrize("gain", [1e4, 1e6, 1e8])
def test_fwd_own_at_high_snr_matches_decimal_reference(gain):
    spec = (gain, 1.0, gain, 0.75, 1.0, 1.0, 0.3)
    got = sum_capacity_fwd_own(CorrelatedGaussianIC("gaussian-6", *spec), force=True)
    want = float(_decimal_fwd_own(*spec))
    assert got == pytest.approx(want, rel=1e-12, abs=0)
