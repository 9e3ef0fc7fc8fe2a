import itertools
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icbounds import CellPartition, DiscreteIC, SimConfig, simulate
from icbounds.errors import InputError, ResourceLimitError
from icbounds.regions import chunks
from icbounds.sim import (
    DEFAULT_MESSAGE_CAP,
    _choice_table,
    _draw_codebook,
    _pair_loglik,
    _Precomp,
    _run_trial,
)

from conftest import orthogonal_channel, pair_loglik_columns, xor_copy_channel
from reference import draw_codebook_rowwise, run_trial_two_branch


def _within(part, m):
    """m's index inside its cell."""
    return m - part.cell_of(m) * part.per_cell


def test_partition_degenerate_ends():
    # exponents n*R = 3 and n*R12 = 3 (every cell a singleton) or 0 (one cell)
    singletons = CellPartition.for_rate(1, 3.0, 3.0)
    assert (singletons.cell_of(5), _within(singletons, 5)) == (5, 0)
    one_cell = CellPartition.for_rate(1, 3.0, 0.0)
    assert (one_cell.cell_of(5), _within(one_cell, 5)) == (0, 5)
    assert list(one_cell.cell_members(0)) == list(range(8))


def test_partition_example():
    part = CellPartition.for_rate(1, 4.0, 2.0)
    assert (part.cell_of(9), _within(part, 9)) == (2, 1)
    assert list(part.cell_members(2)) == [8, 9, 10, 11]


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 2**14 - 1))
@settings(max_examples=200, deadline=None)
def test_partition_bijection(n_rate, n_conf, m):
    n_conf = min(n_conf, n_rate)
    total = 2**n_rate
    m = m % total
    part = CellPartition.for_rate(1, float(n_rate), float(n_conf))
    cell, kappa = part.cell_of(m), _within(part, m)
    per_cell = 2 ** (n_rate - n_conf)
    assert part.message_count == total and part.per_cell == per_cell
    assert m == cell * per_cell + kappa
    assert 0 <= kappa < per_cell
    assert 0 <= cell < 2**n_conf
    assert m in part.cell_members(cell)


def test_cell_partition_budget():
    for n, rate, cap in [(8, 0.65, 0.5), (12, 0.43, 0.21), (4, 1.0, 2.0)]:
        part = CellPartition.for_rate(n, rate, cap)
        assert part.cell_count <= 2.0 ** (n * cap) + 1e-9
        assert part.cell_count * part.per_cell >= part.message_count
        # bijection over the whole message set
        for m in range(part.message_count):
            c, k = part.cell_of(m), _within(part, m)
            assert m == c * part.per_cell + k
            assert m in part.cell_members(c)


def test_dyadic_partition_is_exact():
    part = CellPartition.for_rate(4, 1.0, 0.5)
    assert (part.message_count, part.cell_count, part.per_cell) == (16, 4, 4)
    assert part.cell_count * part.per_cell == part.message_count


def test_noiseless_orthogonal_channel_decodes_perfectly():
    cfg = SimConfig(orthogonal_channel(), n=8, r1=0.5, r2=0.5, d12=0.0,
                    scheme="thm2", trials=400, seed=3)
    res = simulate(cfg)
    assert res.err1 == 0.0 and res.err2 == 0.0
    assert res.effective_rates == (0.5, 0.5)


def test_overloaded_rate_forces_collisions():
    # 2^{12} messages on 2^8 binary sequences must collide
    cfg = SimConfig(orthogonal_channel(), n=8, r1=1.5, r2=0.5, d12=0.0,
                    scheme="thm2", trials=300, seed=3)
    res = simulate(cfg)
    assert res.err1 >= 0.2
    assert res.effective_rates[0] == pytest.approx(1.5)


def test_seed_determinism():
    cfg = SimConfig(xor_copy_channel(), n=8, r1=0.25, r2=0.25, d12=0.5,
                    scheme="thm2", trials=150, seed=17)
    assert simulate(cfg) == simulate(cfg)
    other = SimConfig(xor_copy_channel(), n=8, r1=0.25, r2=0.25, d12=0.5,
                      scheme="thm2", trials=150, seed=18)
    assert simulate(other) != simulate(cfg)


def test_trial_outcomes_independent_of_order():
    cfg = SimConfig(xor_copy_channel(), n=6, r1=0.3, r2=0.3, d12=0.4,
                    scheme="thm2", trials=64, seed=9)
    pre = _Precomp(cfg)
    forward = [_run_trial(cfg, pre, t) for t in range(cfg.trials)]
    backward = [_run_trial(cfg, pre, t) for t in reversed(range(cfg.trials))]
    assert forward == backward[::-1]
    res = simulate(cfg)
    assert res.err1 == pytest.approx(sum(e1 for e1, _ in forward) / cfg.trials)


def test_conference_budget_respected():
    cfg = SimConfig(xor_copy_channel(), n=10, r1=0.7, r2=0.6, d12=0.35,
                    scheme="thm2", trials=1, seed=0)
    res = simulate(cfg)
    assert res.cell_count <= 2.0 ** (cfg.n * cfg.d12) + 1e-9
    assert res.conference_bits_per_use <= cfg.d12 + 1e-9


def test_interference_as_noise_scheme():
    # y1 is a clean look at x1, y2 = x1 xor x2: receiver 1 decodes alone and
    # forwards its cell; receiver 2 then decodes both
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1 ^ x2, x1, x2] = 1.0
    cfg = SimConfig(DiscreteIC(w), n=8, r1=0.25, r2=0.5, d12=0.5,
                    scheme="thm4", trials=400, seed=2)
    res = simulate(cfg)
    assert res.err1 == 0.0
    assert res.err2 <= 0.05


def test_message_cap():
    with pytest.raises(ResourceLimitError):
        simulate(SimConfig(orthogonal_channel(), n=16, r1=1.0, r2=0.1,
                           d12=0.0, trials=1, seed=0, message_cap=1024))


def test_config_validation():
    ch = orthogonal_channel()
    with pytest.raises(InputError):
        SimConfig(ch, n=0, r1=0.5, r2=0.5, d12=0.0)
    with pytest.raises(InputError):
        SimConfig(ch, n=4, r1=-0.5, r2=0.5, d12=0.0)
    with pytest.raises(InputError):
        SimConfig(ch, n=4, r1=0.5, r2=0.5, d12=0.0, scheme="thm9")
    with pytest.raises(InputError):
        SimConfig(ch, n=4, r1=0.5, r2=0.5, d12=0.0, p1=np.array([0.5, 0.6]))


def test_result_serialization():
    cfg = SimConfig(orthogonal_channel(), n=4, r1=0.5, r2=0.5, d12=0.25,
                    trials=20, seed=1)
    doc = asdict(simulate(cfg))
    assert doc["trials"] == 20 and doc["seed"] == 1
    assert 0.0 <= doc["err1"] <= 1.0 and 0.0 <= doc["err2"] <= 1.0
    assert list(doc["nominal_rates"]) == [0.5, 0.5]


def test_error_decays_with_blocklength():
    ch = xor_copy_channel()
    errs = []
    for n in (4, 8, 12):
        res = simulate(SimConfig(ch, n=n, r1=0.25, r2=0.25, d12=0.5,
                                 scheme="thm2", trials=2500, seed=31))
        errs.append(res)
        assert res.effective_rates == (0.25, 0.25)
    for a, b in zip(errs, errs[1:]):
        assert b.err1 <= a.err1 + a.err1_ci95 + b.err1_ci95


# ------------------------------------------ hot routines against oracles

def _log_w(rng, ny, na, nb, zero_frac):
    w = rng.gamma(1.0, size=(ny, na, nb))
    w[rng.random(w.shape) < zero_frac] = 0.0
    w[0] += 1e-3
    w /= w.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore"):
        return np.log(w)


# (ny, |X_a|, |X_b|, m_a, m_b, n, share of zero transitions)
LOGLIK_CASES = {
    "binary": (2, 2, 2, 16, 16, 8, 0.0),
    "ternary": (3, 3, 3, 27, 9, 6, 0.0),
    "binary-zeros": (2, 2, 2, 32, 8, 10, 0.4),
    "ternary-zeros": (3, 3, 3, 12, 40, 5, 0.5),
    "mixed": (3, 2, 3, 64, 5, 12, 0.2),
    "tall": (2, 2, 2, 256, 3, 16, 0.0),
    "one-row": (2, 3, 2, 1, 7, 4, 0.3),
    # m_a = 1 at n >= 16: a reduce over the gathered (n, m_b, 1) stack
    # would add these pairwise
    "one-row-long": (2, 2, 2, 1, 9, 24, 0.0),
    "one-row-long-ternary": (3, 3, 3, 1, 27, 40, 0.2),
    # 8,192 cells a step: 8 steps a block, so 20 steps take 3 blocks
    "blocks": (2, 2, 2, 4096, 3, 20, 0.2),
}


@pytest.mark.parametrize("case", sorted(LOGLIK_CASES))
def test_pair_loglik_bit_equal_to_column_loop(case):
    ny, na, nb, m_a, m_b, n, zeros = LOGLIK_CASES[case]
    if case == "blocks":
        assert len(chunks(n, nb * m_a)) == 3
    rng = np.random.default_rng(sorted(LOGLIK_CASES).index(case))
    saw_neginf = False
    for _ in range(20):
        log_w = _log_w(rng, ny, na, nb, zeros)
        y = rng.integers(ny, size=n)
        cb_a = rng.integers(na, size=(m_a, n))
        cb_b = rng.integers(nb, size=(m_b, n))
        # a cell-member subset of either codebook, as the decoders pass
        lo = int(rng.integers(m_b))
        members = np.arange(lo, min(lo + 3, m_b))
        for a, b in ((cb_a, cb_b), (cb_a, cb_b[members]), (cb_a[members % m_a], cb_b)):
            got = _pair_loglik(log_w, y, a, b)
            want = pair_loglik_columns(log_w, y, a, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.argmax(got) == np.argmax(want)
            saw_neginf |= bool(np.isneginf(got).any())
    assert saw_neginf == bool(zeros)


def test_pair_loglik_ties_resolve_in_pair_order():
    # log w[y, a, b] ignores b, so every b of the best a ties and the
    # first one wins; y = 0 rules out a = 1, y = 1 favours it
    log_w = np.zeros((2, 2, 2))
    log_w[0, 1] = -np.inf
    log_w[1, 0] = -690.0
    y = np.array([0, 1, 0, 1])
    cb_a = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0]])
    cb_b = np.array([[1, 0, 1, 0], [0, 0, 1, 1]])
    got = _pair_loglik(log_w, y, cb_a, cb_b)
    assert np.array_equal(got, pair_loglik_columns(log_w, y, cb_a, cb_b))
    assert np.argmax(got) == 2 and got[1, 0] == got[1, 1]


# (pmf, count, n, rows all distinct after every seed's draw): forced
# duplicates in small spaces, some left when the resampling passes run out
# on a skewed pmf; no resampling above half the space; a zero-mass symbol;
# binary n = 80 codebooks, whose integer key sum_t x_t 2^t would wrap
# modulo 2^64
CODEBOOK_CASES = {
    "binary-half-space": ([0.5, 0.5], 8, 4, True),
    "binary-crowded": ([0.9, 0.1], 30, 6, False),
    "binary-overloaded": ([0.5, 0.5], 12, 4, False),
    "ternary": ([0.2, 0.5, 0.3], 40, 4, True),
    "ternary-zero-mass": ([0.6, 0.0, 0.4], 32, 6, True),
    "ternary-zero-mass-overloaded": ([0.5, 0.0, 0.5], 12, 4, False),
    "binary-n80": ([0.5, 0.5], 64, 80, True),
    "binary-n80-skewed": ([0.999, 0.001], 64, 80, False),
    "single": ([0.5, 0.5], 1, 3, True),
}


@pytest.mark.parametrize("case", sorted(CODEBOOK_CASES))
def test_draw_codebook_matches_rowwise_unique(case):
    pmf, count, n, distinct = CODEBOOK_CASES[case]
    pmf = np.asarray(pmf)
    all_distinct = True
    for seed in range(25):
        rng_new = np.random.Generator(np.random.Philox(key=[seed, 5]))
        rng_old = np.random.Generator(np.random.Philox(key=[seed, 5]))
        got = _draw_codebook(rng_new, count, n, *_choice_table(pmf))
        want = draw_codebook_rowwise(rng_old, count, n, pmf)
        assert np.array_equal(got, want)
        # the generator was consumed identically
        assert rng_new.integers(2**62) == rng_old.integers(2**62)
        all_distinct &= np.unique(got, axis=0).shape[0] == count
    assert all_distinct == distinct


# (pmf, support): uniform, skewed and zero-mass pmfs, and pmfs whose sum is
# off 1 by up to 1e-9, as SimConfig accepts
CHOICE_PMFS = {
    "uniform-binary": ([0.5, 0.5], 2),
    "uniform-5": ([0.2] * 5, 5),
    "skewed": ([0.999, 0.001], 2),
    "skewed-ternary": ([0.7, 0.2, 0.1], 3),
    "zero-mass-first": ([0.0, 0.3, 0.7], 2),
    "zero-mass-middle": ([0.6, 0.0, 0.4], 2),
    "point-mass": ([0.0, 1.0, 0.0], 1),
    "sum-over": ([0.5 + 5e-10, 0.5 + 5e-10], 2),
    "sum-under": ([0.2, 0.5, 0.3 - 1e-9], 3),
    "sum-under-zero-mass": ([0.25, 0.0, 0.75 - 1e-9], 2),
}


@pytest.mark.parametrize("case", sorted(CHOICE_PMFS))
def test_cdf_draw_consumes_the_stream_of_choice(case):
    pmf, support = CHOICE_PMFS[case]
    pmf = np.asarray(pmf)
    cdf, got_support = _choice_table(pmf)
    assert got_support == support
    # more than half the support's sequences each: one draw, no resampling
    for count, n in ((7, 1), (40, 2), (300, 3)):
        assert 2 * count > support ** n
        for seed in range(20):
            rng_new = np.random.Generator(np.random.Philox(key=[seed, 9]))
            rng_old = np.random.Generator(np.random.Philox(key=[seed, 9]))
            got = _draw_codebook(rng_new, count, n, cdf, support)
            want = rng_old.choice(pmf.size, size=(count, n), p=pmf)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert rng_new.integers(2**62) == rng_old.integers(2**62)


class _ScriptedRng:
    """Returns ``first`` from the first ``random`` call, then fails."""

    def __init__(self, first):
        self.first = first

    def random(self, size):
        first, self.first = self.first, None
        assert first is not None, "a distinct row was resampled"
        assert first.shape == size
        return first


def test_draw_codebook_keeps_rows_an_integer_key_would_merge():
    # rows that differ only at t = 0, whose weight 2^79 is 0 modulo 2^64
    rows = np.random.default_rng(3).integers(2, size=(6, 80))
    rows[1] = rows[0]
    rows[1, 0] ^= 1
    weights = 2 ** np.arange(79, -1, -1, dtype=np.uint64)
    keys = rows.astype(np.uint64) @ weights
    assert keys[0] == keys[1]
    # uniforms 0.25 and 0.75 draw symbols 0 and 1 from [0.5, 0.5]
    uniforms = 0.25 + 0.5 * rows
    got = _draw_codebook(_ScriptedRng(uniforms), 6, 80,
                         *_choice_table(np.array([0.5, 0.5])))
    assert np.array_equal(got, rows)


def _resamples(count, support, n):
    """Whether _draw_codebook resamples a codebook of identical rows."""
    calls = []

    class Rng:
        def random(self, size):
            calls.append(size)
            return np.zeros(size)

    pmf = np.zeros(support + 1)
    pmf[1:] = 1 / support  # one zero entry: the rule counts the support
    _draw_codebook(Rng(), count, n, *_choice_table(pmf))
    return len(calls) > 1


def test_resampling_rule_matches_the_float_rule():
    # every count a codebook can have (at most the message cap) decides as
    # count <= float(k) ** n / 2 did, around k^n / 2 and at both ends
    for k, n in itertools.product(range(1, 5), range(1, 13)):
        half = k**n // 2
        counts = {2, 3, half - 1, half, half + 1, k**n, DEFAULT_MESSAGE_CAP}
        for count in sorted(c for c in counts if 2 <= c <= DEFAULT_MESSAGE_CAP):
            assert _resamples(count, k, n) == (count <= float(k) ** n / 2), \
                (k, n, count)


def test_resampling_rule_past_the_float_range():
    # 2^1024 and 3^700 sequences: a float power would overflow
    assert _resamples(2, 2, 1024)
    assert _resamples(128, 3, 700)


# ------------------------------------------ one decoding path against the oracle

def _noisy_channel(seed, k, zero_frac):
    """y1 = x1 and y2 = x1 + x2 mod k, each output pair redrawn at random
    with probability 0.15; a share ``zero_frac`` of the random law is 0."""
    rng = np.random.default_rng(seed)
    noise = rng.gamma(1.0, size=(k,) * 4)
    noise[rng.random(noise.shape) < zero_frac] = 0.0
    noise[0, 0] += 1e-3  # every input pair keeps some output mass
    noise /= noise.sum(axis=(0, 1), keepdims=True)
    clean = np.zeros((k,) * 4)
    for x1, x2 in itertools.product(range(k), repeat=2):
        clean[x1, (x1 + x2) % k, x1, x2] = 1.0
    return DiscreteIC(0.85 * clean + 0.15 * noise)


# (channel, n, rate of both messages, d12, p1, p2, trials): one cell, every
# cell a singleton, a last cell of 2 where the others hold 4 (18 messages),
# a zero-mass input symbol of either user, and m = 256 codebooks
TRIAL_CASES = {
    "binary": ("binary", 8, 0.5, 0.25, None, None, 40),
    "binary-one-cell": ("binary", 8, 0.5, 0.0, None, None, 40),
    "binary-singletons": ("binary", 6, 0.5, 0.5, None, None, 40),
    "ternary": ("ternary", 5, 0.8, 0.4, None, None, 30),
    "ternary-uneven-cell": ("ternary", 6, 0.7, 0.4, None, None, 30),
    "ternary-singletons": ("ternary", 4, 0.9, 2.0, None, None, 30),
    "ternary-p1-zero-mass": ("ternary", 6, 0.6, 0.3, [0.5, 0.0, 0.5], None, 30),
    "ternary-p2-zero-mass": ("ternary", 6, 0.6, 0.3, None, [0.0, 0.3, 0.7], 30),
    "binary-m256": ("binary", 16, 0.5, 0.25, None, None, 4),
}
TRIAL_CHANNELS = {"binary": (2, 0.0), "ternary": (3, 0.7)}


@pytest.mark.parametrize("scheme", ["thm2", "thm4"])
@pytest.mark.parametrize("case", sorted(TRIAL_CASES))
def test_run_trial_matches_two_branch_oracle(case, scheme):
    family, n, rate, d12, p1, p2, trials = TRIAL_CASES[case]
    k, zeros = TRIAL_CHANNELS[family]
    ch = _noisy_channel(sorted(TRIAL_CASES).index(case), k, zeros)
    cfg = SimConfig(ch, n=n, r1=rate, r2=rate, d12=d12, scheme=scheme,
                    trials=trials, seed=7, p1=p1, p2=p2)
    pre = _Precomp(cfg)
    part = pre.part
    if case.endswith("one-cell"):
        assert part.cell_count == 1
    if case.endswith("singletons"):
        assert part.per_cell == 1
    if case.endswith("uneven-cell"):
        assert part.cell_count * part.per_cell > part.message_count
    if case.endswith("m256"):
        assert (pre.m1, pre.m2) == (256, 256)
    got = [_run_trial(cfg, pre, t) for t in range(trials)]
    assert got == [run_trial_two_branch(cfg, pre, t) for t in range(trials)]
