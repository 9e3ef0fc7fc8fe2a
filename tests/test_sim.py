import itertools
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icbounds import CellPartition, DiscreteIC, SimConfig, simulate
from icbounds.errors import InputError, ResourceLimitError
from icbounds.sim import _Precomp, _run_trial

from conftest import orthogonal_channel, xor_copy_channel


def test_partition_degenerate_ends():
    # exponents n*R = 3 and n*R12 = 3 (every cell a singleton) or 0 (one cell)
    singletons = CellPartition.for_rate(1, 3.0, 3.0)
    assert (singletons.cell_of(5), singletons.kappa_of(5)) == (5, 0)
    one_cell = CellPartition.for_rate(1, 3.0, 0.0)
    assert (one_cell.cell_of(5), one_cell.kappa_of(5)) == (0, 5)
    assert list(one_cell.cell_members(0)) == list(range(8))


def test_partition_example():
    part = CellPartition.for_rate(1, 4.0, 2.0)
    assert (part.cell_of(9), part.kappa_of(9)) == (2, 1)
    assert list(part.cell_members(2)) == [8, 9, 10, 11]


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 2**14 - 1))
@settings(max_examples=200, deadline=None)
def test_partition_bijection(n_rate, n_conf, m):
    n_conf = min(n_conf, n_rate)
    total = 2**n_rate
    m = m % total
    part = CellPartition.for_rate(1, float(n_rate), float(n_conf))
    cell, kappa = part.cell_of(m), part.kappa_of(m)
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
            c, k = part.cell_of(m), part.kappa_of(m)
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
