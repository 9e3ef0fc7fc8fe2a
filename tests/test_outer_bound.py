import numpy as np
import pytest

from icbounds import (
    BoundParams,
    GaussianIC,
    constraints_at,
    from_constraints,
    frontier_csv,
    full_system,
    gaussian_mi,
    includes,
    outer_region,
    psi,
    region_at,
    sum_rate_bound,
)
from icbounds import outer_bound as ob
from icbounds.errors import InputError
from icbounds.regions import FRONTIER_SAMPLES

from conftest import FlatUnionOracle, candidate_cell_max_sum, random_channel

FIG2 = GaussianIC(100, 60, 60, 100, 1.0, 1.0, 0.5, 0.5)
FIG3 = GaussianIC(60, 100, 100, 60, 1.0, 1.0, 0.5, 0.5)
FIG4 = GaussianIC(60, 100, 60, 100, 1.0, 1.0, 0.5, 0.5)

COEFF_PATTERN = [(1, 0), (1, 0), (0, 1), (0, 1)] + [(1, 1)] * 6 + [
    (2, 1), (1, 2), (2, 1), (1, 2), (2, 1), (1, 2)]


def test_constraint_shape_and_tags():
    cs = constraints_at(FIG2, BoundParams(0.3, 0.7))
    assert len(cs) == 16
    assert [(c.c1, c.c2) for c in cs] == COEFF_PATTERN
    assert [c.tag for c in cs] == [f"c{i:02d}" for i in range(1, 17)]


def test_params_validation():
    with pytest.raises(InputError):
        BoundParams(-0.1, 0.5)
    with pytest.raises(InputError):
        BoundParams(0.5, 1.2)


def test_zero_power_pins_rates():
    ch = GaussianIC(3, 2, 1, 4, 0.0, 0.0, 0.7, 0.9)
    cs = constraints_at(ch, BoundParams(0.4, 0.6))
    assert cs[1].rhs == 0.0  # both single-user looks vanish
    assert cs[3].rhs == 0.0
    assert region_at(ch, BoundParams(0.4, 0.6)).is_point()


def test_zero_gain_region_is_origin_despite_conference():
    ch = GaussianIC(0, 0, 0, 0, 2.0, 3.0, 1.0, 1.0)
    assert region_at(ch, BoundParams(0.5, 0.5)).is_point()
    assert outer_region(ch, grid_n=5).is_point()


def test_full_cooperation_sum_matches_determinant(rng):
    for _ in range(200):
        ch = random_channel(rng)
        c9 = constraints_at(ch, BoundParams(rng.uniform(), rng.uniform()))[8]
        h = np.array([[ch.s11, ch.s12], [ch.s21, ch.s22]])
        m = np.eye(2) + h @ np.diag([ch.p1, ch.p2]) @ h.T
        assert c9.rhs == pytest.approx(0.5 * np.log2(np.linalg.det(m)), abs=1e-9)


def test_preset_sum_bound_value():
    c9 = constraints_at(FIG2, BoundParams(0.0, 0.0))[8]
    assert c9.rhs == pytest.approx(psi(40987200.0), abs=1e-9)


def test_genie_sum_matches_oracle(rng):
    for _ in range(60):
        ch = random_channel(rng)
        cs = constraints_at(ch, BoundParams(rng.uniform(), rng.uniform()))
        sysf = full_system(ch)
        want = (gaussian_mi(sysf, ("x1", "x2"), ("y1",), ("g1",))
                + gaussian_mi(sysf, ("x1", "x2"), ("y2",), ("g2",))
                + ch.d12 + ch.d21)
        assert cs[9].rhs == pytest.approx(want, abs=1e-9)


def test_fresh_noise_genie_matches_oracle(rng):
    for _ in range(60):
        ch = random_channel(rng)
        cs = constraints_at(ch, BoundParams(rng.uniform(), rng.uniform()))
        sysf = full_system(ch)
        got15 = cs[14].rhs - psi(ch.s11**2 * ch.p1 + ch.s12**2 * ch.p2) - ch.d21
        want15 = gaussian_mi(sysf, ("x1", "x2"), ("y1", "y2"), ("gt2",))
        assert got15 == pytest.approx(want15, abs=1e-9)
        got16 = cs[15].rhs - psi(ch.s21**2 * ch.p1 + ch.s22**2 * ch.p2) - ch.d12
        want16 = gaussian_mi(sysf, ("x1", "x2"), ("y1", "y2"), ("gt1",))
        assert got16 == pytest.approx(want16, abs=1e-9)


def test_all_rhs_nonnegative(rng):
    for _ in range(300):
        ch = random_channel(rng, lo=0.0, hi=4.0)
        params = BoundParams(rng.uniform(), rng.uniform())
        assert all(c.rhs >= 0.0 for c in constraints_at(ch, params))


def test_indicator_boundary_uses_nonstrict_branch():
    # |s21| == |s11|: the combined-look branch applies and the guarded
    # difference terms vanish
    ch = GaussianIC(1.5, 0.7, 1.5, 2.0, 2.0, 1.0, 0.3, 0.4)
    cs = constraints_at(ch, BoundParams(0.6, 0.4))
    want5 = psi(ch.s21**2 * ch.p1 + ch.s22**2 * ch.p2) + ch.d12 + ch.d21
    assert cs[4].rhs == pytest.approx(want5, abs=1e-12)
    want11 = (psi(ch.s21**2 * ch.p1 + ch.s22**2 * ch.p2 / (ch.s12**2 * ch.p2 + 1))
              + psi(ch.s11**2 * ch.p1 + ch.s12**2 * ch.p2) + ch.d12 + 2 * ch.d21)
    assert cs[10].rhs == pytest.approx(want11, abs=1e-12)


def test_region_at_matches_frozen_vertices():
    reg = region_at(FIG3, BoundParams(0.5, 0.5))
    assert np.allclose(reg.r1, [0.0, 1.221712109], atol=1e-8)
    assert np.allclose(reg.r2, [1.221712109, 1.221712109], atol=1e-8)


def test_region_at_is_intersection_of_its_constraints(rng):
    for _ in range(20):
        ch = random_channel(rng)
        params = BoundParams(rng.uniform(), rng.uniform())
        reg = region_at(ch, params)
        other = from_constraints(constraints_at(ch, params))
        assert np.allclose(reg.r1, other.r1) and np.allclose(reg.r2, other.r2)


def test_outer_region_frontier_monotone():
    reg = outer_region(FIG4, grid_n=31)
    assert np.all(np.diff(reg.r2) <= 1e-12)


def test_outer_region_grows_with_conference(rng):
    for _ in range(10):
        base = random_channel(rng)
        lo = GaussianIC(base.s11, base.s12, base.s21, base.s22,
                        base.p1, base.p2, 0.5, 0.5)
        hi = GaussianIC(base.s11, base.s12, base.s21, base.s22,
                        base.p1, base.p2, 1.0, 1.0)
        r_lo = outer_region(lo, grid_n=11)
        r_hi = outer_region(hi, grid_n=11)
        assert includes(r_hi, r_lo, tol=1e-9)


def test_nested_grid_refinement_only_grows():
    r11 = outer_region(FIG2, grid_n=11)
    r21 = outer_region(FIG2, grid_n=21)  # 10 | 20: nested parameter grids
    xs = np.linspace(0.0, r21.r1_max, 700)
    diff = r21.frontier_at(xs) - r11.frontier_at(xs)
    assert diff.min() >= -1e-12


def test_symmetric_channel_symmetric_region():
    ch = GaussianIC(1.4, 0.8, 0.8, 1.4, 2.0, 2.0, 0.6, 0.6)
    for t in (0.0, 0.3, 1.0):
        reg = region_at(ch, BoundParams(t, t))
        for x, y in zip(reg.r1, reg.r2):
            assert reg.contains(float(y), float(x), tol=1e-9)
        assert reg.r1_max == pytest.approx(reg.r2_max, abs=1e-9)


def test_sum_rate_bound_zero_power():
    assert sum_rate_bound(GaussianIC(1, 1, 1, 1, 0, 0, 1, 1), grid_n=5) == 0.0


def test_sum_rate_bound_below_full_cooperation(rng):
    for _ in range(15):
        ch = random_channel(rng)
        c9 = constraints_at(ch, BoundParams(0, 0))[8]
        assert sum_rate_bound(ch, grid_n=11) <= c9.rhs + 1e-12


def test_sum_rate_bound_matches_region_samples():
    val = sum_rate_bound(FIG4, grid_n=31)
    reg = outer_region(FIG4, grid_n=31)
    xs = np.linspace(0.0, reg.r1_max, 2048)
    sampled = float(np.max(xs + reg.frontier_at(xs)))
    assert sampled <= val + 1e-9
    assert val - sampled < 5e-3  # exact per-cell max vs frontier sampling


def test_preset_r1_extent_closed_form():
    # the widest column survives at (alpha, beta) = (0, 1) where both
    # single-user alternatives telescope to the two-look bound
    reg = outer_region(FIG2, grid_n=21)
    assert reg.r1_max == pytest.approx(psi((100**2 + 60**2) * 1.0), abs=1e-9)


def test_grid_validation():
    with pytest.raises(InputError):
        outer_region(FIG2, grid_n=1)
    with pytest.raises(InputError):
        sum_rate_bound(FIG2, grid_n=0)


# Channels for the evaluator-vs-oracle check beyond the presets and random
# draws: s12 = 0 (no alpha cliffs), zero gain (no cliffs at all), zero power,
# |s21| = |s11| or |s12| = |s22| with the other cross link weak or strong,
# and s22 = 0 or s11 = 0 with a parameter-grid SNR whose warped last point
# would round to 1 + 2**-52 (1 - beta or 1 - alpha then goes negative).
EDGE_CHANNELS = [
    GaussianIC(0.5, 2.2, 2.3, 0.0, 4.8, 3.1, 1.4, 0.8),
    GaussianIC(0.0, 2.3, 2.2, 0.5, 3.1, 4.8, 0.8, 1.4),
    GaussianIC(1.5, 0.0, 0.8, 2.0, 1.0, 1.0, 0.3, 0.2),
    GaussianIC(0, 0, 0, 0, 2.0, 3.0, 1.0, 1.0),
    GaussianIC(3, 2, 1, 4, 0.0, 0.0, 0.7, 0.9),
    GaussianIC(1.5, 0.7, 1.5, 2.0, 2.0, 1.0, 0.3, 0.4),
    GaussianIC(1.5, 2.5, 1.5, 2.0, 2.0, 1.0, 0.3, 0.4),
    GaussianIC(2.0, 1.5, 0.7, 1.5, 1.0, 2.0, 0.4, 0.3),
    GaussianIC(0.5, 1.5, 0.7, 1.5, 1.0, 2.0, 0.4, 0.3),
]


def _assert_matches_oracle(ch, grid_n, rng):
    want = FlatUnionOracle(ch, grid_n)
    got = ob._UnionEvaluator(ch, grid_n)
    assert got.r1_cap == want.r1_cap
    xs = np.concatenate([np.linspace(0.0, want.r1_cap, 512),
                         rng.uniform(-0.2, 1.2, 200) * max(want.r1_cap, 1.0)])
    assert np.array_equal(got.frontier(xs), want.frontier(xs))
    assert got.max_sum() == want.max_sum()


@pytest.mark.parametrize("grid_n", [21, 201])
@pytest.mark.parametrize("ch", [FIG2, FIG3, FIG4], ids=["fig2", "fig3", "fig4"])
def test_evaluator_matches_flat_oracle_presets(ch, grid_n, rng):
    _assert_matches_oracle(ch, grid_n, rng)


def test_evaluator_matches_flat_oracle_random_and_edge(rng):
    for ch in [random_channel(rng) for _ in range(20)] + EDGE_CHANNELS:
        _assert_matches_oracle(ch, 11, rng)


def test_rhs_entries_depend_on_one_parameter(rng):
    al, be = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)
    for ch in [random_channel(rng) for _ in range(50)] + EDGE_CHANNELS:
        rhs = ob._rhs_table(ch, al[:, None], be[None, :])
        assert len(rhs) == 16
        for r in rhs:
            assert np.shape(r) in ((7, 1), (1, 5))


def test_evaluator_rejects_mixed_parameter_rhs(monkeypatch):
    table = ob._rhs_table

    def mixed(ch, alpha, beta):
        rhs = table(ch, alpha, beta)
        rhs[6] = rhs[6] + 0.0 * alpha  # now shaped (n_alpha, n_beta)
        return rhs

    monkeypatch.setattr(ob, "_rhs_table", mixed)
    with pytest.raises(RuntimeError, match="c07"):
        ob._UnionEvaluator(FIG2, 5)


def test_param_grid_endpoints_exact():
    for snr in (0.0, 1e-12, 0.5, 25.63, 1e4, 1e8):
        for n in (2, 11, 201):
            grid = ob._param_grid(n, snr)
            assert grid[0] == 0.0 and grid[-1] == 1.0
            assert np.all(np.diff(grid) > 0)


def _assert_cells_match_candidates(cells):
    got = ob._cell_max_sum(*cells)
    want = candidate_cell_max_sum(*cells)
    assert got.shape == want.shape
    ulps = 4 * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= ulps)


def test_cell_max_sum_matches_candidate_search_random(rng):
    # Cells as the evaluator forms them, min(alpha side, beta side), with
    # sides drawn from small integers (ties), zeros and +inf (a side with no
    # constraint of the class), and also from continuous draws.
    n = 20_000
    for draw in ("ties", "uniform"):
        if draw == "ties":
            sides = rng.integers(0, 6, size=(2, 5, n)).astype(float)
        else:
            sides = rng.uniform(0.0, 10.0, size=(2, 5, n))
        sides[rng.random(size=sides.shape) < 0.1] = 0.0
        inf = rng.random(size=(5, n)) < 0.3
        sides[0][inf] = np.inf
        sides[1][~inf & (rng.random(size=(5, n)) < 0.3)] = np.inf
        _assert_cells_match_candidates(np.minimum(sides[0], sides[1]))


@pytest.mark.parametrize("ch", [FIG2, FIG3, FIG4] + EDGE_CHANNELS)
def test_cell_max_sum_matches_candidate_search_every_cell(ch):
    ev = ob._UnionEvaluator(ch, ob.DEFAULT_GRID)
    for i, j in ev.blocks:
        cells = np.minimum(ev.sides[i][:, :, None], ev.sides[j][:, None, :])
        _assert_cells_match_candidates(cells)


def test_cell_max_sum_matches_cell_polytope(rng):
    classes = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    for _ in range(200):
        ch = random_channel(rng, lo=0.0, hi=4.0)
        params = BoundParams(rng.uniform(), rng.uniform())
        cs = constraints_at(ch, params)
        cell = [min(c.rhs for c in cs if (c.c1, c.c2) == k) for k in classes]
        got = float(ob._cell_max_sum(*np.array(cell)))
        assert got == pytest.approx(region_at(ch, params).max_sum(), abs=1e-12)


def _frontier_fn_csv(reg):
    xs = np.linspace(0.0, reg.r1_max, FRONTIER_SAMPLES)
    ys = reg.frontier_at(xs)
    return "r1,r2\n" + "".join(f"{x:.9g},{y:.9g}\n" for x, y in zip(xs, ys))


@pytest.mark.parametrize("grid_n", [201, 11, 2])
def test_frontier_csv_is_the_frontier_on_the_csv_grid(grid_n, rng):
    chans = [FIG2, FIG3, FIG4] + EDGE_CHANNELS
    chans += [random_channel(rng) for _ in range(10 if grid_n == 201 else 30)]
    for ch in chans:
        reg = outer_region(ch, grid_n=grid_n)
        if reg.r1_max > 0:
            assert frontier_csv(reg) == _frontier_fn_csv(reg)
        else:
            assert frontier_csv(reg) == "r1,r2\n0,0\n"


class _LineEvaluator:
    """Stand-in evaluator whose frontier 1 - x crosses 0 before r1_cap."""

    r1_cap = 2.0

    def __init__(self, shift=0.0):
        self.shift = shift

    def frontier(self, x):
        return 1.0 - self.shift - np.asarray(x, dtype=float)


def test_outer_region_resamples_a_frontier_ending_below_zero(monkeypatch):
    monkeypatch.setattr(ob, "_evaluator", lambda ch, grid_n: _LineEvaluator())
    reg = outer_region(FIG2, grid_n=5)
    last = np.linspace(0.0, 2.0, FRONTIER_SAMPLES)[255]  # last x with 1 - x >= 0
    assert reg.r1_max == last and reg.r1.size == FRONTIER_SAMPLES
    assert np.array_equal(reg.r1, np.linspace(0.0, last, FRONTIER_SAMPLES))
    assert frontier_csv(reg) == _frontier_fn_csv(reg)
    monkeypatch.setattr(ob, "_evaluator", lambda ch, grid_n: _LineEvaluator(1.5))
    assert outer_region(FIG2, grid_n=5).is_point()
