import ast
import inspect
import textwrap

import numpy as np
import pytest

from icbounds import (GaussianIC, capacity_region_one_sided, frontier_csv,
                      outer_region, psi, sum_rate_bound)
from icbounds import outer_bound as ob
from icbounds import regions
from icbounds.errors import InputError
from icbounds.regions import FRONTIER_SAMPLES

from conftest import FlatUnionOracle, candidate_cell_max_sum, random_channel
from reference import (
    BoundParams,
    constraints_at,
    contains,
    from_constraints,
    full_system,
    gaussian_mi,
    includes,
    is_point,
    reference_sides,
    region_at,
    rhs_reference,
)

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
    assert is_point(region_at(ch, BoundParams(0.4, 0.6)))


def test_zero_gain_region_is_origin_despite_conference():
    ch = GaussianIC(0, 0, 0, 0, 2.0, 3.0, 1.0, 1.0)
    assert is_point(region_at(ch, BoundParams(0.5, 0.5)))
    assert is_point(outer_region(ch, grid_n=5))


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
            assert contains(reg, float(y), float(x), tol=1e-9)
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


@pytest.mark.parametrize("grid_n", [11, 201])
def test_bound_is_tight_on_the_one_sided_capacity_family(grid_n):
    # the reverse of acceptance criterion 7, on its 100 corollary-4
    # channels (s12 = 0, |s21| >= |s11|, d21 = 0): the bound is the
    # capacity region there, not just a superset of it
    rng = np.random.default_rng(107)
    for _ in range(100):
        s11 = rng.uniform(0.2, 2.0)
        ch = GaussianIC(s11, 0.0, s11 * rng.uniform(1.0, 2.5),
                        rng.uniform(0.2, 2.0), rng.uniform(0.3, 4.0),
                        rng.uniform(0.3, 4.0), rng.uniform(0, 1), 0.0)
        cap = capacity_region_one_sided(ch)
        reg = outer_region(ch, grid_n=grid_n)
        assert reg.r1_max == pytest.approx(cap.r1_max, rel=0.0, abs=1e-12)
        xs = np.union1d(np.union1d(reg.r1, cap.r1),
                        np.linspace(0.0, cap.r1_max, 4001))
        xs = xs[xs <= min(reg.r1_max, cap.r1_max)]
        assert np.max(np.abs(reg.frontier_at(xs) - cap.frontier_at(xs))) <= 1e-12
        assert sum_rate_bound(ch, grid_n=grid_n) == cap.max_sum()


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
# s22 = 0 or s11 = 0 with a parameter-grid SNR whose warped last point
# would round to 1 + 2**-52 (1 - beta or 1 - alpha then goes negative), and
# a zero-power channel whose largest R1 bound m10 sits one ulp above a sum
# bound (the frontier at max m10 is -2.2e-16).
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
    GaussianIC(4.816560779010604, 0.0, 0.3131529499425644, 3.9909213354852264,
               0.3733439184896898, 0.0, 0.0, 1.8667432732343905),
]


def _oracle_abscissae(r1_cap, rng):
    """512 even abscissae up to r1_cap and 200 random ones, some outside."""
    return np.concatenate([np.linspace(0.0, r1_cap, 512),
                           rng.uniform(-0.2, 1.2, 200) * max(r1_cap, 1.0)])


def _assert_matches_oracle(ch, grid_n, rng):
    want = FlatUnionOracle(ch, grid_n)
    got = ob._UnionEvaluator(ch, grid_n)
    assert got.r1_cap == want.r1_cap
    xs = _oracle_abscissae(want.r1_cap, rng)
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
        rhs = rhs_reference(ch, al[:, None], be[None, :])
        assert len(rhs) == 16
        for r in rhs:
            assert np.shape(r) in ((7, 1), (1, 5))
        a, b = ob._side_bounds(ch, al, be)
        assert a.shape == (5, 7) and b.shape == (5, 5)


def _signed_channel(rng):
    """Gains of either sign, a gain or a power zero about one time in five."""
    s = rng.uniform(-3.0, 3.0, size=4)
    s[rng.random(4) < 0.2] = 0.0
    p = rng.uniform(0.1, 5.0, size=2)
    p[rng.random(2) < 0.2] = 0.0
    return GaussianIC(*s, *p, *rng.uniform(0.0, 1.0, size=2))


def _assert_sides_are_reference(ch, alpha, beta):
    got, want = ob._side_bounds(ch, alpha, beta), reference_sides(ch, alpha, beta)
    for side, g, w in zip(("alpha", "beta"), got, want):
        assert g.shape == w.shape, side
        for row, gr, wr in zip(("m10", "m01", "m11", "m21", "m12"), g, w):
            assert np.array_equal(gr, wr), f"{side} {row}"


def test_side_bounds_match_frozen_reference(rng):
    chans = [FIG2, FIG3, FIG4] + EDGE_CHANNELS
    chans += [_signed_channel(rng) for _ in range(200)]
    branches = {(abs(ch.s21) >= abs(ch.s11), abs(ch.s12) >= abs(ch.s22))
                for ch in chans}
    assert {b[0] for b in branches} == {b[1] for b in branches} == {False, True}
    assert any(0.0 in (ch.s11, ch.s12, ch.s21, ch.s22) for ch in chans)
    assert any(0.0 in (ch.p1, ch.p2) for ch in chans)
    for ch in chans:
        a, b, c, d, _ = ob._squares(ch)
        al_c, be_c = ob._cliffs(a * ch.p1, b * ch.p2, c * ch.p1)
        al = np.concatenate([[0.0, 1.0], ob._param_grid(11, (b + d) * ch.p2), al_c])
        be = np.concatenate([[0.0, 1.0], ob._param_grid(11, (a + c) * ch.p1), be_c])
        _assert_sides_are_reference(ch, al, be)
        _assert_sides_are_reference(ch, rng.uniform(size=3), rng.uniform(size=2))
        # scalar parameters give one-column tables; the reference tells the
        # sides apart by shape, so it runs on two alphas
        for x, y in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), tuple(rng.uniform(size=2))):
            got = ob._side_bounds(ch, x, y)
            want = reference_sides(ch, [x, 0.5], y)
            assert np.array_equal(got[0], want[0][:, :1])
            assert np.array_equal(got[1], want[1])


def test_side_bounds_write_each_psi_term_once():
    tree = ast.parse(inspect.getsource(ob))
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "_side_bounds")
    args = [ast.dump(ast.Tuple(elts=n.args, ctx=ast.Load()))
            for n in ast.walk(fn)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "psi"]
    assert len(args) <= 25
    assert len(set(args)) == len(args), "a psi term is written twice"


def _side_bounds_with(old, new):
    """``_side_bounds`` compiled from its source with ``old`` replaced by ``new``."""
    src = textwrap.dedent(inspect.getsource(ob._side_bounds))
    assert src.count(old) == 1
    namespace = dict(vars(ob))
    exec(src.replace(old, new), namespace)
    return namespace["_side_bounds"]


def test_evaluator_rejects_mixed_parameter_rhs(monkeypatch):
    ob._UnionEvaluator(FIG2, 5)
    mutants = [
        _side_bounds_with("least((k12, k14, k16))",
                          "least((k12, k14, k16, k7))"),  # beta into alpha
        _side_bounds_with("least((k11, k13))", "least((k11, k13, k4))"),  # alpha into beta
    ]
    for mutant in mutants:
        monkeypatch.setattr(ob, "_side_bounds", mutant)
        with pytest.raises(ValueError, match="broadcast"):
            ob._UnionEvaluator(FIG2, 5)


def test_param_grid_endpoints_exact():
    for snr in (0.0, 1e-12, 0.5, 25.63, 1e4, 1e8):
        for n in (2, 11, 201):
            grid = ob._param_grid(n, snr)
            assert grid[0] == 0.0 and grid[-1] == 1.0
            assert np.all(np.diff(grid) > 0)


def _assert_hits_levels(values, lo, hi):
    want = np.linspace(lo, hi, ob.CLIFF_LEVELS)
    miss = np.abs(np.sort(values) - want).max()
    assert miss <= 1e-12, miss


def test_cliff_families_hit_their_levels(rng):
    # received powers a = s11^2 p1, b = s12^2 p2, c = s21^2 p1 from 1e-2 to
    # 1e4, then a = c, a = 0, c = 0, a < c, a > c and a b near zero
    abc = [tuple(x) for x in 10.0 ** rng.uniform(-2.0, 4.0, size=(2000, 3))]
    abc += [(3.0, 2.0, 3.0), (1e4, 1e4, 1e4), (0.0, 5.0, 7.0), (0.0, 1e4, 1e-2),
            (7.0, 5.0, 0.0), (1e-2, 1e4, 0.0), (0.5, 2.0, 40.0), (40.0, 2.0, 0.5),
            (2.0, 1e-9, 3.0), (1e4, 1e-12, 1e-2), (0.0, 1e-10, 0.0)]
    for a, b, c in abc:
        alpha, beta = ob._cliffs(a, b, c)
        assert np.all((alpha >= 0) & (alpha <= 1)) and np.all((beta >= 0) & (beta <= 1))
        # the alpha-side R1 bound of k1 and the beta-side one, k2
        _assert_hits_levels(psi((a + b * (1 - alpha)) / (b * alpha + 1)),
                            psi(a / (b + 1)), psi(a + b))
        if a == c == 0:
            assert beta.size == 0
            continue
        k2 = np.minimum(psi(a * beta / (c * beta + 1)) + psi(c),
                        psi(c * beta / (a * beta + 1)) + psi(a))
        _assert_hits_levels(k2, psi(min(a, c)), psi(a + c))
    # a bound that does not depend on its parameter has no cliffs
    assert ob._cliffs(4.0, 0.0, 1.0)[0].size == 0
    assert ob._cliffs(0.0, 4.0, 0.0)[1].size == 0


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


def _zero_power_channel(rng):
    ch = random_channel(rng, lo=0.0, hi=5.0)
    p1, p2 = (0.0, ch.p2) if rng.uniform() < 0.5 else (ch.p1, 0.0)
    return GaussianIC(ch.s11, ch.s12, ch.s21, ch.s22, p1, p2, ch.d12, ch.d21)


@pytest.mark.parametrize("grid_n", [201, 11, 2])
def test_frontier_at_r1_cap_is_nonnegative(grid_n, rng):
    chans = [FIG2, FIG3, FIG4] + EDGE_CHANNELS
    chans += [random_channel(rng) for _ in range(30)]
    chans += [_zero_power_channel(rng) for _ in range(200)]
    for ch in chans:
        ev = ob._UnionEvaluator(ch, grid_n)
        assert ev.frontier(ev.r1_cap)[0] >= 0.0


def _zero_extent_channel(rng):
    """p1 = 0, or s11 = s21 = 0: user 1 reaches neither receiver."""
    ch = _signed_channel(rng)
    if rng.uniform() < 0.5:
        return GaussianIC(ch.s11, ch.s12, ch.s21, ch.s22, 0.0, ch.p2, ch.d12, ch.d21)
    return GaussianIC(0.0, ch.s12, 0.0, ch.s22, ch.p1, ch.p2, ch.d12, ch.d21)


@pytest.mark.parametrize("grid_n", [201, 11, 2])
def test_zero_extent_row_is_the_sum_rate(grid_n, rng):
    # at R1 = 0 the bound's largest R2 is its largest sum rate; writing the
    # origin there left out rate pairs that user 2 alone achieves
    chans = [ch for ch in EDGE_CHANNELS if ch.p1 == 0.0 or ch.s11 == ch.s21 == 0.0]
    chans += [_zero_extent_channel(rng) for _ in range(100)]
    assert any(sum_rate_bound(ch, grid_n) > 0.0 for ch in chans)
    for ch in chans:
        reg = outer_region(ch, grid_n=grid_n)
        rate = sum_rate_bound(ch, grid_n)
        assert reg.r1_max == 0.0
        assert np.all(reg.r2 == rate)
        assert frontier_csv(reg) == f"r1,r2\n0,{rate:.9g}\n"


def test_outer_region_reaches_r1_cap_on_zero_power_channel():
    ch = EDGE_CHANNELS[-1]
    for grid_n in (201, 11, 2):
        reg = outer_region(ch, grid_n=grid_n)
        assert reg.r1_max == ob._UnionEvaluator(ch, grid_n).r1_cap


def _unchunked_max_sum(ev):
    return max(float(np.max(ob._cell_max_sum(*np.minimum(
        ev.sides[i][:, :, None], ev.sides[j][:, None, :])))) for i, j in ev.blocks)


@pytest.mark.parametrize("budget", [1, 1000])
@pytest.mark.parametrize("ch", [FIG2, FIG3, FIG4] + EDGE_CHANNELS)
def test_max_sum_over_chunks_is_bit_equal(ch, budget, monkeypatch):
    ev = ob._UnionEvaluator(ch, ob.DEFAULT_GRID)
    want = _unchunked_max_sum(ev)
    assert ev.max_sum() == want  # one chunk per block at the default budget
    monkeypatch.setattr(regions, "SWEEP_CELLS", budget)
    assert ev.max_sum() == want


@pytest.mark.parametrize("ch", [FIG2, FIG3, FIG4] + EDGE_CHANNELS)
def test_frontier_over_chunks_is_bit_equal(ch, rng, monkeypatch):
    oracle = FlatUnionOracle(ch, 21)
    xs = _oracle_abscissae(oracle.r1_cap, rng)
    want = oracle.frontier(xs)
    ev = ob._UnionEvaluator(ch, 21)
    # one column per chunk (1 and 1000 cells at 712 abscissae), then 46
    # columns, so that the last chunk of a 256-column cliff side is partial
    for budget in (1, 1000, 1 << 15):
        monkeypatch.setattr(regions, "SWEEP_CELLS", budget)
        assert np.array_equal(ev.frontier(xs), want)


def test_pruned_max_sum_is_exact(rng):
    chans = [FIG2, FIG3, FIG4] + EDGE_CHANNELS
    chans += [_signed_channel(rng) for _ in range(200)]
    # s12 = 0 leaves no alpha cliffs, so a block drops out
    assert any(ch.s12 == 0.0 for ch in chans)
    assert any(0.0 in (ch.p1, ch.p2) for ch in chans)
    for grid_n in (2, 11, 201):
        for ch in chans:
            ev = ob._UnionEvaluator(ch, grid_n)
            assert ev.max_sum() == _unchunked_max_sum(ev)


@pytest.mark.parametrize("ch", [FIG2, FIG3, FIG4], ids=["fig2", "fig3", "fig4"])
def test_max_sum_sweeps_under_half_the_cells(ch, monkeypatch):
    ev = ob._UnionEvaluator(ch, ob.DEFAULT_GRID)
    total = sum(ev.sides[i].shape[1] * ev.sides[j].shape[1] for i, j in ev.blocks)
    assert total == 143_313
    swept, cell_max_sum = [], ob._cell_max_sum

    def counting(*m):
        out = cell_max_sum(*m)
        swept.append(out.size)
        return out

    monkeypatch.setattr(ob, "_cell_max_sum", counting)
    ev.max_sum()
    # side bounds, seed rows and columns, and the swept chunks together
    assert sum(swept) < total / 2


def test_frontier_memory_does_not_grow_with_the_grid():
    import tracemalloc

    ev = ob._UnionEvaluator(FIG2, 5001)
    xs = np.linspace(0.0, ev.r1_cap, 512)
    tracemalloc.start()
    try:
        ev.frontier(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk of 128 columns x 512 abscissae takes about 1.2 MB; all 5257
    # columns of a side at once peaked at 41 MB
    assert peak < 4 << 20


def test_max_sum_memory_does_not_grow_with_the_square_of_the_grid():
    import tracemalloc

    ev = ob._UnionEvaluator(FIG2, 1001)
    tracemalloc.start()
    try:
        ev.max_sum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A chunk takes about 17 float arrays of SWEEP_CELLS entries (9 MB);
    # the 1001 x 1001 block in one piece peaked at 136 MB.
    assert peak < 32 * 8 * regions.SWEEP_CELLS
