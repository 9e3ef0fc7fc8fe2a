import itertools
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from icbounds import (
    DiscreteIC,
    check_condition,
    inner_region_one_sided,
    inner_region_strong,
)
from icbounds import discrete as dsc
from icbounds import regions
from icbounds.cli import discrete_channel
from icbounds.discrete import one_sided_factorization, simplex_grid
from icbounds.errors import ChannelShapeError, InputError
from icbounds.regions import frontier_csv, pentagon_vertices

from conftest import (
    PointwiseSearchOracle,
    brute_mi,
    constant_output_channel,
    degraded_given_loop,
    h2,
    orthogonal_channel,
    random_discrete,
    xor_copy_channel,
)
from reference import (
    AuxJointDist,
    RateConstraint,
    _dedupe_collinear,
    from_constraints,
    includes,
    is_point,
    mi,
    outer_constraints,
    simplex_grid_reference,
    to_json_dict,
)

# deterministic logic channel (y1 = x1 or x2, y2 = x1 and x2) with an
# explicit two-state time-sharing distribution and identity auxiliaries;
# the eleven bound values were computed once with the tuple-enumeration
# entropy oracle in conftest and frozen here.
FROZEN_LOGIC_RHS = [
    0.670248298713, 0.833156856932, 0.833156856932, 0.408446149838,
    0.952516359692, 0.952516359692, 1.245024578304, 1.216506478559,
    1.24160300677, 1.622764658405, 1.392836608312,
]


def logic_channel() -> DiscreteIC:
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1 | x2, x1 & x2, x1, x2] = 1.0
    return DiscreteIC(w)


def logic_dist() -> AuxJointDist:
    puv = np.zeros((2, 2, 2, 2, 2))
    for q, a, b in itertools.product(range(2), repeat=3):
        puv[q, a, b, a, b] = 1.0  # u = x1, v = x2
    return AuxJointDist(
        np.array([0.4, 0.6]),
        np.array([[0.5, 0.5], [0.8, 0.2]]),
        np.array([[0.3, 0.7], [0.5, 0.5]]),
        puv,
    )


def test_channel_validation():
    with pytest.raises(InputError):
        DiscreteIC(np.full((2, 2, 2, 2), 0.3))  # not normalized
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, :, :] = 1.5
    bad[1, 1, :, :] = -0.5
    with pytest.raises(InputError):
        DiscreteIC(bad)


def test_json_round_trip():
    ch = xor_copy_channel()
    doc = to_json_dict(ch)
    assert doc["type"] == "discrete"
    back = discrete_channel(doc)
    assert np.allclose(back.w, ch.w)
    doc["w"] = doc["w"][:-1]
    with pytest.raises(InputError):
        discrete_channel(doc)


def test_mi_product_distribution_is_zero():
    table = np.outer([0.3, 0.7], [0.6, 0.4])
    assert mi(table, ("a", "b"), ("a",), ("b",)) == 0.0


def test_mi_identity_one_bit():
    table = np.eye(2) / 2
    assert mi(table, ("x", "y"), ("x",), ("y",)) == pytest.approx(1.0)


def test_mi_binary_symmetric_crossover():
    eps = 0.11
    table = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
    want = 1.0 - h2(eps)
    assert mi(table, ("x", "y"), ("x",), ("y",)) == pytest.approx(want, abs=1e-12)


def test_mi_properties_on_random_joints(rng):
    axes = ("a", "b", "c")
    for _ in range(40):
        t = rng.gamma(1.0, size=(3, 4, 2))
        t /= t.sum()
        sym1 = mi(t, axes, ("a",), ("b",), ("c",))
        sym2 = mi(t, axes, ("b",), ("a",), ("c",))
        assert sym1 >= 0.0
        assert sym1 == pytest.approx(sym2, abs=1e-10)
        lhs = mi(t, axes, ("a",), ("b", "c"))
        rhs = mi(t, axes, ("a",), ("b",)) + mi(t, axes, ("a",), ("c",), ("b",))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_mi_validation():
    with pytest.raises(InputError):
        mi(np.full((2, 2), 0.3), ("a", "b"), ("a",), ("b",))
    with pytest.raises(InputError):
        mi(np.eye(2) / 2, ("a", "b"), ("a",), ("a",))
    with pytest.raises(InputError):
        mi(np.eye(2) / 2, ("a", "b"), ("z",), ("b",))


def test_outer_constraints_orthogonal_channel():
    ch = orthogonal_channel(d12=0.25, d21=0.75)
    cs = outer_constraints(ch, AuxJointDist.uniform(2, 2))
    assert len(cs) == 11
    assert cs[0].rhs == pytest.approx(1.75, abs=1e-12)   # 1 + d21
    assert cs[3].rhs == pytest.approx(1.25, abs=1e-12)   # 1 + d12
    assert cs[10].rhs == pytest.approx(2.0, abs=1e-12)   # both messages


def test_outer_constraints_constant_outputs():
    ch = DiscreteIC(constant_output_channel().w, d12=0.4, d21=0.7)
    cs = outer_constraints(ch, AuxJointDist.uniform(2, 2))
    assert cs[0].rhs == pytest.approx(0.7)
    assert cs[1].rhs == 0.0  # no conference term: rate pinned to zero
    assert cs[3].rhs == pytest.approx(0.4)
    assert cs[4].rhs == 0.0
    assert cs[10].rhs == 0.0


def test_outer_constraints_frozen_logic_values():
    ch = DiscreteIC(logic_channel().w, d12=0.25, d21=0.5)
    cs = outer_constraints(ch, logic_dist())
    got = [c.rhs for c in cs]
    assert np.allclose(got, FROZEN_LOGIC_RHS, atol=1e-10)


def test_outer_constraints_match_oracle(rng):
    ch = DiscreteIC(random_discrete(rng).w, d12=0.3, d21=0.6)
    dist = logic_dist()
    cs = outer_constraints(ch, dist)
    j = np.einsum("q,qa,qb,qabuv,cdab->quvabcd", dist.p_q, dist.p_x1_q,
                  dist.p_x2_q, dist.p_uv_x1x2q, ch.w)
    axes = ("q", "u", "v", "x1", "x2", "y1", "y2")
    want_last = brute_mi(j, axes, ("x1", "x2"), ("y1", "y2"), ("q",))
    assert cs[10].rhs == pytest.approx(want_last, abs=1e-10)
    want_first = min(
        brute_mi(j, axes, ("u", "x1"), ("y1",), ("q",)) + 0.6,
        brute_mi(j, axes, ("x1",), ("y1",), ("x2", "q")) + 0.6,
    )
    assert cs[0].rhs == pytest.approx(want_first, abs=1e-10)


def test_outer_constraints_monotone_in_conference(rng):
    w = random_discrete(rng).w
    dist = AuxJointDist.uniform(2, 2)
    lo = outer_constraints(DiscreteIC(w, d12=0.2, d21=0.1), dist)
    hi = outer_constraints(DiscreteIC(w, d12=0.7, d21=0.9), dist)
    for a, b in zip(lo, hi):
        assert b.rhs >= a.rhs - 1e-12
        assert a.rhs >= 0.0


def test_outer_constraints_alphabet_mismatch():
    ch = orthogonal_channel()
    with pytest.raises(InputError):
        outer_constraints(ch, AuxJointDist.uniform(3, 2))


def test_condition4_copy_channel_holds():
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1, x1, x2] = 1.0  # y1 = y2 = x1
    rep = check_condition(DiscreteIC(w), 4)
    assert rep.holds_on_searched_family and rep.markov_ok
    assert rep.worst_gap == pytest.approx(0.0, abs=1e-12)


def test_condition4_constant_second_output_fails():
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, 0, x1, x2] = 1.0  # y1 = x1, y2 constant
    rep = check_condition(DiscreteIC(w), 4, grid=21)
    assert not rep.holds_on_searched_family
    assert rep.worst_gap <= -0.99
    assert rep.witnesses["p1"] == pytest.approx([0.5, 0.5], abs=1e-9)


def test_condition4_degraded_cascade_report():
    # y1 = x1 xor x2, y2 = bsc(0.05) applied to y1: physically degraded, so
    # the rate-gap direction is reversed and the worst gap is -H2(0.05)
    eps = 0.05
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        y1 = x1 ^ x2
        for y2 in range(2):
            w[y1, y2, x1, x2] = (1 - eps) if y2 == y1 else eps
    rep = check_condition(DiscreteIC(w), 4, grid=21)
    assert rep.markov_ok
    assert not rep.holds_on_searched_family
    assert rep.worst_gap == pytest.approx(-h2(eps), abs=1e-9)


def test_condition7_v_equals_x1_slice_reverses_condition4():
    # the v = x1 member of the condition-7 family carries the condition-4
    # quantities with the inequality mirrored: a channel where the cross
    # receiver is strictly stronger passes 4 but fails 7 through that slice
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[0, x1, x1, x2] = 1.0  # y1 constant, y2 = x1
    ch = DiscreteIC(w)
    rep4 = check_condition(ch, 4, grid=11)
    rep7 = check_condition(ch, 7, grid=11, samples=50, seed=1)
    assert rep4.holds_on_searched_family
    assert not rep7.holds_on_searched_family
    assert rep7.worst_gap <= -0.99


def test_condition7_deterministic_for_seed():
    ch = xor_copy_channel()
    a = check_condition(ch, 7, grid=9, samples=40, seed=5)
    b = check_condition(ch, 7, grid=9, samples=40, seed=5)
    assert a == b


def test_condition11_markov_side():
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1, x1, x2] = 1.0  # y1 = y2: trivially degraded either way
    rep = check_condition(DiscreteIC(w), 11)
    assert rep.markov_ok
    # swap roles: y2 = x1 xor x2 noiseless, y1 = bsc of it -> condition 11's
    # markov (y1 from y2) holds while condition 4's (y2 from y1) fails
    eps = 0.1
    w2 = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        y2 = x1 ^ x2
        for y1 in range(2):
            w2[y1, y2, x1, x2] = (1 - eps) if y1 == y2 else eps
    assert check_condition(DiscreteIC(w2), 11).markov_ok
    assert not check_condition(DiscreteIC(w2), 4).markov_ok


def test_condition14_requires_one_sided():
    with pytest.raises(ChannelShapeError):
        check_condition(xor_copy_channel(), 14)  # y1 depends on x2


def test_condition14_one_sided_boundary():
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1 ^ x2, x1, x2] = 1.0  # y1 = x1, y2 = x1 xor x2
    ch = DiscreteIC(w)
    assert one_sided_factorization(ch)
    rep = check_condition(ch, 14, grid=21)
    assert rep.holds_on_searched_family
    assert rep.worst_gap == pytest.approx(0.0, abs=1e-9)


def test_condition_unknown_id():
    with pytest.raises(InputError):
        check_condition(xor_copy_channel(), 5)


def test_inner_region_constant_channel_is_origin():
    reg = inner_region_strong(replace(constant_output_channel(), d12=0.7), grid=5)
    assert is_point(reg)


def test_inner_region_fully_revealing_channel():
    # both receivers see (x1, x2) losslessly: the region is the unit square
    w = np.zeros((4, 4, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[2 * x1 + x2, 2 * x1 + x2, x1, x2] = 1.0
    reg = inner_region_strong(DiscreteIC(w), grid=9)
    assert reg.r1_max == pytest.approx(1.0, abs=1e-9)
    assert reg.r2_max == pytest.approx(1.0, abs=1e-9)
    assert float(reg.frontier_at(1.0)) == pytest.approx(1.0, abs=1e-9)


def test_inner_region_monotone_in_conference():
    r0 = inner_region_strong(xor_copy_channel(0.0), grid=9)
    r1 = inner_region_strong(xor_copy_channel(1.0), grid=9)
    assert includes(r1, r0, tol=1e-9)


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_weak_channel_inner_region_keeps_its_vertices(eps):
    # a channel within eps of the uniform law: every rate is below 1e-6
    # bit, and the hull keeps the 9 vertices it keeps at any larger scale
    base = np.random.default_rng(3).dirichlet(np.ones(4), size=(2, 2))
    w = 0.25 + eps * (base.transpose(2, 0, 1).reshape(2, 2, 2, 2) - 0.25)
    reg = inner_region_strong(DiscreteIC(w), grid=11)
    assert reg.r1.size == 9
    assert reg.r1_max < 1e-6
    # the straight chord from (0, r2_max) to (r1_max, 0) reads r2_max / 2
    assert float(reg.frontier_at(reg.r1_max / 2)) > 1.5 * reg.r2_max / 2


def test_inner_region_box_bound(rng):
    for _ in range(5):
        reg = inner_region_strong(replace(random_discrete(rng), d12=0.5), grid=7)
        assert reg.r1_max <= 1.0 + 1e-9  # log2 |X1|
        assert reg.r2_max <= 1.0 + 1e-9
        # convex: frontier matches its own hull
        from icbounds import convex_hull

        hull = convex_hull(reg)
        xs = np.linspace(0, reg.r1_max, 129)
        assert np.max(np.abs(hull.frontier_at(xs) - reg.frontier_at(xs))) <= 1e-9


def test_inner_region_one_sided_gate():
    with pytest.raises(ChannelShapeError):
        inner_region_one_sided(xor_copy_channel(0.5))
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1 ^ x2, x1, x2] = 1.0
    reg = inner_region_one_sided(DiscreteIC(w, d12=0.5), grid=9)
    assert reg.r1_max == pytest.approx(1.0, abs=1e-9)
    # sum limited by the interfered receiver plus the conference
    assert reg.max_sum() <= 1.5 + 1e-9


def test_inner_regions_take_the_budget_from_the_channel():
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1 ^ x2, x1, x2] = 1.0
    for fn, ch in ((inner_region_strong, xor_copy_channel(0.5)),
                   (inner_region_one_sided, DiscreteIC(w, d12=0.5))):
        for args, kw in (((0.5,), {"grid": 5}), ((0.5, 5), {}), ((), {"d12": 0.5})):
            with pytest.raises(TypeError):
                fn(ch, *args, **kw)
        # the channel's budget reaches the region: it grows past the
        # region without one
        assert not includes(fn(replace(ch, d12=0.0), grid=5), fn(ch, grid=5))


def test_simplex_grid():
    g = simplex_grid(2, 21)
    assert g.shape == (21, 2)
    assert np.allclose(g.sum(axis=1), 1.0)
    assert any(np.allclose(row, [0.5, 0.5]) for row in g)
    g3 = simplex_grid(3, 5)
    assert np.allclose(g3.sum(axis=1), 1.0)
    with pytest.raises(InputError):
        simplex_grid(2, 1)
    # the same points in the same order as counting each combination's
    # symbols one at a time
    for dim, res in itertools.product(range(1, 5), range(2, 10)):
        want = []
        for comp in itertools.combinations_with_replacement(range(dim), res - 1):
            v = np.zeros(dim)
            for c in comp:
                v[c] += 1
            want.append(v / (res - 1))
        assert np.array_equal(simplex_grid(dim, res), np.array(want))


def test_simplex_grid_matches_tuple_reference():
    # the same floats in the same order as the lattice built from one
    # sorted symbol tuple per point
    for dim, res in itertools.product(range(1, 5), range(2, 26)):
        assert np.array_equal(simplex_grid(dim, res),
                              simplex_grid_reference(dim, res))


def test_fine_simplex_grid_stays_small():
    # the tuple lattice took gigabytes here, for a 20001 x 2 result
    tracemalloc.start()
    try:
        g = simplex_grid(2, 20001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (20001, 2) and g[0].tolist() == [1.0, 0.0]
    assert peak < 5 << 20, peak


def test_aux_dist_validation():
    with pytest.raises(InputError):
        AuxJointDist(np.array([0.5, 0.6]), np.full((2, 2), 0.5),
                     np.full((2, 2), 0.5), np.ones((2, 2, 2, 1, 1)))


# ------------------------------------------- batched kernel vs pointwise oracle

def copy_channel() -> DiscreteIC:
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x1, x1, x2] = 1.0  # y1 = y2 = x1
    return DiscreteIC(w)


def constant_channel(k: int) -> DiscreteIC:
    w = np.zeros((2, 2, k, k))
    w[0, 0] = 1.0
    return DiscreteIC(w)


def degraded_channel(rng, ny1, ny2, nx1, nx2, dead=()) -> DiscreteIC:
    """y1 from (x1, x2), then y2 from (y1, x1) alone: y2 is physically
    degraded with respect to y1 given x1.  Each (y1, x1) in ``dead`` gets no
    mass at x2 = 0."""
    front = rng.gamma(1.0, size=(ny1, nx1, nx2))
    for y1, x1 in dead:
        front[y1, x1, 0] = 0.0
    front /= front.sum(axis=0, keepdims=True)
    back = rng.gamma(1.0, size=(ny2, ny1, nx1))
    back /= back.sum(axis=0, keepdims=True)
    w = np.einsum("cab,dca->cdab", front, back)
    return DiscreteIC(w / w.sum(axis=(0, 1), keepdims=True))


def zero_entry_channel(rng, shape) -> DiscreteIC:
    w = rng.gamma(1.0, size=shape)
    w[rng.random(shape) < 0.4] = 0.0
    w[0, 0] += 1e-3  # every input keeps some mass
    return DiscreteIC(w / w.sum(axis=(0, 1), keepdims=True))


def one_sided_channel(rng, k: int) -> DiscreteIC:
    a = rng.gamma(1.0, size=(k, k))
    a /= a.sum(axis=0, keepdims=True)
    b = rng.gamma(1.0, size=(k, k, k))
    b /= b.sum(axis=0, keepdims=True)
    w = np.einsum("ca,dab->cdab", a, b)
    return DiscreteIC(w / w.sum(axis=(0, 1), keepdims=True))


def search_channels():
    rng = np.random.default_rng(5150)
    chans = [(f"random-bin-{i}", random_discrete(rng), 21) for i in range(3)]
    chans += [(f"random-tern-{i}", random_discrete(rng, (3, 3, 3, 3)), 7)
              for i in range(2)]
    chans += [
        ("random-2x3", random_discrete(rng, (3, 2, 2, 3)), 9),
        ("copy", copy_channel(), 21),
        ("constant", constant_output_channel(), 21),
        ("xor-copy", xor_copy_channel(), 21),
        ("zero-entries-bin", zero_entry_channel(rng, (2, 2, 2, 2)), 21),
        ("zero-entries-tern", zero_entry_channel(rng, (3, 3, 3, 3)), 7),
        ("one-sided-bin", one_sided_channel(rng, 2), 21),
        ("one-sided-tern", one_sided_channel(rng, 3), 7),
    ]
    return chans


SEARCH_CHANNELS = search_channels()


@pytest.mark.parametrize("name, ch, grid", SEARCH_CHANNELS,
                         ids=[c[0] for c in SEARCH_CHANNELS])
def test_gap_search_matches_pointwise_oracle(name, ch, grid):
    # the oracle shares no code with the kernel, so the two agree to
    # rounding: the gaps, and the oracle's gap at the library's witness
    oracle = PointwiseSearchOracle(ch)
    want_gap = oracle.gap_search(grid, oracle.vertices)[0]
    for which in (4, 11, 14) if one_sided_factorization(ch) else (4, 11):
        rep = check_condition(ch, which, grid=grid)
        assert abs(rep.worst_gap - want_gap) <= 1e-12
        at_witness = oracle.pair_gap(*(np.array(rep.witnesses[k]) for k in ("p1", "p2")))
        assert abs(at_witness - rep.worst_gap) <= 1e-12
        assert rep.holds_on_searched_family == (want_gap >= -1e-9)


@pytest.mark.parametrize("name, ch, grid", SEARCH_CHANNELS,
                         ids=[c[0] for c in SEARCH_CHANNELS])
def test_condition7_matches_pointwise_oracle(name, ch, grid):
    samples = 60 if ch.nx1 * ch.nx2 <= 4 else 15
    oracle = PointwiseSearchOracle(ch)
    g = oracle.condition7(grid, oracle.vertices, samples=samples, seed=3)[0]
    rep = check_condition(ch, 7, grid=grid, samples=samples, seed=3)
    assert abs(rep.worst_gap - g) <= 1e-12
    at_witness = oracle.aux_gap(*(np.array(rep.witnesses[k])
                                  for k in ("p1", "p2", "v_kernel")))
    assert abs(at_witness - rep.worst_gap) <= 1e-12


@pytest.mark.parametrize("name, ch, grid", SEARCH_CHANNELS,
                         ids=[c[0] for c in SEARCH_CHANNELS])
def test_v_equals_x1_gap_at_condition4_witness_is_its_negative(name, ch, grid):
    # I(x1;y1|x2) - I(x1;y2|x2) is minus the condition-4 gap, so the
    # condition-4 witness is where the v = x1 kernel's gap is largest: as a
    # condition-7 probe it cannot deepen that kernel's gap
    rep = check_condition(ch, 4, grid=grid)
    v_x1 = dsc._sample_v_kernels(ch, 0, np.random.default_rng(0))[:1]
    p1, slot = np.array([rep.witnesses["p1"]]), np.argmax([rep.witnesses["p2"]], axis=1)
    (w1, _), (w2, _) = dsc._laws(ch)
    gap = dsc._aux_mi(p1, slot, v_x1, w1) - dsc._aux_mi(p1, slot, v_x1, w2)
    assert abs(gap[0] + rep.worst_gap) <= 1e-12


@pytest.mark.parametrize("name, ch, grid", SEARCH_CHANNELS,
                         ids=[c[0] for c in SEARCH_CHANNELS])
def test_inner_csv_matches_pointwise_oracle(name, ch, grid):
    # each region lies within 1e-12 bit of the other in both rates: the
    # oracle's r1 rounds differently per p2, so where a frontier ends in a
    # vertical drop the two drops can stand an ulp apart in R1
    for d12 in (0.0, 0.4):
        ch = replace(ch, d12=d12)
        oracle = PointwiseSearchOracle(ch)
        for one_sided in (False, True) if one_sided_factorization(ch) else (False,):
            fn = inner_region_one_sided if one_sided else inner_region_strong
            got = fn(ch, grid=grid)
            want = oracle.inner_region(grid, one_sided=one_sided)
            assert includes(got, want, tol=1e-12, htol=1e-12)
            assert includes(want, got, tol=1e-12, htol=1e-12)


def test_pentagon_vertices_match_from_constraints(rng):
    # from_constraints also drops collinear corners; pentagon_vertices
    # keeps them, so the two lists agree once its corners go through the
    # same rule
    rows = [rng.uniform(0.0, 2.0, size=3) for _ in range(300)]
    rows += [
        (1.0, 0.5, 0.5), (1.0, 0.5, 0.4), (0.0, 0.5, 0.7), (0.3, 0.0, 0.2),
        (0.0, 0.0, 0.0), (1.0, 0.5, 0.5 + 5e-13), (1.0, 0.5, 1.5 - 5e-13),
        (1.0, 0.5, 1.5), (1.0, 0.5, 1.5 + 1e-11), (1.0, 0.5, 1.5 - 1e-11),
        (1e-13, 0.5, 0.5 + 5e-14), (2.0, 1e-13, 1.0), (0.7, 0.7, 2.0),
        (1.0, 0.5, -5e-13), (1.0, -5e-13, 0.2), (4.0, 3.0, 3.0 + 2e-12),
        (1e-8, 0.8e-8, 1.5e-8),
    ]
    for r1, r2, s in rows:
        reg = from_constraints([RateConstraint(1, 0, r1), RateConstraint(0, 1, r2),
                                RateConstraint(1, 1, s)])
        got = pentagon_vertices(np.array([r1]), np.array([r2]), np.array([s]))
        xs, ys = _dedupe_collinear(got[:, 0], got[:, 1])
        assert (xs.tolist(), ys.tolist()) == (reg.r1.tolist(), reg.r2.tolist())
    # at rates far below 1 bit the corner is a vertex like any other
    small = pentagon_vertices(1e-8, 0.8e-8, 1.5e-8)
    assert np.allclose(small, [[0.0, 0.8e-8], [0.7e-8, 0.8e-8], [1e-8, 0.5e-8]],
                       rtol=1e-12, atol=0.0)
    # and below 1e-12 bit too: only an exact duplicate is dropped
    tiny = pentagon_vertices(1e-13, 0.8e-13, 1.5e-13)
    assert np.allclose(tiny, [[0.0, 0.8e-13], [0.7e-13, 0.8e-13],
                              [1e-13, 0.5e-13]], rtol=1e-12, atol=0.0)
    for bad in ((np.inf, 0.5, 1.0), (1.0, -1e-9, 1.0), (1.0, 0.5, np.nan)):
        with pytest.raises(InputError):
            pentagon_vertices(*(np.array([v]) for v in bad))


def test_tied_gaps_across_row_blocks_keep_first_pair(monkeypatch):
    # every gap of a constant-output channel is exactly 0, so the first
    # input pair must win in the search, in each refinement and in the
    # condition-7 kernel-major order, over many row blocks: a budget of 16
    # rows of |X1|·|X2|·(|Y1| + |Y2|) = 36 cells splits the 231 lattice
    # points into 15 blocks
    monkeypatch.setattr(regions, "SWEEP_CELLS", 16 * 36)
    ch = constant_channel(3)
    lat = simplex_grid(3, 21)
    assert len(lat) == 231
    assert len(regions.chunks(len(lat), ch.nx1 * ch.nx2 * (ch.ny1 + ch.ny2))) == 15
    rep = check_condition(ch, 4, grid=21)
    assert rep.worst_gap == 0.0
    assert rep.witnesses == {"p1": lat[0].tolist(), "p2": [1.0, 0.0, 0.0]}
    rep7 = check_condition(ch, 7, grid=21, samples=200, seed=2)
    assert rep7.worst_gap == 0.0
    assert rep7.witnesses["p1"] == simplex_grid(3, 5)[0].tolist()
    v_x1 = np.zeros((3, 3, 9))
    for x1 in range(3):
        v_x1[x1, :, x1] = 1.0
    assert rep7.witnesses["v_kernel"] == v_x1.tolist()


def vertex_vs_lattice_channels():
    from icbounds.cli import discrete_channel
    from test_cli import CHECK_SPECS

    chans = [(name, discrete_channel(doc), grid)
             for name, (doc, grid) in CHECK_SPECS.items()]
    rng = np.random.default_rng(2718)
    chans += [(f"random-bin-{i}", random_discrete(rng), 11) for i in range(4)]
    chans += [(f"random-tern-{i}", random_discrete(rng, (3, 3, 3, 3)), 5)
              for i in range(3)]
    return chans


VERTEX_VS_LATTICE = vertex_vs_lattice_channels()


@pytest.mark.parametrize("name, ch, grid", VERTEX_VS_LATTICE,
                         ids=[c[0] for c in VERTEX_VS_LATTICE])
def test_vertex_search_is_no_worse_than_lattice(name, ch, grid):
    # every gap is linear in p2, so the p2 vertices find a gap as deep as
    # the p2 lattice the searches took before, up to rounding
    oracle = PointwiseSearchOracle(ch)
    lattice_gap = oracle.gap_search(grid, oracle.lattice)[0]
    rep = check_condition(ch, 4, grid=grid)
    assert rep.worst_gap <= lattice_gap + 1e-12
    assert rep.holds_on_searched_family == (lattice_gap >= -1e-9)
    lattice7 = oracle.condition7(grid, oracle.lattice, samples=10, seed=1)[0]
    rep7 = check_condition(ch, 7, grid=grid, samples=10, seed=1)
    assert rep7.worst_gap <= lattice7 + 1e-12
    assert rep7.holds_on_searched_family == (lattice7 >= -1e-9)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 3, 3), (3, 2, 2, 3),
                                   "one-sided"])
def test_x2_labels_do_not_change_the_report(shape):
    # permuting the x2 labels of w only permutes the p2 vertices, and each
    # vertex's gap comes from its own x2 slot by the same float operations,
    # so every gap is bit-equal; condition 7 runs its structured kernels
    # only, since a random kernel P(v|x1,x2) would not move with the labels.
    # Kernels that sum a joint table's marginals have given the (3, 2, 2, 3)
    # case a last-bit difference between the channel and its copies
    rng = np.random.default_rng(31)
    ch = (one_sided_channel(rng, 3) if shape == "one-sided"
          else random_discrete(rng, shape))
    conditions = (4, 11, 14) if shape == "one-sided" else (4, 11)
    base = {c: check_condition(ch, c, grid=9) for c in conditions}
    base7 = check_condition(ch, 7, grid=9, samples=0)
    for perm in itertools.permutations(range(ch.nx2)):
        moved = DiscreteIC(ch.w[..., list(perm)])
        for c in conditions:
            rep = check_condition(moved, c, grid=9)
            assert rep.worst_gap == base[c].worst_gap
            assert rep.holds_on_searched_family == base[c].holds_on_searched_family
            assert rep.markov_ok == base[c].markov_ok
        rep7 = check_condition(moved, 7, grid=9, samples=0)
        assert rep7.worst_gap == base7.worst_gap
        assert rep7.holds_on_searched_family == base7.holds_on_searched_family


def test_results_do_not_depend_on_block_size(monkeypatch):
    # one table per block, blocks that split the lattice unevenly, and the
    # module's own size must all give the same bytes
    rng = np.random.default_rng(77)
    chans = [replace(random_discrete(rng, (3, 3, 3, 3)), d12=0.3),
             replace(one_sided_channel(rng, 2), d12=0.3)]
    runs = []
    for cells in (1, 700, regions.SWEEP_CELLS):
        monkeypatch.setattr(regions, "SWEEP_CELLS", cells)
        out = []
        for ch in chans:
            out.append(asdict(check_condition(ch, 4, grid=7)))
            out.append(asdict(check_condition(ch, 7, grid=7, samples=10, seed=4)))
            out.append(frontier_csv(inner_region_strong(ch, grid=7)))
        out.append(frontier_csv(inner_region_one_sided(chans[1], grid=7)))
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def kernel_channels():
    from test_cli import CHECK_SPECS

    rng = np.random.default_rng(808)
    chans = [(name, discrete_channel(doc)) for name, (doc, _) in CHECK_SPECS.items()]
    chans += [(f"zero-entries-{i}", zero_entry_channel(rng, shape)) for i, shape in
              enumerate([(2, 2, 2, 2), (3, 3, 3, 3), (3, 2, 2, 3), (2, 3, 3, 2)])]
    chans += [("one-sided-tern", one_sided_channel(rng, 3)),
              ("degraded", degraded_channel(rng, 3, 2, 2, 3))]
    return chans


KERNEL_CHANNELS = kernel_channels()


def kernel_inputs(rng, dim):
    """Point masses, laws with a zero entry and laws with full support."""
    laws = [*np.eye(dim), rng.dirichlet(np.ones(dim), size=3)]
    holed = rng.dirichlet(np.ones(dim), size=2)
    holed[:, -1] = 0.0
    laws += [holed / holed.sum(axis=1, keepdims=True)]
    return np.vstack(laws)


@pytest.mark.parametrize("name, ch", KERNEL_CHANNELS,
                         ids=[c[0] for c in KERNEL_CHANNELS])
def test_kernel_terms_match_per_table_oracle(name, ch):
    # every term the searches and regions use, against the information of
    # the joint table at each input pair
    rng = np.random.default_rng(17)
    p1, p2 = kernel_inputs(rng, ch.nx1), kernel_inputs(rng, ch.nx2)
    axes = ("x1", "x2", "y1", "y2")
    kernels = dsc._sample_v_kernels(ch, 3, rng)
    for (w, h), y in zip(dsc._laws(ch), ("y1", "y2")):
        terms = [(dsc._given_x2(p1, p2, w, h), ("x1",), ("x2",)),
                 (dsc._given_x1(p1, p2, w, h), ("x2",), ("x1",)),
                 (dsc._both(p1, p2, w, h), ("x1", "x2"), ())]
        if one_sided_factorization(ch) and y == "y1":
            r1 = dsc._mi(p1, w[:, 0], h[:, 0])
            terms.append((np.repeat(r1[:, None], len(p2), axis=1), ("x1",), ()))
        for n, m in itertools.product(range(len(p1)), range(len(p2))):
            joint = np.einsum("a,b,cdab->abcd", p1[n], p2[m], ch.w)
            for got, a, c in terms:
                assert abs(got[n, m] - mi(joint, axes, a, (y,), c)) <= 1e-12
        # I(v;y|x2) at each p2 vertex, for every kernel and every p1
        rows = list(itertools.product(range(len(kernels)), range(len(p1)),
                                      range(ch.nx2)))
        k, n, slot = (np.array(v) for v in zip(*rows))
        got = dsc._aux_mi(p1[n], slot, kernels[k], w)
        for i, (kk, nn, s) in enumerate(rows):
            joint = np.einsum("a,b,abv,cdab->vabcd", p1[nn], np.eye(ch.nx2)[s],
                              kernels[kk], ch.w)
            want = mi(joint, ("v",) + axes, ("v",), (y,), ("x2",))
            assert abs(got[i] - want) <= 1e-12


def test_equal_rows_give_exact_zeros():
    # y1 = x1 through a BSC does not depend on x2: every information
    # between x2 and y1 is exactly 0, and so is R2 of theorem 2's region,
    # which that term bounds, at every grid
    from test_cli import MATRIX_SPECS

    ch = discrete_channel(MATRIX_SPECS["discrete-os"])
    (w1, h1), _ = dsc._laws(ch)
    lat = simplex_grid(2, 41)
    assert np.all(dsc._given_x1(lat, lat, w1, h1) == 0.0)
    for grid in range(5, 42, 4):
        assert inner_region_strong(ch, grid=grid).r2_max == 0.0
    # constant v and v = x2 kernels, and point-mass inputs, carry no
    # information
    v_x2, const = dsc._sample_v_kernels(ch, 0, np.random.default_rng(0))[[1, 3]]
    p1 = np.array([[0.3, 0.7], [0.3, 0.7], [1.0, 0.0], [0.0, 1.0]])
    kernels = np.stack([v_x2, const, v_x2, v_x2])
    for w, h in dsc._laws(ch):
        assert np.all(dsc._aux_mi(p1, np.array([0, 1, 1, 0]), kernels, w) == 0.0)
        assert np.all(dsc._mi(p1[2:], w[:, 0], h[:, 0]) == 0.0)


def test_condition7_holds_exactly_on_degraded_channels():
    # y2 = y1 through a second channel: every I(v;y2|x2) <= I(v;y1|x2), and
    # where the two are equal (v = x2, a constant v, a point-mass p1) the
    # gap is exactly 0, so the worst gap is never a negative residual
    rng = np.random.default_rng(4711)
    for i in range(40):
        ny1, ny2, nx1, nx2 = rng.integers(2, 4, size=4)
        front = rng.gamma(1.0, size=(ny1, nx1, nx2))
        front[rng.random(front.shape) < (0.3 if i % 5 == 4 else 0.0)] = 0.0
        front[0] += 1e-3
        front /= front.sum(axis=0, keepdims=True)
        back = rng.gamma(1.0, size=(ny2, ny1))
        back /= back.sum(axis=0, keepdims=True)
        ch = DiscreteIC(np.einsum("cab,dc->cdab", front, back))
        rep = check_condition(ch, 7, samples=0)
        assert rep.worst_gap >= 0.0 and rep.holds_on_searched_family


def degradedness_channels():
    rng = np.random.default_rng(4242)
    chans = [(f"random-{i}", random_discrete(rng, shape)) for i, shape in
             enumerate([(2, 2, 2, 2), (3, 3, 3, 3), (3, 2, 2, 3)])]
    chans += [(f"zero-entries-{i}", zero_entry_channel(rng, shape)) for i, shape in
              enumerate([(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 3, 2)])]
    chans += [("one-sided-bin", one_sided_channel(rng, 2)),
              ("one-sided-tern", one_sided_channel(rng, 3)),
              ("copy", copy_channel()), ("constant", constant_output_channel()),
              ("xor-copy", xor_copy_channel()),
              ("degraded", degraded_channel(rng, 3, 2, 2, 3)),
              # the first x2 carries no mass at (y1, x1) = (0, 0) and (2, 1),
              # so the reference there is the second x2
              ("degraded-dead-first", degraded_channel(rng, 3, 2, 2, 3,
                                                       dead=[(0, 0), (2, 1)]))]
    # the same with a dead cell given mass below DEGRADE_TOL and another
    # back law: it must still pass, since such an x2 is never compared
    ch = chans[-1][1]
    w = ch.w.copy()
    w[0, 0, 0, 0] = 1e-10
    w[1, 0, 0, 0] -= 1e-10
    chans.append(("degraded-dead-first-noise", DiscreteIC(w)))
    # break degradedness at one live x2 only
    w = ch.w.copy()
    w[1, :, 1, 2] = w[1, ::-1, 1, 2]
    chans.append(("degraded-broken", DiscreteIC(w)))
    return chans


DEGRADEDNESS_CHANNELS = degradedness_channels()


@pytest.mark.parametrize("name, ch", DEGRADEDNESS_CHANNELS,
                         ids=[c[0] for c in DEGRADEDNESS_CHANNELS])
def test_degraded_given_matches_loop(name, ch):
    for which in ("y1", "y2"):
        assert dsc._degraded_given(ch, which) == degraded_given_loop(ch, which)
    if name in ("degraded", "degraded-dead-first", "degraded-dead-first-noise",
                "copy", "constant"):
        assert dsc._degraded_given(ch, "y2")
    if name == "degraded-broken":
        assert not dsc._degraded_given(ch, "y2")


@pytest.mark.parametrize("used", [2, 3, 6])
def test_structured_v_kernels_on_2x3_channel(used):
    # v takes |X1|·|X2| = 6 labels: v = x1 uses 2 of them, v = x2 uses 3 and
    # v = (x1, x2) all 6; the constant v comes next, then the Dirichlet draws
    ch = random_discrete(np.random.default_rng(9), (2, 2, 2, 3))
    k = {2: 0, 3: 1, 6: 2}[used]
    want = np.zeros((2, 3, 6))
    constant = np.zeros((2, 3, 6))
    for x1, x2 in itertools.product(range(2), range(3)):
        want[x1, x2, (x1, x2, 3 * x1 + x2)[k]] = 1.0
        constant[x1, x2, 0] = 1.0
    got = dsc._sample_v_kernels(ch, 5, np.random.default_rng(1))
    assert len(got) == 9
    assert np.array_equal(got[k], want)
    assert np.flatnonzero(got[k].sum(axis=(0, 1))).tolist() == list(range(used))
    assert np.array_equal(got[3], constant)
    draws = np.random.default_rng(1).gamma(1.0, size=(5, 2, 3, 6))
    assert np.array_equal(got[4:], draws / draws.sum(axis=-1, keepdims=True))
