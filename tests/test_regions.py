import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icbounds import RateRegion, convex_hull, from_csv, frontier_csv
from icbounds.errors import InputError
from icbounds.regions import FRONTIER_SAMPLES, hull_of_points, pentagon_vertices

from conftest import edge_floats
from reference import (
    RateConstraint,
    UnboundedRegionError,
    contains,
    from_constraints,
    gap,
    hull_of_points_loop,
    includes,
    is_point,
    vertices,
)


def tri(s: float = 1.0) -> RateRegion:
    return from_constraints([
        RateConstraint(1, 0, s), RateConstraint(0, 1, s), RateConstraint(1, 1, s),
    ])


def test_triangle():
    reg = from_constraints([
        RateConstraint(1, 1, 1.0), RateConstraint(1, 0, 1.0), RateConstraint(0, 1, 1.0),
    ])
    assert np.allclose(reg.r1, [0.0, 1.0])
    assert np.allclose(reg.r2, [1.0, 0.0])
    assert vertices(reg).tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_origin_only():
    reg = from_constraints([RateConstraint(1, 0, 0.0), RateConstraint(0, 1, 0.0)])
    assert is_point(reg)
    assert vertices(reg).tolist() == [[0.0, 0.0]]


def test_unbounded_errors():
    with pytest.raises(UnboundedRegionError):
        from_constraints([])
    with pytest.raises(UnboundedRegionError):
        from_constraints([RateConstraint(1, 0, 1.0)])
    with pytest.raises(UnboundedRegionError):
        from_constraints([RateConstraint(0, 1, 1.0)])


def test_constraint_validation():
    with pytest.raises(InputError):
        RateConstraint(0, 0, 1.0)
    with pytest.raises(InputError):
        RateConstraint(1, 1, -0.5)
    with pytest.raises(InputError):
        RateConstraint(-1, 1, 1.0)


@st.composite
def constraint_sets(draw):
    n = draw(st.integers(1, 6))
    cs = [RateConstraint(1, 0, draw(st.floats(0.1, 5))),
          RateConstraint(0, 1, draw(st.floats(0.1, 5)))]
    pats = [(1, 1), (2, 1), (1, 2), (1, 0), (0, 1)]
    for _ in range(n):
        c1, c2 = pats[draw(st.integers(0, 4))]
        cs.append(RateConstraint(c1, c2, draw(st.floats(0.05, 8))))
    return cs


@given(constraint_sets(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(cs, shuffler):
    base = from_constraints(cs)
    mixed = list(cs)
    shuffler.shuffle(mixed)
    other = from_constraints(mixed)
    assert np.allclose(base.r1, other.r1, atol=1e-12)
    assert np.allclose(base.r2, other.r2, atol=1e-12)


def test_dominated_constraint_is_ignored():
    base = tri()
    more = from_constraints([
        RateConstraint(1, 0, 1.0), RateConstraint(0, 1, 1.0),
        RateConstraint(1, 1, 1.0), RateConstraint(1, 1, 50.0),
    ])
    assert np.allclose(base.r1, more.r1) and np.allclose(base.r2, more.r2)


def test_includes_reflexive_and_scaled():
    reg = tri()
    assert includes(reg, reg, tol=1e-12)
    double = tri(2.0)
    assert includes(double, reg)
    assert not includes(reg, double)


def test_includes_transitive_on_nested():
    a, b, c = tri(2.0), tri(1.0), tri(0.5)
    assert includes(a, b) and includes(b, c) and includes(a, c)


def test_gap_sign():
    assert gap(tri(2.0), tri(1.0)) == pytest.approx(1.0, abs=1e-9)
    # same extent, strictly lower frontier: signed negative
    low = from_constraints([RateConstraint(1, 0, 1.0), RateConstraint(0, 1, 0.4),
                            RateConstraint(1, 1, 1.0)])
    square = from_constraints([RateConstraint(1, 0, 1.0), RateConstraint(0, 1, 1.0)])
    assert gap(low, square) == pytest.approx(-0.6, abs=1e-9)


def test_hull_concavifies_staircase():
    stair = RateRegion(np.array([0.0, 0.5, 0.5001, 1.0]),
                       np.array([1.0, 1.0, 0.5, 0.5]))
    hull = convex_hull(stair)
    mid = float(hull.frontier_at(0.75))
    assert mid >= 0.5 + 0.2  # chord lifts the step


def test_csv_round_trip():
    reg = tri(1.0)
    text = frontier_csv(reg)
    lines = text.strip().splitlines()
    assert lines[0] == "r1,r2"
    back = from_csv(text)
    xs = np.linspace(0, 1, 311)
    assert np.max(np.abs(back.frontier_at(xs) - reg.frontier_at(xs))) < 1e-8
    col = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))


def test_csv_point_region():
    from icbounds.regions import point_region

    assert frontier_csv(point_region()) == "r1,r2\n0,0\n"


def _fstring_csv(region: RateRegion) -> str:
    """``frontier_csv`` with each row formatted from numpy scalars by an
    f-string, the reference for its bytes."""
    n = FRONTIER_SAMPLES if region.r1_max > 0 else 1
    grid = np.linspace(0.0, region.r1_max, n)
    vals = np.maximum(np.interp(grid, region.r1, region.r2), 0.0)
    return "".join(["r1,r2\n"] + [f"{x:.9g},{y:.9g}\n" for x, y in zip(grid, vals)])


def test_csv_bytes_match_fstring_form_on_edge_values(rng):
    r2 = edge_floats(rng, FRONTIER_SAMPLES)
    for r1_max in (1.0, 5e-324, 1e-320, 1e300, 1.2345678850000001):
        # at the CSV's own abscissae the interpolation returns r2 as given
        region = RateRegion(np.linspace(0.0, r1_max, FRONTIER_SAMPLES), r2)
        text = frontier_csv(region)
        assert text == _fstring_csv(region)
        if r1_max == 1.0:
            for v in ("0", "4.94065646e-324", "1e+300", "0.0001", "1e+10"):
                assert f",{v}\n" in text
    for v in r2[::37]:  # one-row regions, r1_max == 0
        region = RateRegion([0.0], [v])
        assert frontier_csv(region) == _fstring_csv(region)
        assert frontier_csv(region).count("\n") == 2


def test_csv_validation():
    with pytest.raises(InputError):
        from_csv("nope\n1,2\n")
    with pytest.raises(InputError):
        from_csv("r1,r2\n")
    with pytest.raises(InputError):
        from_csv("r1,r2\n1,abc\n")


@given(st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_hull_of_points_contains_inputs(points):
    hull = hull_of_points(np.array(points))
    for x, y in points:
        assert contains(hull, x, y, tol=1e-9)


def same_hull(points) -> RateRegion:
    """``hull_of_points``, checked byte for byte against the point loop."""
    got, want = hull_of_points(points), hull_of_points_loop(points)
    assert got.r1.tobytes() == want.r1.tobytes()
    assert got.r2.tobytes() == want.r2.tobytes()
    return got


def near_chord(d: float) -> list:
    """(0.5, 0.5 + d) between (0, 1) and (1, 0): the chain's cross product
    at the middle point is -d, rounded."""
    return [[0.0, 1.0], [0.5, 0.5 + d], [1.0, 0.0]]


HULL_CASES = {
    "empty": np.zeros((0, 2)),
    "one-point": [[0.7, 0.3]],
    "origin": [[0.0, 0.0]],
    "axis-only": [[0.0, 0.3], [0.0, 0.7], [-0.0, 0.2]],
    "ties-in-x": [[0.5, 0.2], [0.5, 0.9], [0.5, 0.4], [1.0, 0.1], [1.0, 0.3],
                  [0.0, 0.95], [1.0, 0.3]],
    "equal-heights": [[0.2, 1.0], [0.6, 1.0], [0.9, 1.0], [1.2, 0.5], [1.4, 0.5],
                      [1.4, 0.0]],
    "top-away-from-axis": [[0.8, 1.0], [0.3, 0.6], [1.5, 0.2]],
    "clipped-negatives": [[-1e-13, 0.5], [0.4, -2e-13], [0.2, 0.3], [0.4, 0.0]],
    "collinear": [[x, 1.0 - x] for x in np.linspace(0.0, 1.0, 11)],
    "dominated-inside": [[0.0, 1.0], [0.3, 0.2], [0.6, 0.1], [0.2, 0.2], [1.0, 0.5]],
    "within-tolerance": near_chord(4e-16),
    "beyond-tolerance": near_chord(2e-15),
}


@pytest.mark.parametrize("points", HULL_CASES.values(), ids=HULL_CASES.keys())
def test_hull_staircase_matches_point_loop(points):
    hull = same_hull(np.array(points, dtype=float).reshape(-1, 2))
    if points is HULL_CASES["within-tolerance"]:
        assert hull.r1.tolist() == [0.0, 1.0]  # the middle point is dropped
    if points is HULL_CASES["beyond-tolerance"]:
        assert hull.r1.tolist() == [0.0, 0.5, 1.0]
    if points is HULL_CASES["empty"]:
        assert is_point(hull)


def test_hull_staircase_matches_point_loop_on_random_points():
    # quantized coordinates give ties in x and equal heights; pentagon
    # vertices are the inner regions' input; points on a line with jitter
    # of a few ulps sit within the chain's -1e-15 tolerance
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        x = rng.uniform(0.0, 2.0, n)
        same_hull(rng.integers(0, 7, size=(n, 2)) / 4.0)
        same_hull(pentagon_vertices(*rng.uniform(0.0, 1.6, size=(3, n))))
        same_hull(np.column_stack([x, 1.5 - 0.7 * x + rng.normal(0, 2e-16, n)]))
        same_hull(np.column_stack([x, np.sqrt(4.0 - x * x)
                                   + rng.normal(0, 5e-16, n)]))


def test_hull_is_the_same_at_every_power_of_two_scale():
    # the chord tolerance scales with the region: shrinking the points by
    # 2^-k shrinks the hull by exactly 2^-k and drops no vertex
    rng = np.random.default_rng(5)
    sets = [np.array([[0.0, 1.0], [0.5, 0.9], [1.0, 0.0]]),
            np.array(near_chord(2e-15))]
    sets += [rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 60)), 2))
             for _ in range(20)]
    sets += [pentagon_vertices(*rng.uniform(0.0, 0.5, size=(3, 40)))
             for _ in range(5)]
    for points in sets:
        want = same_hull(points)
        for k in range(41):
            got = same_hull(2.0**-k * points)
            assert got.r1.tobytes() == (2.0**-k * want.r1).tobytes(), k
            assert got.r2.tobytes() == (2.0**-k * want.r2).tobytes(), k
    small = hull_of_points(sets[0] * 1e-8)
    assert small.r1.size == 3
    assert float(small.frontier_at(0.5e-8)) == pytest.approx(0.9e-8, rel=1e-12)


def test_region_validation():
    with pytest.raises(InputError):
        RateRegion(np.array([0.0, 1.0]), np.array([0.5, 0.8]))  # increasing r2
    with pytest.raises(InputError):
        RateRegion(np.array([1.0, 0.0]), np.array([1.0, 1.0]))  # r1 not ascending


@pytest.mark.parametrize("text", [
    "r1,r2\n0,1\n1,0,0\n",      # ragged: one row with three values
    "r1,r2\n0,1,2\n1,0,3\n",    # every row with three values
    "r1,r2\n0\n1\n",            # one value per row
    "r1,r2\n0,\n",              # an empty value
    "r1,r2\n0,nan\n1,0\n",
    "r1,r2\nnan,1\n1,0\n",
    "r1,r2\n0,inf\n1,0\n",
    "r1,r2\n0,1\ninf,0\n",
    "r1,r2\n0,1\n1,-inf\n",
], ids=["ragged", "three", "one", "empty", "nan-r2", "nan-r1", "inf-r2", "inf-r1",
        "-inf-r2"])
def test_csv_rows_hold_two_finite_numbers(text):
    with pytest.raises(InputError):
        from_csv(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_region_values_must_be_finite(bad):
    for r1, r2 in (([0.0, bad], [1.0, 0.0]), ([0.0, 1.0], [bad, 0.0]),
                   ([bad], [bad])):
        with pytest.raises(InputError, match="finite"):
            RateRegion(np.array(r1), np.array(r2))
