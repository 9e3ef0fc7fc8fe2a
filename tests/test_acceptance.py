"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import icbounds
from icbounds import (
    CorrelatedGaussianIC,
    DiscreteIC,
    GaussianIC,
    SimConfig,
    capacity_region_one_sided,
    capacity_region_strong,
    check_condition,
    classify,
    inner_region_strong,
    outer_region,
    psi,
    simulate,
    sum_capacity_fwd_own,
)

from conftest import brute_mi, random_channel, xor_copy_channel
from reference import (
    AXES7,
    AuxJointDist,
    BoundParams,
    constraints_at,
    full_system,
    gaussian_mi,
    includes,
    joint_with_aux,
    outer_constraints,
    to_json_dict,
)

FIG2 = GaussianIC(100, 60, 60, 100, 1.0, 1.0, 0.5, 0.5)


@pytest.fixture
def report(capsys):
    """Emit one live pass/fail line per criterion, then enforce it."""

    def _report(num: int, name: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            print(f"[acceptance {num:02d}] {name}: "
                  f"{'PASS' if ok else 'FAIL'} {detail}")
        assert ok, f"criterion {num} ({name}) failed: {detail}"

    return _report


def test_c01_determinant_identity(report):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ch = random_channel(rng)
        rhs = constraints_at(ch, BoundParams(rng.uniform(), rng.uniform()))[8].rhs
        h = np.array([[ch.s11, ch.s12], [ch.s21, ch.s22]])
        m = np.eye(2) + h @ np.diag([ch.p1, ch.p2]) @ h.T
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        worst = max(worst, abs(rhs - 0.5 * np.log2(det)))
    elapsed = time.perf_counter() - start
    report(1, "determinant identity", worst <= 1e-9 and elapsed < 1.0,
           f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_c02_genie_cross_checks(report):
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        ch = random_channel(rng)
        cs = constraints_at(ch, BoundParams(rng.uniform(), rng.uniform()))
        sysf = full_system(ch)
        want10 = (gaussian_mi(sysf, ("x1", "x2"), ("y1",), ("g1",))
                  + gaussian_mi(sysf, ("x1", "x2"), ("y2",), ("g2",))
                  + ch.d12 + ch.d21)
        worst = max(worst, abs(cs[9].rhs - want10))
        got15 = cs[14].rhs - psi(ch.s11**2 * ch.p1 + ch.s12**2 * ch.p2) - ch.d21
        worst = max(worst, abs(
            got15 - gaussian_mi(sysf, ("x1", "x2"), ("y1", "y2"), ("gt2",))))
        got16 = cs[15].rhs - psi(ch.s21**2 * ch.p1 + ch.s22**2 * ch.p2) - ch.d12
        worst = max(worst, abs(
            got16 - gaussian_mi(sysf, ("x1", "x2"), ("y1", "y2"), ("gt1",))))
    report(2, "genie cross-checks", worst <= 1e-9, f"(worst {worst:.2e})")


def test_c03_transform_identities(report):
    rng = np.random.default_rng(103)
    worst_cov = 0.0
    worst_mi = 0.0
    for _ in range(1000):
        ch = random_channel(rng)
        sysf = full_system(ch)
        # residual noises pair with the opposite rotated output's noise;
        # the same-index pairing stated elsewhere is nonzero for generic
        # gains (see the decisions ledger)
        worst_cov = max(
            worst_cov,
            abs(sysf.cov[sysf.index("zb1"), sysf.index("zh2")]),
            abs(sysf.cov[sysf.index("zb2"), sysf.index("zh1")]),
        )
        lhs = gaussian_mi(sysf, ("x2",), ("y1", "y2"), ("x1",))
        rhs = gaussian_mi(sysf, ("x2",), ("yh1", "y2"), ("x1",))
        worst_mi = max(worst_mi, abs(lhs - rhs))
    report(3, "transform identities", worst_cov <= 1e-12 and worst_mi <= 1e-9,
           f"(cov {worst_cov:.2e}, invertibility {worst_mi:.2e})")


def test_c04_conference_monotonicity(report):
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        s = rng.uniform(0.1, 3.0, size=4)
        p1, p2 = rng.uniform(0.1, 5.0, size=2)
        small = outer_region(GaussianIC(*s, p1, p2, 0.5, 0.5), grid_n=11)
        large = outer_region(GaussianIC(*s, p1, p2, 1.0, 1.0), grid_n=11)
        ok = ok and includes(large, small, tol=1e-9)
    report(4, "conference monotonicity", ok)


def test_c05_grid_convergence(report):
    start = time.perf_counter()
    r201 = outer_region(FIG2, grid_n=201)
    t201 = time.perf_counter() - start
    r51 = outer_region(FIG2, grid_n=51)
    xs = np.linspace(0.0, r201.r1_max, 2048)
    sup = float(np.max(np.abs(r201.frontier_at(xs) - r51.frontier_at(xs))))
    report(5, "grid convergence", sup < 0.02 and t201 < 10.0,
           f"(sup diff {sup:.4f} bits, {t201:.2f}s at grid 201)")


def test_c06_corollary_boundary_consistency(report):
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        s21 = rng.uniform(0.2, 1.5)
        s11 = s21 * rng.uniform(1.0, 3.0)
        s22 = (s11**2 - s21**2) / (2 * s11 * s21)
        ch = CorrelatedGaussianIC("gaussian-6", s11, rng.uniform(0.2, 2.0), s21,
                                  s22, rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0),
                                  d12=rng.uniform(0, 1))
        assert classify("gaussian-6", *ch.gains).margin == 0.0
        msum = capacity_region_strong(ch).max_sum()
        worst = max(worst, abs(msum - sum_capacity_fwd_own(ch)))
    report(6, "corollary boundary consistency", worst <= 1e-9,
           f"(worst {worst:.2e})")


def test_c07_capacity_inside_bound(report):
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        s11 = rng.uniform(0.2, 2.0)
        ch = GaussianIC(s11, 0.0, s11 * rng.uniform(1.0, 2.5),
                        rng.uniform(0.2, 2.0), rng.uniform(0.3, 4.0),
                        rng.uniform(0.3, 4.0), rng.uniform(0, 1), 0.0)
        cap = capacity_region_one_sided(ch)
        ok = ok and includes(outer_region(ch, grid_n=11), cap, tol=1e-6)
    report(7, "capacity inside outer bound", ok)


def test_c08_discrete_oracle_equivalence(report):
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x2, x1, x2] = 1.0
    d12, d21 = 0.25, 0.75
    ch = DiscreteIC(w, d12=d12, d21=d21)
    dist = AuxJointDist.uniform(2, 2)
    cs = outer_constraints(ch, dist)
    j = joint_with_aux(ch, dist)
    o = lambda a, b, c=(): brute_mi(j, AXES7, a, b, c)
    want = [
        min(o(("u", "x1"), ("y1",), ("q",)) + d21,
            o(("x1",), ("y1",), ("x2", "q")) + d21),
        o(("x1",), ("y1",), ("y2", "x2", "v", "q")) + o(("x1",), ("y2",), ("x2", "q")),
        o(("x1",), ("y2",), ("y1", "x2", "v", "q")) + o(("x1",), ("y1",), ("x2", "q")),
        min(o(("v", "x2"), ("y2",), ("q",)) + d12,
            o(("x2",), ("y2",), ("x1", "q")) + d12),
        o(("x2",), ("y2",), ("y1", "x1", "u", "q")) + o(("x2",), ("y1",), ("x1", "q")),
        o(("x2",), ("y1",), ("y2", "x1", "u", "q")) + o(("x2",), ("y2",), ("x1", "q")),
        o(("x1",), ("y1",), ("v", "x2", "q"))
        + o(("v", "x2"), ("y2",), ("q",)) + d12 + d21,
        o(("x2",), ("y2",), ("u", "x1", "q"))
        + o(("u", "x1"), ("y1",), ("q",)) + d12 + d21,
        o(("x1",), ("y1",), ("y2", "x2", "v", "q"))
        + o(("x1", "x2"), ("y2",), ("q",)) + d12,
        o(("x2",), ("y2",), ("y1", "x1", "u", "q"))
        + o(("x1", "x2"), ("y1",), ("q",)) + d21,
        o(("x1", "x2"), ("y1", "y2"), ("q",)),
    ]
    worst = max(abs(c.rhs - v) for c, v in zip(cs, want))
    report(8, "discrete oracle equivalence", worst <= 1e-10,
           f"(worst {worst:.2e})")


def test_c09_simulator_achievability_trend(report):
    start = time.perf_counter()
    ch = xor_copy_channel(d12=0.25 / 0.7)
    rep = check_condition(ch, 4, grid=11)
    assert rep.holds_on_searched_family and rep.markov_ok
    region = inner_region_strong(ch, grid=11)
    lo, hi = 0.0, region.r1_max
    for _ in range(60):  # diagonal frontier crossing to machine precision
        mid = 0.5 * (lo + hi)
        if float(region.frontier_at(mid)) >= mid:
            lo = mid
        else:
            hi = mid
    t_star = lo
    results = []
    for n in (4, 8, 12):
        results.append(simulate(SimConfig(
            ch, n=n, r1=0.7 * t_star, r2=0.7 * t_star,
            scheme="thm2", trials=10_000, seed=42)))
    trend_ok = all(
        b.err1 <= a.err1 + a.err1_ci95 + b.err1_ci95
        and b.err2 <= a.err2 + a.err2_ci95 + b.err2_ci95
        for a, b in zip(results, results[1:]))
    over = simulate(SimConfig(ch, n=12, r1=1.3 * t_star, r2=1.3 * t_star,
                              scheme="thm2", trials=10_000, seed=42))
    overload_ok = max(over.err1, over.err2) >= 0.2
    elapsed = time.perf_counter() - start
    errs = ", ".join(f"{r.err1:.4f}" for r in results)
    report(9, "simulator achievability trend",
           trend_ok and overload_ok and elapsed < 60.0,
           f"(errors {errs}; overload {max(over.err1, over.err2):.3f}; "
           f"{elapsed:.1f}s)")


def test_c10_cli_determinism(tmp_path, report):
    spec = tmp_path / "ch.json"
    spec.write_text(json.dumps({
        "type": "gaussian", "s11": 1.3, "s12": 0.6, "s21": 0.9, "s22": 1.1,
        "p1": 2.0, "p2": 1.5, "d12": 0.4, "d21": 0.7}))
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "channel": to_json_dict(xor_copy_channel()),
        "n": 8, "r1": 0.25, "r2": 0.25, "d12": 0.5, "scheme": "thm2",
        "trials": 400, "seed": 7}))

    # The child runs from tmp_path, where a relative PYTHONPATH entry such as
    # "src" finds nothing; point it at the copy of the package under test.
    env = dict(os.environ)
    package_root = str(Path(icbounds.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "icbounds", *args],
                              capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    outs, sims = [], []
    target = tmp_path / "out.csv"
    for _ in range(2):
        outs.append(run(["outer", "--channel", str(spec), "--grid", "11",
                         "--out", str(target)]) + target.read_bytes())
        target.unlink()
        sims.append(run(["simulate", "--config", str(cfg)]))
    report(10, "cli determinism", outs[0] == outs[1] and sims[0] == sims[1])


def test_c11_condition_checker_soundness(report):
    w_copy = np.zeros((2, 2, 2, 2))
    w_const = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w_copy[x1, x1, x1, x2] = 1.0
        w_const[x1, 0, x1, x2] = 1.0
    good = check_condition(DiscreteIC(w_copy), 4, grid=21)
    bad = check_condition(DiscreteIC(w_const), 4, grid=21)
    ok = (good.holds_on_searched_family and good.markov_ok
          and not bad.holds_on_searched_family and bad.worst_gap <= -0.99)
    report(11, "condition checker soundness", ok,
           f"(copy gap {good.worst_gap:.2e}, broken gap {bad.worst_gap:.3f})")
