import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import icbounds
from icbounds import GaussianIC, outer_bound, regions
from icbounds.cli import FIGURE_PRESETS, main

from conftest import edge_floats


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def gaussian_doc(**kw):
    doc = {"type": "gaussian", "s11": 1.3, "s12": 0.6, "s21": 0.9, "s22": 1.1,
           "p1": 2.0, "p2": 1.5, "d12": 0.4, "d21": 0.7}
    doc.update(kw)
    return doc


def discrete_doc(d12=0.5):
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1 ^ x2, x1, x1, x2] = 1.0
    return {"type": "discrete", "ny1": 2, "ny2": 2, "nx1": 2, "nx2": 2,
            "w": [float(v) for v in w.reshape(-1)], "d12": d12}


def test_outer_writes_frontier(tmp_path, runner):
    spec = write_json(tmp_path / "ch.json", gaussian_doc())
    out = tmp_path / "region.csv"
    res = runner.invoke(main, ["outer", "--channel", spec, "--grid", "11",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r1,r2"
    assert len(lines) > 100


def test_outer_hull_flag(tmp_path, runner):
    spec = write_json(tmp_path / "ch.json", gaussian_doc())
    raw, hull = tmp_path / "raw.csv", tmp_path / "hull.csv"
    assert runner.invoke(main, ["outer", "--channel", spec, "--grid", "11",
                                "--out", str(raw)]).exit_code == 0
    assert runner.invoke(main, ["outer", "--channel", spec, "--grid", "11",
                                "--hull", "--out", str(hull)]).exit_code == 0
    from icbounds import from_csv
    from reference import includes

    assert includes(from_csv(hull.read_text()), from_csv(raw.read_text()),
                    tol=1e-6)


def test_outer_builds_one_evaluator(tmp_path, runner, monkeypatch):
    from icbounds import outer_bound

    built = []

    class Counting(outer_bound._UnionEvaluator):
        def __init__(self, ch, grid_n):
            built.append(grid_n)
            super().__init__(ch, grid_n)

    monkeypatch.setattr(outer_bound, "_UnionEvaluator", Counting)
    outer_bound._evaluator.cache_clear()
    spec = write_json(tmp_path / "ch.json", gaussian_doc())
    res = runner.invoke(main, ["outer", "--channel", spec, "--grid", "11",
                               "--out", str(tmp_path / "region.csv")])
    assert res.exit_code == 0, res.output
    assert "max sum rate" in res.output
    assert built == [11]
    outer_bound._evaluator.cache_clear()


def test_outer_samples_the_frontier_once(tmp_path, runner, monkeypatch):
    from icbounds import outer_bound

    calls = []
    frontier = outer_bound._UnionEvaluator.frontier

    def counting(self, x):
        calls.append(np.size(x))
        return frontier(self, x)

    monkeypatch.setattr(outer_bound._UnionEvaluator, "frontier", counting)
    spec = write_json(tmp_path / "ch.json", gaussian_doc())
    for extra in ([], ["--hull"]):
        calls.clear()
        res = runner.invoke(main, ["outer", "--channel", spec, "--grid", "11",
                                   "--out", str(tmp_path / "region.csv")] + extra)
        assert res.exit_code == 0, res.output
        assert calls == [512]
    calls.clear()
    res = runner.invoke(main, ["figure", "--preset", "fig2", "--grid", "11",
                               "--out", str(tmp_path / "figs")])
    assert res.exit_code == 0, res.output
    assert calls == [512]


def test_outer_zero_gain_channel(tmp_path, runner):
    # s22 = 0: the warped beta grid must end at exactly 1, or 1 - beta < 0
    spec = write_json(tmp_path / "ch.json", gaussian_doc(
        s11=0.5, s12=2.2, s21=2.3, s22=0.0, p1=4.8, p2=3.1, d12=1.4, d21=0.8))
    out = tmp_path / "region.csv"
    res = runner.invoke(main, ["outer", "--channel", spec, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "max sum rate" in res.output
    assert out.read_text().startswith("r1,r2\n")


# user 1 reaches neither receiver (p1 = 0, or s11 = s21 = 0), so the bound
# has zero R1 extent and its one row is user 2's rate: psi(1) = 0.5, plus
# d12 = 0.2 in the second; with both powers zero it is the origin
ZERO_EXTENT = {
    "p1-zero": (gaussian_doc(s11=1.0, s12=1.0, s21=1.0, s22=1.0, p1=0.0, p2=1.0,
                             d12=0.0, d21=0.0), "0.5"),
    "s11-s21-zero": (gaussian_doc(s11=0.0, s12=1.0, s21=0.0, s22=1.0, p1=1.0,
                                  p2=1.0, d12=0.2, d21=0.0), "0.7"),
    "powers-zero": (gaussian_doc(s11=3.0, s12=2.0, s21=1.0, s22=4.0, p1=0.0,
                                 p2=0.0, d12=0.7, d21=0.9), "0"),
}


@pytest.mark.parametrize("hull", [[], ["--hull"]], ids=["raw", "hull"])
@pytest.mark.parametrize("case", sorted(ZERO_EXTENT))
def test_outer_zero_extent_writes_the_sum_rate(tmp_path, runner, case, hull):
    doc, rate = ZERO_EXTENT[case]
    spec = write_json(tmp_path / "ch.json", doc)
    out = tmp_path / "region.csv"
    res = runner.invoke(main, ["outer", "--channel", spec, "--out", str(out)] + hull)
    assert res.exit_code == 0, res.output
    assert res.stdout == f"wrote {out} (max sum rate {rate} bits/use)\n"
    assert out.read_text() == f"r1,r2\n0,{rate}\n"


def test_outer_rejects_malformed_json(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "gaussian", ')
    out = tmp_path / "nope.csv"
    res = runner.invoke(main, ["outer", "--channel", str(bad), "--out", str(out)])
    assert res.exit_code == 2
    assert not out.exists()


def test_outer_rejects_wrong_type(tmp_path, runner):
    spec = write_json(tmp_path / "d.json", discrete_doc())
    res = runner.invoke(main, ["outer", "--channel", spec, "--out",
                               str(tmp_path / "x.csv")])
    assert res.exit_code == 2


def test_figure_presets(tmp_path, runner):
    res = runner.invoke(main, ["figure", "--preset", "fig3", "--grid", "11",
                               "--out", str(tmp_path / "figs")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "figs" / "fig3_bound.csv").exists()
    assert (tmp_path / "figs" / "fig3_bound_hull.csv").exists()


def test_figure_comparison_slot(tmp_path, runner):
    ext = tmp_path / "external.csv"
    ext.write_text("r1,r2\n0,8\n4,8\n8,0\n")
    res = runner.invoke(main, ["figure", "--preset", "fig2", "--grid", "11",
                               "--out", str(tmp_path / "figs"),
                               "--compare", str(ext)])
    assert res.exit_code == 0, res.output
    comp = (tmp_path / "figs" / "fig2_comparison.csv").read_text().splitlines()
    assert comp[0] == "r1,r2_bound,r2_external,difference"


def test_figure_compare_reads_a_rising_frontier_as_its_down_closure(tmp_path,
                                                                   runner):
    # the points (0, 1), (1, 2), (2, 0): rate pairs with R2 = 2 are
    # reachable at every r1 up to 1
    ext = tmp_path / "external.csv"
    ext.write_text("r1,r2\n0,1\n1,2\n2,0\n")
    res = runner.invoke(main, ["figure", "--preset", "fig2", "--grid", "11",
                               "--out", str(tmp_path / "figs"),
                               "--compare", str(ext)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "figs" / "fig2_comparison.csv").read_text().splitlines()[1:]
    left = [float(b) for x, _, b, _ in (row.split(",") for row in rows)
            if float(x) <= 1.0]
    assert len(left) > 1 and left == [2.0] * len(left)


def test_figure_unknown_preset(tmp_path, runner):
    res = runner.invoke(main, ["figure", "--preset", "fig9",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_classify_cascade(tmp_path, runner):
    spec = write_json(tmp_path / "g6.json", {
        "type": "gaussian-6", "s11": 2.0, "s12": 1.0, "s21": 2.0, "s22": 0.9,
        "p1": 1.0, "p2": 1.0, "d12": 0.3})
    res = runner.invoke(main, ["classify", "--channel", spec])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["label"] == "corollary-1"
    assert doc["margin"] == pytest.approx(0.9)


def test_classify_boundary(tmp_path, runner):
    spec = write_json(tmp_path / "g6.json", {
        "type": "gaussian-6", "s11": 2.0, "s12": 1.0, "s21": 1.0, "s22": 0.75,
        "p1": 1.0, "p2": 1.0, "d12": 0.3})
    doc = json.loads(runner.invoke(main, ["classify", "--channel", spec]).output)
    assert doc["margin"] == 0.0 and doc["boundary"]


def test_classify_undefined_threshold(tmp_path, runner):
    spec = write_json(tmp_path / "g6.json", {
        "type": "gaussian-6", "s11": 0.0, "s12": 1.0, "s21": 1.0, "s22": 0.75,
        "p1": 1.0, "p2": 1.0, "d12": 0.3})
    assert runner.invoke(main, ["classify", "--channel", spec]).exit_code == 3


# Gains whose threshold arithmetic overflows (1e200**2) or divides by an
# underflowed 2*s11*s21 (1e-200): undefined threshold, exit 3, as for a zero
# gain.  --force skips the gate; the forced evaluation at 1e200 then
# overflows the covariance (exit 2) and at 1e-200 succeeds.
@pytest.mark.parametrize("gain, forced_code", [(1e200, 2), (1e-200, 0)],
                         ids=["overflow", "underflow"])
@pytest.mark.parametrize("kind, theorems", [("gaussian-6", ("2", "3")),
                                            ("gaussian-13", ("4",))])
def test_threshold_outside_float_range(tmp_path, runner, gain, forced_code,
                                       kind, theorems):
    spec = write_json(tmp_path / "c.json", {
        "type": kind, "s11": gain, "s12": 0.4, "s21": gain, "s22": 0.5,
        "p1": 1.0, "p2": 1.0, "d12": 0.1})
    res = runner.invoke(main, ["classify", "--channel", spec])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    for theorem in theorems:
        args = ["inner", "--channel", spec, "--theorem", theorem,
                "--out", str(tmp_path / "r.out")]
        gated = runner.invoke(main, args)
        assert gated.exit_code == 3, gated.output
        assert isinstance(gated.exception, SystemExit)
        forced = runner.invoke(main, args + ["--force"])
        assert forced.exit_code == forced_code, forced.output
        assert forced.exception is None or isinstance(forced.exception, SystemExit)
        if forced_code == 2:
            assert "gains or powers are too large" in forced.output


def test_inner_theorem5_shape_gate(tmp_path, runner):
    spec = write_json(tmp_path / "ch.json", gaussian_doc(s12=0.5))
    res = runner.invoke(main, ["inner", "--channel", spec, "--theorem", "5",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


def test_inner_theorem5_region(tmp_path, runner):
    spec = write_json(tmp_path / "ch.json",
                      gaussian_doc(s12=0.0, s11=1.0, s21=2.0, s22=1.0,
                                   p1=1.0, p2=1.0, d12=0.5, d21=0.0))
    out = tmp_path / "t5.csv"
    res = runner.invoke(main, ["inner", "--channel", spec, "--theorem", "5",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = out.read_text().strip().splitlines()[1:]
    assert float(rows[0].split(",")[1]) == pytest.approx(0.5, abs=1e-9)


def test_inner_regime_gate_exit_code(tmp_path, runner):
    spec = write_json(tmp_path / "g6.json", {
        "type": "gaussian-6", "s11": 3.0, "s12": 1.0, "s21": 1.0, "s22": 0.2,
        "p1": 1.0, "p2": 1.0, "d12": 0.3})
    res = runner.invoke(main, ["inner", "--channel", spec, "--theorem", "2",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 4
    res = runner.invoke(main, ["inner", "--channel", spec, "--theorem", "2",
                               "--force", "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 0


def test_inner_sum_capacity_json(tmp_path, runner):
    spec = write_json(tmp_path / "g6.json", {
        "type": "gaussian-6", "s11": 3.0, "s12": 1.0, "s21": 1.0, "s22": 1.0,
        "p1": 1.0, "p2": 1.0, "d12": 0.3})
    res = runner.invoke(main, ["inner", "--channel", spec, "--theorem", "3"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["theorem"] == 3 and doc["sum_capacity"] > 0


def test_inner_discrete_region(tmp_path, runner):
    spec = write_json(tmp_path / "d.json", discrete_doc(d12=0.5))
    out = tmp_path / "inner.csv"
    res = runner.invoke(main, ["inner", "--channel", spec, "--theorem", "2",
                               "--grid", "9", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_text().startswith("r1,r2\n")


def test_check_condition_fails_on_constant_output(tmp_path, runner):
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, 0, x1, x2] = 1.0
    spec = write_json(tmp_path / "d.json", {
        "type": "discrete", "ny1": 2, "ny2": 2, "nx1": 2, "nx2": 2,
        "w": [float(v) for v in w.reshape(-1)]})
    res = runner.invoke(main, ["check", "--channel", spec, "--condition", "4"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["holds_on_searched_family"] is False
    assert doc["worst_gap"] <= -0.99


@pytest.mark.parametrize("extra, text", [
    (["--aux-card", "0"], "No such option '--aux-card'"),
    (["--aux-card", "-1"], "No such option '--aux-card'"),
    (["--samples", "-1"], "error: samples must be nonnegative"),
    (["--grid", "1"], "error: simplex resolution must be at least 2"),
    (["--grid", "0"], "error: simplex resolution must be at least 2"),
], ids=["aux-card-0", "aux-card-neg", "samples-neg", "grid-1", "grid-0"])
def test_check_condition7_rejects_bad_counts(tmp_path, runner, extra, text):
    # v always takes |X1|·|X2| values, so --aux-card is a usage error
    spec = write_json(tmp_path / "d.json", discrete_doc())
    res = runner.invoke(main, ["check", "--channel", spec, "--condition", "7",
                               "--grid", "5", "--samples", "20"] + extra)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert text in res.output and res.stdout == ""


def test_check_condition7_zero_samples_runs(tmp_path, runner):
    # no random kernels: only v = x1, v = x2, v = (x1, x2) and a constant v
    spec = write_json(tmp_path / "d.json", discrete_doc())
    res = runner.invoke(main, ["check", "--channel", spec, "--condition", "7",
                               "--grid", "5", "--samples", "0"])
    assert res.exit_code == 0, res.output
    kernel = np.asarray(json.loads(res.output)["witnesses"]["v_kernel"])
    assert kernel.shape == (2, 2, 4)
    assert set(np.unique(kernel)) <= {0.0, 1.0}


def test_simulate_outputs_json(tmp_path, runner):
    cfg = {"channel": discrete_doc(), "n": 8, "r1": 0.25, "r2": 0.25,
           "d12": 0.5, "scheme": "thm2", "trials": 100, "seed": 11}
    spec = write_json(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, ["simulate", "--config", spec])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["trials"] == 100 and doc["seed"] == 11
    assert doc["err1"] <= 0.2


def test_simulate_noiseless_orthogonal(tmp_path, runner):
    cfg = {"channel": orthogonal_doc(), "n": 8, "r1": 0.5, "r2": 0.5,
           "d12": 0.0, "scheme": "thm2", "trials": 200, "seed": 5}
    spec = write_json(tmp_path / "cfg.json", cfg)
    doc = json.loads(runner.invoke(main, ["simulate", "--config", spec]).output)
    assert doc["err1"] == 0.0 and doc["err2"] == 0.0


def _simulate(tmp_path, runner, cfg) -> dict:
    spec = write_json(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, ["simulate", "--config", spec])
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def test_simulate_runs_at_the_channel_budget(tmp_path, runner):
    # a budget written only in the channel is the run's budget, as if it
    # were written at the top level; it used to be dropped (one cell)
    cfg = sim_config(n=10, r1=0.5, r2=0.5, trials=40, seed=4)
    in_channel = {k: v for k, v in cfg.items() if k != "d12"}
    top_level = {**cfg, "channel": discrete_doc(d12=0.0)}
    got = _simulate(tmp_path, runner, in_channel)
    assert got == _simulate(tmp_path, runner, top_level)
    assert got["cell_count"] == 32 and got["conference_bits_per_use"] == 0.5
    assert got["err2"] < _simulate(tmp_path, runner, {**cfg, "d12": 0.0})["err2"]


def test_simulate_top_level_budget_overrides_the_channel(tmp_path, runner):
    cfg = sim_config(channel=discrete_doc(d12=0.5), d12=0.2, n=10, r1=0.5,
                     r2=0.5, trials=40, seed=4)
    got = _simulate(tmp_path, runner, cfg)
    want = {k: v for k, v in cfg.items() if k != "d12"}
    want["channel"] = discrete_doc(d12=0.2)
    assert got == _simulate(tmp_path, runner, want)
    assert got["conference_bits_per_use"] == 0.2


def test_identical_invocations_identical_output(tmp_path, runner):
    spec = write_json(tmp_path / "ch.json", gaussian_doc())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = runner.invoke(main, ["outer", "--channel", spec, "--grid", "11",
                                   "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------ inner exit-code matrix

def cascade_doc(kind, s11, s12, s21, s22):
    return {"type": kind, "s11": s11, "s12": s12, "s21": s21, "s22": s22,
            "p1": 1.5, "p2": 0.8, "d12": 0.05}


def one_sided_discrete_doc(d12=0.4):
    """y1 = x1 through a binary symmetric channel, y2 = x1 xor x2."""
    w = np.zeros((2, 2, 2, 2))
    for x1, x2, y1 in itertools.product(range(2), repeat=3):
        w[y1, x1 ^ x2, x1, x2] = 0.9 if y1 == x1 else 0.1
    return {"type": "discrete", "ny1": 2, "ny2": 2, "nx1": 2, "nx2": 2,
            "w": [float(v) for v in w.reshape(-1)], "d12": d12}


# gaussian-6 with (s11, s21) = (2, 1) has threshold 0.75, gaussian-13 with
# (1, 2) has threshold 0.75; the one-sided gate is |s21| >= |s11|.
MATRIX_SPECS = {
    "g6-cor1": cascade_doc("gaussian-6", 2.0, 1.0, 2.0, 0.9),
    "g6-cor2": cascade_doc("gaussian-6", 3.0, 1.0, 1.0, 1.0),
    "g6-edge": cascade_doc("gaussian-6", 2.0, 1.0, 1.0, 0.75),
    "g6-near": cascade_doc("gaussian-6", 2.0, 1.0, 1.0, 0.75 - 5e-10),
    "g6-s11zero": cascade_doc("gaussian-6", 0.0, 1.0, 1.0, 0.75),
    "g6-s21zero": cascade_doc("gaussian-6", 1.5, 1.0, 0.0, 0.75),
    "g13-cor3": cascade_doc("gaussian-13", 1.0, 0.4, 2.0, 1.5),
    "g13-near": cascade_doc("gaussian-13", 1.0, 0.75 + 5e-10, 2.0, 1.5),
    "g13-none": cascade_doc("gaussian-13", 2.0, 1.0, 1.0, 1.0),
    "g13-s11zero": cascade_doc("gaussian-13", 0.0, 0.4, 2.0, 1.5),
    "g13-s21zero": cascade_doc("gaussian-13", 1.0, 0.4, 0.0, 1.5),
    "os-cor4": gaussian_doc(s11=1.0, s12=0.0, s21=2.0, s22=1.0, d12=0.1, d21=0.0),
    "os-near": gaussian_doc(s11=1.0, s12=0.0, s21=1.0 - 5e-10, s22=1.0, d12=0.1,
                            d21=0.0),
    "os-none": gaussian_doc(s11=2.0, s12=0.0, s21=1.0, s22=1.0, d12=0.1, d21=0.0),
    # the one-sided formulas see only squared gains: a negative gain keeps
    # the exit codes and the bytes of its positive twin
    "os-cor4-neg": gaussian_doc(s11=1.0, s12=0.0, s21=-2.0, s22=1.0, d12=0.1,
                                d21=0.0),
    "os-none-neg": gaussian_doc(s11=-2.0, s12=0.0, s21=1.0, s22=1.0, d12=0.1,
                                d21=0.0),
    "coupled": gaussian_doc(),
    "discrete": discrete_doc(d12=0.5),
    "discrete-os": one_sided_discrete_doc(),
}

# (spec, theorem) -> (exit code, exit code with --force, sha256 prefix of the
# printed JSON or the region CSV).  A region theorem that evaluates without
# --out exits 2 after the evaluation, so a regime violation still exits 4.
# A zero s11 or s21 leaves the cascade threshold undefined: exit 3, as from
# classify, unless forced.
INNER_MATRIX = {
    ("g6-cor1", "2"): (0, 0, "9ae1a2f3a4cb407c"),
    ("g6-cor1", "3"): (4, 0, "43f8cc5a32d4b209"),
    ("g6-cor1", "4"): (2, 2, ""),
    ("g6-cor1", "5"): (2, 2, ""),
    ("g6-cor2", "2"): (4, 0, "95cfc852915b779a"),
    ("g6-cor2", "3"): (0, 0, "98ae29eebdd3b091"),
    ("g6-cor2", "4"): (2, 2, ""),
    ("g6-cor2", "5"): (2, 2, ""),
    ("g6-edge", "2"): (0, 0, "5280b760aa17a9a4"),
    ("g6-edge", "3"): (0, 0, "8c3364c4da46b531"),
    ("g6-edge", "4"): (2, 2, ""),
    ("g6-edge", "5"): (2, 2, ""),
    ("g6-near", "2"): (0, 0, "5280b760aa17a9a4"),
    ("g6-near", "3"): (0, 0, "8c3364c4da46b531"),
    ("g6-near", "4"): (2, 2, ""),
    ("g6-near", "5"): (2, 2, ""),
    ("g6-s11zero", "2"): (3, 0, "8b093c34cccac39a"),
    ("g6-s11zero", "3"): (3, 0, "7767d288b6bea3fa"),
    ("g6-s11zero", "4"): (2, 2, ""),
    ("g6-s11zero", "5"): (2, 2, ""),
    ("g6-s21zero", "2"): (3, 0, "b7ecb69fd4febaaa"),
    ("g6-s21zero", "3"): (3, 0, "835c7b0b8618148f"),
    ("g6-s21zero", "4"): (2, 2, ""),
    ("g6-s21zero", "5"): (2, 2, ""),
    ("g13-cor3", "2"): (2, 2, ""),
    ("g13-cor3", "3"): (2, 2, ""),
    ("g13-cor3", "4"): (0, 0, "743ee50076935655"),
    ("g13-cor3", "5"): (2, 2, ""),
    ("g13-near", "2"): (2, 2, ""),
    ("g13-near", "3"): (2, 2, ""),
    ("g13-near", "4"): (0, 0, "743ee50076935655"),
    ("g13-near", "5"): (2, 2, ""),
    ("g13-none", "2"): (2, 2, ""),
    ("g13-none", "3"): (2, 2, ""),
    ("g13-none", "4"): (4, 0, "77213932a3cad36c"),
    ("g13-none", "5"): (2, 2, ""),
    ("g13-s11zero", "2"): (2, 2, ""),
    ("g13-s11zero", "3"): (2, 2, ""),
    ("g13-s11zero", "4"): (3, 0, "96fef31e35ac57f6"),
    ("g13-s11zero", "5"): (2, 2, ""),
    ("g13-s21zero", "2"): (2, 2, ""),
    ("g13-s21zero", "3"): (2, 2, ""),
    ("g13-s21zero", "4"): (3, 0, "9e6ad41b217bfbe2"),
    ("g13-s21zero", "5"): (2, 2, ""),
    ("os-cor4", "2"): (2, 2, ""),
    ("os-cor4", "3"): (2, 2, ""),
    ("os-cor4", "4"): (2, 2, ""),
    ("os-cor4", "5"): (0, 0, "04c8975a4879d7bd"),
    ("os-near", "2"): (2, 2, ""),
    ("os-near", "3"): (2, 2, ""),
    ("os-near", "4"): (2, 2, ""),
    ("os-near", "5"): (0, 0, "0117f1dd4c35c00f"),
    ("os-none", "2"): (2, 2, ""),
    ("os-none", "3"): (2, 2, ""),
    ("os-none", "4"): (2, 2, ""),
    ("os-none", "5"): (4, 0, "e173a0874fa086b7"),
    ("os-cor4-neg", "5"): (0, 0, "04c8975a4879d7bd"),
    ("os-none-neg", "5"): (4, 0, "e173a0874fa086b7"),
    ("coupled", "2"): (2, 2, ""),
    ("coupled", "3"): (2, 2, ""),
    ("coupled", "4"): (2, 2, ""),
    ("coupled", "5"): (2, 2, ""),
    ("discrete", "2"): (0, 0, "d9120cfca2b80cab"),
    ("discrete", "3"): (2, 2, ""),
    ("discrete", "4"): (2, 2, ""),
    ("discrete", "5"): (2, 2, ""),
    # y1 does not depend on x2, so the information that bounds R2 is
    # exactly 0 and the region is the R1 axis
    ("discrete-os", "2"): (0, 0, "37210313d3b212b0"),
    ("discrete-os", "3"): (2, 2, ""),
    ("discrete-os", "4"): (2, 2, ""),
    ("discrete-os", "5"): (0, 0, "04492d7cd3d5d515"),
}


def run_inner(runner, tmp_path, spec, theorem, with_out, force):
    path = write_json(tmp_path / f"{spec}.json", MATRIX_SPECS[spec])
    out = tmp_path / f"{spec}-{theorem}.out"
    args = ["inner", "--channel", path, "--theorem", theorem, "--grid", "5"]
    args += ["--out", str(out)] if with_out else []
    args += ["--force"] if force else []
    res = runner.invoke(main, args)
    written = out.read_bytes() if out.exists() else None
    return res.exit_code, res.stdout.replace(str(out), "{out}"), written


@pytest.mark.parametrize("force", [False, True], ids=["gated", "force"])
@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("spec, theorem", sorted(INNER_MATRIX))
def test_inner_exit_code_matrix(tmp_path, runner, spec, theorem, with_out, force):
    code, forced_code, digest = INNER_MATRIX[spec, theorem]
    want = forced_code if force else code
    region = theorem in ("2", "5")
    if want == 0 and region and not with_out:
        want = 2
    got, stdout, written = run_inner(runner, tmp_path, spec, theorem,
                                     with_out, force)
    assert got == want, stdout
    if want != 0:
        assert stdout == "" and written is None
        return
    if region:
        assert stdout == "wrote {out}\n"
        body = written
    else:
        body = stdout.encode()
        assert written == (body if with_out else None)
    assert hashlib.sha256(body).hexdigest()[:16] == digest


# ------------------------------------------------ check digest matrix

def random_discrete_doc(seed, shape, zero_frac=0.0, d12=0.3):
    """Seeded random channel; a share ``zero_frac`` of its entries set to 0."""
    rng = np.random.default_rng(seed)
    w = rng.gamma(1.0, size=shape)
    w[rng.random(shape) < zero_frac] = 0.0
    w[0, 0] += 1e-3  # every input keeps some mass
    w /= w.sum(axis=(0, 1), keepdims=True)
    ny1, ny2, nx1, nx2 = shape
    return {"type": "discrete", "ny1": ny1, "ny2": ny2, "nx1": nx1, "nx2": nx2,
            "w": [float(v) for v in w.reshape(-1)], "d12": d12}


CHECK_SPECS = {
    "binary": (discrete_doc(), 9),
    "one-sided": (one_sided_discrete_doc(), 9),
    "ternary": (random_discrete_doc(61, (3, 3, 3, 3)), 5),
    "2x3": (random_discrete_doc(62, (3, 2, 2, 3)), 7),
    "zero-entry": (random_discrete_doc(63, (3, 2, 3, 2), zero_frac=0.4), 7),
}

# (spec, condition) -> (exit code, sha256 prefix of the printed JSON), at
# the spec's grid with 30 condition-7 samples.  Condition 14 needs a
# one-sided channel and exits 2 on the others.
CHECK_MATRIX = {
    ("binary", "4"): (0, "a65891357b24e6a5"),
    ("binary", "7"): (0, "f638e48d73148939"),
    ("binary", "11"): (0, "3026df02fe1d55bc"),
    ("binary", "14"): (2, ""),
    ("one-sided", "4"): (0, "3026df02fe1d55bc"),
    ("one-sided", "7"): (0, "60adb038f47d9460"),
    ("one-sided", "11"): (0, "a65891357b24e6a5"),
    ("one-sided", "14"): (0, "a65891357b24e6a5"),
    ("ternary", "4"): (0, "e6b50b39233ec6dd"),
    ("ternary", "7"): (0, "88fe9fb8c4635b78"),
    ("ternary", "11"): (0, "e6b50b39233ec6dd"),
    ("ternary", "14"): (2, ""),
    ("2x3", "4"): (0, "27af9008f546ec02"),
    ("2x3", "7"): (0, "d4d2d9f6b5f40d42"),
    ("2x3", "11"): (0, "27af9008f546ec02"),
    ("2x3", "14"): (2, ""),
    ("zero-entry", "4"): (0, "0b0c1028353fc69f"),
    ("zero-entry", "7"): (0, "ba03c6840fa2493b"),
    ("zero-entry", "11"): (0, "0b0c1028353fc69f"),
    ("zero-entry", "14"): (2, ""),
}


@pytest.mark.parametrize("spec, condition", sorted(CHECK_MATRIX))
def test_check_digest_matrix(tmp_path, runner, spec, condition):
    code, digest = CHECK_MATRIX[spec, condition]
    doc, grid = CHECK_SPECS[spec]
    path = write_json(tmp_path / f"{spec}.json", doc)
    res = runner.invoke(main, ["check", "--channel", path, "--condition", condition,
                               "--grid", str(grid), "--samples", "30", "--seed", "1"])
    assert res.exit_code == code, res.output
    if code != 0:
        assert res.stdout == ""
        return
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] == digest


def test_cell_budget_does_not_change_bytes(tmp_path, runner, monkeypatch):
    # one cell per chunk, and 7 cells (a partial chunk of every table), give
    # the bytes of the default budget
    from icbounds import outer_bound, regions

    fig2 = write_json(tmp_path / "fig2.json",
                      {"type": "gaussian", **FIGURE_PRESETS["fig2"]})
    ternary = write_json(tmp_path / "ternary.json", CHECK_SPECS["ternary"][0])
    commands = [
        ["outer", "--channel", fig2, "--grid", "11", "--out", "{out}"],
        ["check", "--channel", ternary, "--condition", "4", "--grid", "5"],
        ["check", "--channel", ternary, "--condition", "7", "--grid", "5",
         "--samples", "30", "--seed", "1"],
        ["inner", "--channel", ternary, "--theorem", "2", "--grid", "5",
         "--out", "{out}"],
    ]

    def run_all():
        outputs = []
        for args in commands:
            out = tmp_path / "out.csv"
            out.unlink(missing_ok=True)
            outer_bound._evaluator.cache_clear()
            res = runner.invoke(main, [a.replace("{out}", str(out)) for a in args])
            assert res.exit_code == 0, res.output
            outputs.append((res.stdout, out.read_bytes() if out.exists() else None))
        return outputs

    want = run_all()
    for budget in (1, 7):
        monkeypatch.setattr(regions, "SWEEP_CELLS", budget)
        assert run_all() == want
    outer_bound._evaluator.cache_clear()


# ------------------------------------------------ simulate digest matrix

def sim_config(**kw):
    cfg = {"channel": discrete_doc(), "n": 4, "r1": 0.25, "r2": 0.25,
           "d12": 0.5, "scheme": "thm2", "trials": 5, "seed": 3}
    cfg.update(kw)
    return cfg


def orthogonal_doc():
    """y1 = x1, y2 = x2, both noiseless."""
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x2, x1, x2] = 1.0
    return {"type": "discrete", "ny1": 2, "ny2": 2, "nx1": 2, "nx2": 2,
            "w": [float(v) for v in w.reshape(-1)]}


TERNARY_SIM = random_discrete_doc(71, (3, 3, 3, 3), zero_frac=0.3)
SIM_SPECS = {
    "xor-thm2": sim_config(n=12, r1=0.5, r2=0.5, trials=60, seed=11),
    "xor-thm4": sim_config(n=10, r1=0.5, r2=0.4, d12=0.3, scheme="thm4",
                           trials=60, seed=12),
    "orth-thm2": sim_config(channel=orthogonal_doc(), n=8, r1=0.5, r2=0.75,
                            d12=0.25, trials=60, seed=13),
    "orth-thm4": sim_config(channel=orthogonal_doc(), n=8, r1=0.75, r2=0.5,
                            d12=0.25, scheme="thm4", trials=60, seed=14),
    "tern-thm2": sim_config(channel=TERNARY_SIM, n=6, r1=0.8, r2=0.7, d12=0.4,
                            trials=40, seed=15),
    "tern-thm4": sim_config(channel=TERNARY_SIM, n=6, r1=0.7, r2=0.8, d12=0.4,
                            scheme="thm4", trials=40, seed=16),
    # 2^5 messages on 2^5 sequences: more than half the space, no resampling
    "overloaded": sim_config(n=5, r1=1.0, r2=0.6, trials=60, seed=17),
    "one-cell": sim_config(channel=TERNARY_SIM, n=6, r1=0.6, r2=0.6, d12=0.0,
                           trials=40, seed=18),
    "singleton-cells": sim_config(channel=TERNARY_SIM, n=6, r1=0.6, r2=0.6,
                                  d12=1.0, scheme="thm4", trials=40, seed=19),
    "m256": sim_config(n=16, r1=0.5, r2=0.5, trials=8, seed=20),
    "p1-zero-mass": sim_config(channel=TERNARY_SIM, n=7, r1=0.6, r2=0.6,
                               d12=0.3, trials=40, seed=21,
                               p1=[0.5, 0.0, 0.5]),
    # 256 of 3^6 = 729 sequences per codebook: each draw takes 3 to 6
    # de-duplication passes
    "tern-m256-thm4": sim_config(channel=TERNARY_SIM, n=6, r1=4 / 3, r2=4 / 3,
                                 d12=0.5, scheme="thm4", trials=8, seed=22),
    "skewed-inputs": sim_config(channel=TERNARY_SIM, n=6, r1=0.6, r2=0.7,
                                d12=0.4, trials=40, seed=23,
                                p1=[0.7, 0.2, 0.1], p2=[0.1, 0.25, 0.65]),
}

# spec -> sha256 prefix of the printed JSON, generated before the
# simulator's de-duplication and pair log-likelihoods were rewritten (and,
# for tern-m256-thm4 and skewed-inputs, before codebooks were drawn from a
# CDF built once and each decoding step became one row gather): each
# rewrite had to keep every random draw and every argmax decision.
SIM_MATRIX = {
    "m256": "62e9a5865a1c919f",
    "one-cell": "a57826f7bfd723fa",
    "orth-thm2": "cc0a375a0cec64d9",
    "orth-thm4": "86c7fece6026ac62",
    "overloaded": "76579190cd2420c9",
    "p1-zero-mass": "db24f86fd4a25005",
    "singleton-cells": "4613758ba6945fce",
    "skewed-inputs": "07aa8e456e568fbe",
    "tern-m256-thm4": "dda46266de475256",
    "tern-thm2": "4146758d5d638257",
    "tern-thm4": "5352680861bed80c",
    "xor-thm2": "8d48f91c9942e5d2",
    "xor-thm4": "4c1a90433aa3d67e",
}


@pytest.mark.parametrize("spec", sorted(SIM_SPECS))
def test_simulate_digest_matrix(tmp_path, runner, spec):
    path = write_json(tmp_path / f"{spec}.json", SIM_SPECS[spec])
    res = runner.invoke(main, ["simulate", "--config", path])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest()[:16] == SIM_MATRIX[spec]


# ------------------------------------------------ outer and figure digest matrix

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


OUTER_SPECS = {
    **{name: {"type": "gaussian", **params} for name, params in FIGURE_PRESETS.items()},
    "s22-zero": gaussian_doc(s11=0.5, s12=2.2, s21=2.3, s22=0.0, p1=4.8, p2=3.1,
                             d12=1.4, d21=0.8),
    "s12-zero": gaussian_doc(s11=1.0, s12=0.0, s21=2.0, s22=1.0, d12=0.1, d21=0.3),
}
EXTERNAL_CSV = "r1,r2\n0,8\n2.5,7.25\n4,6\n6.5,2\n8,0\n"

# (spec, grid, hull) -> (sha256 prefix of the CSV, of stdout with the path
# replaced by {out}), generated before the test-only geometry left regions;
# the fig2 and fig3 CSV digests here and in FIGURE_MATRIX were regenerated
# when the cliff families became warped grids that hit their levels exactly.
OUTER_MATRIX = {
    ("fig2", 11, False): ("0d76fac70380bbb4", "c4c22106667aab7f"),
    ("fig2", 11, True): ("53e0acdf19d53cfa", "c4c22106667aab7f"),
    ("fig2", 201, False): ("57a55ca85d160a45", "0d3a1f7d5fd3acde"),
    ("fig2", 201, True): ("116f0cb1b1c34ad5", "0d3a1f7d5fd3acde"),
    ("fig3", 11, False): ("6fa559e1e2f9d13c", "9cd56878ec023d77"),
    ("fig3", 11, True): ("3f85b61ab8d30743", "9cd56878ec023d77"),
    ("fig3", 201, False): ("8e0b61f484a39fae", "30ad640ace7ce995"),
    ("fig3", 201, True): ("4adce1607ca5b0a4", "30ad640ace7ce995"),
    ("fig4", 11, False): ("4e5a8da949329d18", "a74f4f09ab4be6ce"),
    ("fig4", 11, True): ("4e5a8da949329d18", "a74f4f09ab4be6ce"),
    ("fig4", 201, False): ("4e5a8da949329d18", "a74f4f09ab4be6ce"),
    ("fig4", 201, True): ("4e5a8da949329d18", "a74f4f09ab4be6ce"),
    ("s22-zero", 11, False): ("ad8bae40cde0d46f", "ee2f6ee03c9a9315"),
    ("s22-zero", 11, True): ("ad8bae40cde0d46f", "ee2f6ee03c9a9315"),
    ("s22-zero", 201, False): ("ad8bae40cde0d46f", "ee2f6ee03c9a9315"),
    ("s22-zero", 201, True): ("ad8bae40cde0d46f", "ee2f6ee03c9a9315"),
    ("s12-zero", 11, False): ("718c7dcd4a98c850", "3355a7768b50cb88"),
    ("s12-zero", 11, True): ("718c7dcd4a98c850", "3355a7768b50cb88"),
    ("s12-zero", 201, False): ("718c7dcd4a98c850", "3355a7768b50cb88"),
    ("s12-zero", 201, True): ("718c7dcd4a98c850", "3355a7768b50cb88"),
}

# (preset, grid) -> sha256 prefixes of the bound, hull and comparison CSVs
# and of stdout (directory replaced by {out}), with --compare EXTERNAL_CSV.
FIGURE_MATRIX = {
    ("fig2", 11): ("0d76fac70380bbb4", "53e0acdf19d53cfa",
                   "5c27e42892683d4b", "faa7a3267b4b311a"),
    ("fig2", 201): ("57a55ca85d160a45", "116f0cb1b1c34ad5",
                    "374a2dce77a564a0", "faa7a3267b4b311a"),
    ("fig3", 11): ("6fa559e1e2f9d13c", "3f85b61ab8d30743",
                   "cdf06cb942bd3cc6", "96612c0903f70cfa"),
    ("fig3", 201): ("8e0b61f484a39fae", "4adce1607ca5b0a4",
                    "3362f4ac5ae6c8a1", "96612c0903f70cfa"),
    ("fig4", 11): ("4e5a8da949329d18", "4e5a8da949329d18",
                   "1f89b1086a861d5d", "7a7473059747716f"),
    ("fig4", 201): ("4e5a8da949329d18", "4e5a8da949329d18",
                    "1f89b1086a861d5d", "7a7473059747716f"),
}


@pytest.mark.parametrize("spec, grid, hull", sorted(OUTER_MATRIX))
def test_outer_digest_matrix(tmp_path, runner, spec, grid, hull):
    path = write_json(tmp_path / f"{spec}.json", OUTER_SPECS[spec])
    out = tmp_path / "region.csv"
    res = runner.invoke(main, ["outer", "--channel", path, "--grid", str(grid),
                               "--out", str(out)] + (["--hull"] if hull else []))
    assert res.exit_code == 0, res.output
    stdout = res.stdout.replace(str(out), "{out}")
    assert (digest(out.read_bytes()), digest(stdout.encode())) == \
        OUTER_MATRIX[spec, grid, hull]


@pytest.mark.parametrize("preset, grid", sorted(FIGURE_MATRIX))
def test_figure_digest_matrix(tmp_path, runner, preset, grid):
    ext = tmp_path / "external.csv"
    ext.write_text(EXTERNAL_CSV)
    out = tmp_path / "figs"
    res = runner.invoke(main, ["figure", "--preset", preset, "--grid", str(grid),
                               "--out", str(out), "--compare", str(ext)])
    assert res.exit_code == 0, res.output
    files = [out / f"{preset}_{name}.csv"
             for name in ("bound", "bound_hull", "comparison")]
    stdout = res.stdout.replace(str(out), "{out}")
    assert tuple(digest(f.read_bytes()) for f in files) + (digest(stdout.encode()),) \
        == FIGURE_MATRIX[preset, grid]


def test_comparison_rows_match_fstring_form_on_edge_values(tmp_path, runner, rng):
    # the external frontier's rows sit on the comparison abscissae, so its
    # column and the difference column hold the edge values as given
    r1 = np.linspace(0.0, 1e300, regions.FRONTIER_SAMPLES)
    r2 = edge_floats(rng, regions.FRONTIER_SAMPLES)
    ext = tmp_path / "external.csv"
    ext.write_text("r1,r2\n" + "".join(f"{x!r},{y!r}\n"
                                        for x, y in zip(r1.tolist(), r2.tolist())))
    res = runner.invoke(main, ["figure", "--preset", "fig2", "--grid", "2",
                               "--out", str(tmp_path), "--compare", str(ext)])
    assert res.exit_code == 0, res.output
    ours = outer_bound.outer_region(GaussianIC(**FIGURE_PRESETS["fig2"]), 2).frontier_at(r1)
    theirs = regions.from_csv(ext.read_text()).frontier_at(r1)
    assert np.array_equal(theirs, r2)
    want = ["r1,r2_bound,r2_external,difference"]
    want += [f"{x:.9g},{a:.9g},{b:.9g},{b - a:.9g}" for x, a, b in zip(r1, ours, theirs)]
    assert (tmp_path / "fig2_comparison.csv").read_text() == "\n".join(want) + "\n"


# ------------------------------------ overflowing and malformed inputs

CASCADE_OVERFLOW = cascade_doc("gaussian-6", 2.0, 1.0, 1.0, 1e200)
ONE_SIDED_OVERFLOW = gaussian_doc(s11=1e200, s12=0.0, s21=2e200, s22=1.0, p1=1.0,
                                  p2=1.0, d12=0.1, d21=0.0)
DET_OVERFLOW = gaussian_doc(s11=1e80, s12=3e80, s21=2e80, s22=1e80, p1=1.0,
                            p2=1.0, d12=0.1, d21=0.2)
# squared gains that fit, received powers (s11^2 + s21^2) p1 that do not
POWER_OVERFLOW = gaussian_doc(s11=1e150, s12=0.0, s21=2e150, s22=1.0, p1=1e100,
                              p2=1.0, d12=0.1, d21=0.0)
# received powers that fit, products of them that do not: it trips the
# first product `_squares` checks, (x1 + 1)(x2 + 1) of k13 and k14
PRODUCT_OVERFLOW = gaussian_doc(s11=1e70, s12=1e70, s21=2e70, s22=3e70, p1=1e20,
                                p2=1e20, d12=0.1, d21=0.0)
# x2^2 = 1e320 overflows, but no product the bound forms does: it runs
S22_HUGE = gaussian_doc(s11=1.0, s12=0.0, s21=1.0, s22=1e80, p1=1.0, p2=1.0,
                        d12=0.1, d21=0.2)
# squared gains that fit, a received power of one user that does not:
# s11^2 p1 in the first, s22^2 p2 in the second
R1_POWER_OVERFLOW = gaussian_doc(s11=1e150, s12=0.0, s21=1e150, s22=1.0, p1=1e10,
                                 p2=1.0, d12=0.1, d21=0.0)
R2_POWER_OVERFLOW = gaussian_doc(s11=1.0, s12=0.0, s21=2.0, s22=1e150, p1=1.0,
                                 p2=1e10, d12=0.1, d21=0.0)
W = discrete_doc()["w"]
NAN_CASCADE = {"type": "gaussian-6", "s11": float("nan"), "s12": 1.0, "s21": 2.0,
               "s22": 0.9, "p1": 1.0, "p2": 1.0, "d12": 0.3}
ROGUE_INPUTS = {
    # case: (command, document, exit code, text the output must hold)
    "cascade-thm2": ("inner2", CASCADE_OVERFLOW, 2, "received powers overflow"),
    "cascade-thm2-force": ("inner2-force", CASCADE_OVERFLOW, 2,
                           "received powers overflow"),
    "cascade-thm3": ("inner3", CASCADE_OVERFLOW, 4, "violates corollary-2"),
    "one-sided-outer": ("outer", ONE_SIDED_OVERFLOW, 2, "squared gains overflow"),
    "one-sided-thm5": ("inner5", ONE_SIDED_OVERFLOW, 2, "received powers overflow"),
    "det-outer": ("outer", DET_OVERFLOW, 2, "squared gains overflow"),
    "power-outer": ("outer", POWER_OVERFLOW, 2, "received powers overflow"),
    "power-outer-grid11": ("outer11", POWER_OVERFLOW, 2, "received powers overflow"),
    "product-outer": ("outer", PRODUCT_OVERFLOW, 2,
                      "products of received powers overflow"),
    "r1-power-thm5": ("inner5", R1_POWER_OVERFLOW, 2, "received powers overflow"),
    "r2-power-thm5": ("inner5", R2_POWER_OVERFLOW, 2, "received powers overflow"),
    # classify reads the full spec, as every other command does
    "classify-nan": ("classify", NAN_CASCADE, 2, "must be finite"),
    "classify-no-power": ("classify", {k: v for k, v in CASCADE_OVERFLOW.items()
                                       if k != "p1"}, 2, "missing field 'p1'"),
    "classify-d21": ("classify", {**cascade_doc("gaussian-6", 2.0, 1.0, 2.0, 0.9),
                                  "d21": 0.5}, 2, "one-directional"),
    "discrete-d12-check": ("check", discrete_doc(d12="x"), 2, "bad discrete"),
    "discrete-d12-inner": ("inner2", discrete_doc(d12="x"), 2, "bad discrete"),
    # conference capacities are finite, as in the Gaussian specs
    "discrete-d12-nan-check": ("check", discrete_doc(d12=float("nan")), 2,
                               "must be finite"),
    "discrete-d12-nan-inner": ("inner2", discrete_doc(d12=float("nan")), 2,
                               "must be finite"),
    "discrete-d21-inf-inner": ("inner2", {**discrete_doc(), "d21": float("inf")}, 2,
                               "must be finite"),
    "discrete-dims-check": ("check", {**discrete_doc(), "ny1": -2, "ny2": -2}, 2,
                            "alphabet sizes"),
    "discrete-dims-inner": ("inner2", {**discrete_doc(), "ny1": -2, "ny2": -2}, 2,
                            "alphabet sizes"),
    "discrete-w-nan": ("check", {**discrete_doc(), "w": [float("nan")] * 16}, 2,
                       "nonnegative"),
    # alphabet sizes are integers, as every integer spec field is: not
    # truncated from a fraction, parsed from a string or read from a boolean
    "discrete-dims-fraction": ("inner2", {**discrete_doc(), "ny1": 2.7}, 2,
                               "bad discrete"),
    "discrete-dims-string": ("check", {**discrete_doc(), "ny2": "2"}, 2,
                             "bad discrete"),
    "discrete-dims-bool": ("check", {**discrete_doc(), "nx1": True}, 2,
                           "bad discrete"),
    "discrete-not-object": ("simulate", sim_config(channel=[1, 2]), 2,
                            "bad discrete"),
    "discrete-dims-sim": ("simulate", sim_config(
        channel={**discrete_doc(), "nx2": 2.5}), 2, "must be an integer"),
    "sim-n-huge": ("simulate", sim_config(n=1e9), 2, "exceeds cap"),
    "sim-r1-huge": ("simulate", sim_config(r1=1e9), 2, "exceeds cap"),
    "sim-d12-huge": ("simulate", sim_config(d12=1e300), 0, '"cell_count"'),
    "sim-d12-nan": ("simulate", sim_config(d12=float("nan")), 2, "finite"),
    "sim-d12-negative": ("simulate", sim_config(d12=-0.1), 2,
                         "conference capacities must be nonnegative"),
    "sim-r1-nan": ("simulate", sim_config(r1=float("nan")), 2, "finite"),
    "sim-n-nan": ("simulate", sim_config(n=float("nan")), 2, "finite"),
    "sim-r2-inf": ("simulate", sim_config(r2=float("inf")), 2, "finite"),
    "sim-p1-text": ("simulate", sim_config(p1="x"), 2, "'p1' and"),
    "sim-p1-nan": ("simulate", sim_config(p1=[float("nan"), 1.0]), 2, "PMF"),
    # every entry of an array field is a JSON number, as every scalar field
    # is, and the array is flat
    "discrete-w-strings": ("check", {**discrete_doc(), "w": [str(v) for v in W]}, 2,
                           "field 'w' must be a flat list of numbers"),
    "discrete-w-bools": ("check", {**discrete_doc(), "w": [v == 1 for v in W]}, 2,
                         "field 'w' must be a flat list of numbers"),
    "discrete-w-mixed": ("check", {**discrete_doc(), "w": [
        "1" if v else False for v in W]}, 2, "field 'w' must be a flat list"),
    "discrete-w-nested": ("check", {**discrete_doc(), "w": [W[:8], W[8:]]}, 2,
                          "field 'w' must be a flat list of numbers"),
    "discrete-w-number": ("inner2", {**discrete_doc(), "w": 1.0}, 2,
                          "field 'w' must be a flat list of numbers"),
    "discrete-w-missing": ("check", {k: v for k, v in discrete_doc().items()
                                     if k != "w"}, 2, "field 'w' must be a flat"),
    "discrete-w-bigint": ("check", {**discrete_doc(), "w": [10**400] + W[1:]}, 2,
                          "field 'w' must be finite"),
    "discrete-w-strings-sim": ("simulate", sim_config(
        channel={**discrete_doc(), "w": [str(v) for v in W]}), 2,
        "field 'w' must be a flat list of numbers"),
    "sim-p1-strings": ("simulate", sim_config(p1=["0.5", "0.5"]), 2,
                       "field 'p1' must be a flat list of numbers"),
    "sim-p2-bools": ("simulate", sim_config(p2=[True, False]), 2,
                     "field 'p2' must be a flat list of numbers"),
    "sim-p1-nested": ("simulate", sim_config(p1=[[0.5, 0.5]]), 2,
                      "field 'p1' must be a flat list of numbers"),
    "sim-p2-number": ("simulate", sim_config(p2=1.0), 2,
                      "field 'p2' must be a flat list of numbers"),
    "sim-p2-bigint": ("simulate", sim_config(p2=[10**400, 0.5]), 2,
                      "field 'p2' must be finite"),
    "sim-n-fraction": ("simulate", sim_config(n=8.9), 2, "must be an integer"),
    "sim-trials-fraction": ("simulate", sim_config(trials=20.7), 2,
                            "must be an integer"),
    "sim-seed-fraction": ("simulate", sim_config(seed=7.5), 2, "must be an integer"),
    # 2^53 + 1 as a JSON float reads as 2^53, which would alias two seeds
    "sim-seed-float-2^53": ("simulate", sim_config(seed=float(2**53 + 1)), 2,
                            "must be an integer"),
    "sim-seed-1e300": ("simulate", sim_config(seed=1e300), 2, "must be an integer"),
    "sim-n-bigint": ("simulate", sim_config(n=10**400), 2, "must be finite"),
    "sim-r1-bigint": ("simulate", sim_config(r1=10**400), 2, "must be finite"),
    # Philox takes a 64-bit key: a seed outside [0, 2^64) would alias another
    "sim-seed-negative": ("simulate", sim_config(seed=-1), 2, "seed must lie"),
    "sim-seed-2^64": ("simulate", sim_config(seed=2**64), 2, "seed must lie"),
    "sim-seed-2^64+7": ("simulate", sim_config(seed=2**64 + 7), 2, "seed must lie"),
    "check7-seed-negative": ("check7-seed-1", discrete_doc(), 2,
                             "seed must be nonnegative"),
}
ROGUE_ARGS = {
    "inner2": ["inner", "--theorem", "2", "--grid", "5", "--out", "{out}"],
    "inner2-force": ["inner", "--theorem", "2", "--force", "--out", "{out}"],
    "inner3": ["inner", "--theorem", "3"],
    "inner5": ["inner", "--theorem", "5", "--out", "{out}"],
    "outer": ["outer", "--grid", "5", "--out", "{out}"],
    "outer11": ["outer", "--grid", "11", "--out", "{out}"],
    "classify": ["classify"],
    "check": ["check", "--condition", "4", "--grid", "5"],
    "check7-seed-1": ["check", "--condition", "7", "--grid", "5", "--samples", "3",
                      "--seed", "-1"],
    "simulate": ["simulate"],
}


@pytest.mark.parametrize("case", sorted(ROGUE_INPUTS))
def test_rogue_inputs_exit_cleanly(tmp_path, runner, case):
    command, doc, code, text = ROGUE_INPUTS[case]
    path = write_json(tmp_path / "in.json", doc)
    flag = "--config" if command == "simulate" else "--channel"
    args = [a.replace("{out}", str(tmp_path / "out.csv"))
            for a in ROGUE_ARGS[command]] + [flag, path]
    res = runner.invoke(main, args)
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and text in res.output
    if code == 0:
        doc = json.loads(res.stdout)
        # the budget exceeds the rate: each of the 2 messages is its own cell
        assert (doc["cell_count"], doc["per_cell"], doc["trials"]) == (2, 1, 5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [5, 11, 201])
def test_outer_runs_where_received_powers_fit(tmp_path, runner, grid):
    path = write_json(tmp_path / "in.json", S22_HUGE)
    res = runner.invoke(main, ["outer", "--grid", str(grid), "--channel", path,
                               "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == 0, res.output
    assert "max sum rate 266.054248 bits/use" in res.output


@pytest.mark.parametrize("doc", [
    sim_config(n=1024, r1=0.0, r2=0.0, d12=0.0, trials=3, seed=5),
    sim_config(channel=TERNARY_SIM, n=700, r1=0.01, r2=0.01, d12=0.01,
               trials=3, seed=6),
], ids=["binary-n1024", "ternary-n700"])
def test_simulate_long_blocks_run(tmp_path, runner, doc):
    # 2^1024 and 3^700 sequences overflow a float: the de-duplication rule
    # still decides, and the runs repeat byte for byte
    path = write_json(tmp_path / "cfg.json", doc)
    outs = [runner.invoke(main, ["simulate", "--config", path]) for _ in range(2)]
    for res in outs:
        assert res.exit_code == 0, res.output
    assert outs[0].stdout == outs[1].stdout
    result = json.loads(outs[0].stdout)
    assert result["n"] == doc["n"] and result["trials"] == 3
    assert result["cell_count"] == (1 if doc["n"] == 1024 else 128)


@pytest.mark.parametrize("seed", [2**53, 2**53 + 1, 2**64 - 1])
def test_simulate_echoes_large_integer_seed(tmp_path, runner, seed):
    path = write_json(tmp_path / "cfg.json", sim_config(seed=seed))
    res = runner.invoke(main, ["simulate", "--config", path])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["seed"] == seed
    assert f'"seed": {seed},' in res.stdout


def test_simulate_accepts_integral_floats(tmp_path, runner):
    docs = [sim_config(n=8, trials=20, seed=7),
            sim_config(n=8.0, trials=20.0, seed=7.0)]
    outs = []
    for i, doc in enumerate(docs):
        res = runner.invoke(main, ["simulate", "--config",
                                   write_json(tmp_path / f"{i}.json", doc)])
        assert res.exit_code == 0, res.output
        outs.append(res.stdout)
    assert outs[0] == outs[1]


# ------------------------------------ one input boundary for every command

BOUNDARY_ARGS = {
    "outer": ["outer", "--out", "{out}", "--channel"],
    "figure": ["figure", "--preset", "fig2", "--grid", "5", "--out", "{out}",
               "--compare"],
    "classify": ["classify", "--channel"],
    "inner": ["inner", "--theorem", "2", "--out", "{out}", "--channel"],
    "check": ["check", "--condition", "4", "--grid", "5", "--channel"],
    "simulate": ["simulate", "--config"],
}
# what each input file holds: --compare reads a CSV, every other command JSON
BAD_FILES = {
    "missing": (None, None),
    "malformed": (b'{"type": "gaussian", ', b"r1,r2\n0,1,2\n"),
    "not-utf8": (b'{"type": "gaussian", "s11": "\xe9"}', b"r1,r2\n0,\xff1\n1,0\n"),
}


@pytest.mark.parametrize("problem", sorted(BAD_FILES))
@pytest.mark.parametrize("command", sorted(BOUNDARY_ARGS))
def test_unusable_input_file_exits_2(tmp_path, runner, command, problem):
    path = tmp_path / "in.txt"
    content = BAD_FILES[problem][command == "figure"]
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    args = [a.replace("{out}", str(out)) for a in BOUNDARY_ARGS[command]]
    res = runner.invoke(main, args + [str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: " in res.output and "Traceback" not in res.output
    assert not out.exists()


# JSON that json.loads rejects with a ValueError or RecursionError of its
# own rather than a JSONDecodeError: an integer literal past Python's
# int-string digit limit, and nesting past the recursion limit
OVER_LIMIT_JSON = {
    "long-integer": '{"type": "gaussian", "s11": %s}' % ("1" * 5001),
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(OVER_LIMIT_JSON))
@pytest.mark.parametrize("command", ["classify", "simulate"])
def test_json_past_python_limits_exits_2(tmp_path, runner, command, case):
    path = tmp_path / "in.json"
    path.write_text(OVER_LIMIT_JSON[case])
    flag = "--config" if command == "simulate" else "--channel"
    res = runner.invoke(main, [command, flag, str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: malformed JSON" in res.output
    assert "Traceback" not in res.output


def test_standalone_mode_off_raises_the_exit_code(tmp_path):
    # in-process callers (the benchmark harness) run main.main this way
    with pytest.raises(SystemExit) as exc:
        main.main(args=["classify", "--channel", str(tmp_path / "none.json")],
                  standalone_mode=False)
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [
    "r1,r2\n0,8\n4,8,1\n8,0\n",
    "r1,r2\n0\n8\n",
    "r1,r2\n0,8,9\n8,0,9\n",
    "r1,r2\n0,nan\n8,0\n",
    "r1,r2\n0,8\ninf,0\n",
], ids=["ragged", "one-column", "three-column", "nan", "inf"])
def test_figure_compare_rejects_malformed_csv(tmp_path, runner, text):
    ext = tmp_path / "external.csv"
    ext.write_text(text)
    out = tmp_path / "figs"
    res = runner.invoke(main, ["figure", "--preset", "fig2", "--grid", "5",
                               "--out", str(out), "--compare", str(ext)])
    assert res.exit_code == 2, res.output
    assert "error: " in res.output and "Traceback" not in res.output
    assert not out.exists()


def _limit_address_space():
    import resource

    # 4 GB: an allocation of terabytes then fails at once on any host
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("command", [
    ["outer", "--channel", "{gaussian}", "--out", "{out}"],
    ["figure", "--preset", "fig2", "--out", "{out}"],
    ["inner", "--theorem", "2", "--channel", "{discrete}"],
    ["check", "--condition", "4", "--channel", "{discrete}"],
], ids=["outer", "figure", "inner", "check"])
def test_grid_past_memory_exits_2(tmp_path, command):
    paths = {"{gaussian}": write_json(tmp_path / "g.json", gaussian_doc()),
             "{discrete}": write_json(tmp_path / "d.json", discrete_doc()),
             "{out}": str(tmp_path / "out")}
    args = [paths.get(a, a) for a in command] + ["--grid", "1000000000000"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(icbounds.__file__).resolve().parent.parent),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "icbounds", *args], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines
    assert "Traceback" not in proc.stderr and proc.stdout == ""


# ------------------------------------------------ README synopsis

def readme_synopsis() -> dict:
    """Long options per command in the README's ``icbounds`` command block;
    an indented line continues the command above it."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"),
                        flags=re.S)
    block = next(b for b in blocks if b.startswith("icbounds "))
    options = {}
    for line in block.splitlines():
        if line.startswith("icbounds "):
            name = line.split()[1]
            options[name] = set()
        options[name] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_synopsis_matches_the_commands():
    synopsis = readme_synopsis()
    assert set(synopsis) == set(main.commands)
    for name, command in main.commands.items():
        declared = {opt for p in command.params for opt in p.opts
                    if opt.startswith("--")}
        assert synopsis[name] == declared, name
