import hashlib
import itertools
import json

import numpy as np
import pytest
from click.testing import CliRunner

from icbounds.cli import main


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
    from icbounds import from_csv, includes

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


@pytest.mark.parametrize("extra", [["--aux-card", "0"], ["--aux-card", "-1"],
                                   ["--samples", "-1"]],
                         ids=["aux-card-0", "aux-card-neg", "samples-neg"])
def test_check_condition7_rejects_bad_counts(tmp_path, runner, extra):
    spec = write_json(tmp_path / "d.json", discrete_doc())
    res = runner.invoke(main, ["check", "--channel", spec, "--condition", "7",
                               "--grid", "5", "--samples", "20"] + extra)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error:" in res.output


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
    w = np.zeros((2, 2, 2, 2))
    for x1, x2 in itertools.product(range(2), repeat=2):
        w[x1, x2, x1, x2] = 1.0
    cfg = {"channel": {"type": "discrete", "ny1": 2, "ny2": 2, "nx1": 2,
                       "nx2": 2, "w": [float(v) for v in w.reshape(-1)]},
           "n": 8, "r1": 0.5, "r2": 0.5, "d12": 0.0, "scheme": "thm2",
           "trials": 200, "seed": 5}
    spec = write_json(tmp_path / "cfg.json", cfg)
    doc = json.loads(runner.invoke(main, ["simulate", "--config", spec]).output)
    assert doc["err1"] == 0.0 and doc["err2"] == 0.0


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
# (1, 2) has threshold 0.75; the one-sided gate is s21 >= s11.
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
    ("g6-cor1", "3"): (4, 0, "d51cec33f91fc6a8"),
    ("g6-cor1", "4"): (2, 2, ""),
    ("g6-cor1", "5"): (2, 2, ""),
    ("g6-cor2", "2"): (4, 0, "95cfc852915b779a"),
    ("g6-cor2", "3"): (0, 0, "943b041f29f8af4f"),
    ("g6-cor2", "4"): (2, 2, ""),
    ("g6-cor2", "5"): (2, 2, ""),
    ("g6-edge", "2"): (0, 0, "5280b760aa17a9a4"),
    ("g6-edge", "3"): (0, 0, "3479af6e2ee2603a"),
    ("g6-edge", "4"): (2, 2, ""),
    ("g6-edge", "5"): (2, 2, ""),
    ("g6-near", "2"): (0, 0, "5280b760aa17a9a4"),
    ("g6-near", "3"): (0, 0, "3479af6e2ee2603a"),
    ("g6-near", "4"): (2, 2, ""),
    ("g6-near", "5"): (2, 2, ""),
    ("g6-s11zero", "2"): (3, 0, "8b093c34cccac39a"),
    ("g6-s11zero", "3"): (3, 0, "984ff80400bdacec"),
    ("g6-s11zero", "4"): (2, 2, ""),
    ("g6-s11zero", "5"): (2, 2, ""),
    ("g6-s21zero", "2"): (3, 0, "b7ecb69fd4febaaa"),
    ("g6-s21zero", "3"): (3, 0, "e4336a721da45987"),
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
    ("g13-s11zero", "4"): (3, 0, "ea010dd2fc153b58"),
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
    ("coupled", "2"): (2, 2, ""),
    ("coupled", "3"): (2, 2, ""),
    ("coupled", "4"): (2, 2, ""),
    ("coupled", "5"): (2, 2, ""),
    ("discrete", "2"): (0, 0, "d9120cfca2b80cab"),
    ("discrete", "3"): (2, 2, ""),
    ("discrete", "4"): (2, 2, ""),
    ("discrete", "5"): (2, 2, ""),
    ("discrete-os", "2"): (0, 0, "f773e687d51f985a"),
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
