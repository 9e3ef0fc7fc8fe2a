"""The README's scripts run from a checkout, in a child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import icbounds
from icbounds.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("make_figures.py", ["--grid", "11", "--out", "figs"]),
    ("simulate_sweep.py", ["--trials", "20", "--blocklengths", "4"]),
])
def test_script_runs(tmp_path, script, args):
    # the child gets the location of the package under test, as in c10
    env = dict(os.environ)
    package_root = str(Path(icbounds.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    if script == "make_figures.py":
        names = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert names == sorted(f"{f}_bound{h}.csv" for f in ("fig2", "fig3", "fig4")
                               for h in ("", "_hull"))
        # the same bytes as `icbounds figure --preset P --grid 11`
        for preset in ("fig2", "fig3", "fig4"):
            res = CliRunner().invoke(main, ["figure", "--preset", preset, "--grid",
                                            "11", "--out", str(tmp_path / "cli")])
            assert res.exit_code == 0, res.output
        for name in names:
            assert (tmp_path / "figs" / name).read_bytes() == \
                (tmp_path / "cli" / name).read_bytes(), name


def _record_bench():
    import importlib.util

    spec = importlib.util.spec_from_file_location("record_bench",
                                                  SCRIPTS / "record_bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_record_bench_parses_and_summarizes_a_canned_run(tmp_path):
    rb = _record_bench()
    line = ('{"correct": true, "attempted": 120, "failed": 0, "metrics": '
            '{"ops_per_s": {"value": 130.5, "unit": "ops/s"}, '
            '"latency_tail_ms": {"value": 10.25, "unit": "ms"}}}')
    res = rb.parse_result("# workload outer-figures  seed 41\n"
                          "         ops_per_s = 130.5 ops/s\n" + line + "\n")
    assert res == {"correct": True, "attempted": 120, "failed": 0,
                   "metrics": {"ops_per_s": 130.5, "latency_tail_ms": 10.25},
                   "units": {"ops_per_s": "ops/s", "latency_tail_ms": "ms"}}
    with pytest.raises(ValueError):
        rb.parse_result("\n")
    runs = [{"workload": "w", "metrics": {"m": v}} for v in (4.0, 1.0, 3.0, 2.0)]
    runs.append({"workload": "one", "metrics": {"m": 7.0}})
    assert rb.summarize(runs) == {
        "w": {"m": {"n": 4, "median": 2.5, "q1": 1.75, "q3": 3.25}},
        "one": {"m": {"n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0}},
    }
    assert rb.revision(tmp_path) == "unknown"


def test_record_bench_names_incorrect_runs_and_exits_non_zero(tmp_path, monkeypatch,
                                                             capsys):
    rb = _record_bench()
    lines = {  # (checkout, seed): the run's last stdout line
        ("good", 1): '{"correct": true, "attempted": 9, "failed": 0, "metrics": {}}',
        ("good", 2): '{"correct": true, "attempted": 9, "failed": 0, "metrics": {}}',
        ("bad", 1): '{"correct": false, "attempted": 9, "failed": 0, "metrics": {}}',
        ("bad", 2): '{"correct": true, "attempted": 9, "failed": 2, "metrics": {}}',
    }

    def canned(checkout, workload, seed, seconds):
        return {"workload": workload, "seed": seed,
                **rb.parse_result(lines[checkout.name, seed])}

    monkeypatch.setattr(rb, "run_once", canned)
    for name in ("good", "bad"):
        (tmp_path / name).mkdir()
    args = ["--checkout", f"good={tmp_path / 'good'}", "--checkout",
            f"bad={tmp_path / 'bad'}", "--workload", "w", "--seed", "1", "--seed", "2",
            "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        rb.main(args)
    assert str(exc.value).endswith(": bad w seed 1, bad w seed 2")
    out = capsys.readouterr().out
    assert "bad w seed 1: correct=False  attempted=9  failed=0" in out
    assert "bad w seed 2: correct=True  attempted=9  failed=2" in out
    for name in ("good", "bad"):  # both files are written all the same
        assert len(json.loads((tmp_path / f"BENCH_{name}.json").read_text())["runs"]) == 2
    rb.main(args[:2] + args[4:])  # only correct runs: exits normally


def test_record_bench_names_a_tree_outside_git_by_its_src(tmp_path):
    rb = _record_bench()
    trees = []
    for name in ("a", "b"):
        src = tmp_path / name / "src" / "pkg"
        src.mkdir(parents=True)
        (src / "mod.py").write_text("x = 1\n")
        (src / "data.txt").write_bytes(b"\x00\x01")
        trees.append(tmp_path / name)
    first = rb.revision(trees[0])
    assert first.startswith("tree-sha256:") and len(first) == len("tree-sha256:") + 16
    assert rb.revision(trees[1]) == first
    cache = trees[1] / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython.pyc").write_bytes(b"compiled")
    assert rb.revision(trees[1]) == first  # byte-code caches do not count
    (trees[1] / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    assert rb.revision(trees[1]) != first
    (trees[1] / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (trees[1] / "src" / "pkg" / "mod2.py").write_text("")
    assert rb.revision(trees[1]) != first  # an added empty file counts too


def test_record_bench_table_compares_two_recordings(tmp_path, capsys):
    rb = _record_bench()

    def doc(values):  # workload "w", seeds 1-4; metric -> one value per seed
        runs = [{"workload": "w", "seed": seed,
                 "metrics": {name: v[k] for name, v in values.items()}}
                for k, seed in enumerate((1, 2, 3, 4))]
        return {"summary": rb.summarize(runs), "runs": runs}

    parent = doc({"ops_per_s": [100.0, 102.0, 98.0, 100.0],
                  "setup_s": [1.0, 2.0, 0.5, 1.0],
                  "latency_p50_ms": [10.0, 10.0, 10.0, 10.0]})
    change = doc({"ops_per_s": [101.0, 103.0, 99.0, 97.0],
                  "setup_s": [1.0, 2.0, 0.5, 1.0],
                  "latency_p50_ms": [14.0, 9.0, 13.0, 12.0]})
    files = []
    for name, d in (("parent", parent), ("change", change)):
        files.append(tmp_path / f"BENCH_{name}.json")
        files[-1].write_text(json.dumps(d))
    rb.main(["--table", *map(str, files)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| workload | metric | parent median [q1, q3] |")
    rows = {line.split(" | ")[1]: line for line in lines[2:]}
    # BENCHMARK.json's order; metrics absent from the files are skipped
    assert list(rows) == ["setup_s", "ops_per_s", "latency_p50_ms"]
    assert rows["ops_per_s"] == ("| w | ops_per_s | 100 [99.5, 100.5] | "
                                 "100 [98.5, 101.5] | 3/4 | +0.000 |  |")
    # a parent spread of 0.375 s around a 1 s median: wider than the 0.25 bound
    assert rows["setup_s"].endswith("| 0/4 | +0.000 | unresolved |")
    # 10 ms -> 12.5 ms is 25% worse; lower is better, so 1 pair in 4 wins
    assert rows["latency_p50_ms"].endswith("| 1/4 | +0.250 |  |")
    change["summary"]["w"]["latency_p50_ms"]["median"] = 12.6
    assert rb.table(parent, change, [{"name": "latency_p50_ms", "better": "lower",
                                      "bound": 0.25}]).splitlines()[-1].endswith(
        "| +0.260 | worse |")
    with pytest.raises(SystemExit):  # a recording needs checkouts, workloads, seeds
        rb.main(["--workload", "w", "--seed", "1"])
