#!/usr/bin/env python3
"""Record benchmark runs of one or more checkouts as BENCH_<label>.json.

Runs ``perfbench/run.py`` as it is in each checkout, with ``--trace 0`` and
the run length from ``BENCHMARK.json``, for every workload and seed given:

    python3 scripts/record_bench.py --checkout baseline=../parent \\
        --checkout new=. --workload outer-figures --seed 41 --seed 42

With two checkouts, each seed is one pair of runs, and which checkout runs
first alternates from pair to pair.  From the last stdout line of each run
(one JSON object) it writes BENCH_<label>.json per checkout into
``--out-dir``: every run's metrics, each metric's median and quartiles per
workload, and the checkout's git revision (outside git, a content hash of
its ``src/``), the CPU count and the Python and numpy versions.  Each
run's line gives whether its checks passed (``correct``) and how many ops
it attempted and how many failed.  The files keep every run, but the
script exits non-zero and names each run that was not correct or had a
failed op, since such a run's metrics do not measure working code.

With ``--table PARENT.json CHANGE.json`` it runs nothing and prints a
Markdown table of two such files, one row per workload and end-to-end
metric of ``BENCHMARK.json``: each side's median [q1, q3], how many
same-seed pairs the change wins by the metric's ``better``, the relative
change of the median, and a flag when the change is worse than the
metric's ``bound`` or the parent's quartile spread is wider than the bound
(unresolved):

    python3 scripts/record_bench.py --table BENCH_parent.json BENCH_new.json
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict:
    """The run's result: the JSON object on the last line of its stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    doc = json.loads(lines[-1])
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
            "units": {k: v["unit"] for k, v in doc["metrics"].items()}}


def summarize(runs: list) -> dict:
    """Median and quartiles (inclusive method) of each metric per workload."""
    out = {}
    for run in runs:
        wl = out.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            wl.setdefault(name, []).append(value)
    for wl in out.values():
        for name, values in wl.items():
            q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                           if len(values) > 1 else [values[0]] * 3)
            wl[name] = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    return out


def tree_hash(root: Path) -> str:
    """"tree-sha256:" and 16 hex digits of a SHA-256 over the files under
    ``root`` outside ``__pycache__``: each one's path relative to ``root``
    and its bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        name = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        for part in (name, data):
            digest.update(len(part).to_bytes(8, "big") + part)
    return "tree-sha256:" + digest.hexdigest()[:16]


def revision(checkout: Path) -> str:
    """HEAD of the checkout, "-dirty" if tracked files differ from it.  A
    checkout that is not the top of a git work tree (a ``git archive``
    copy, say) is named by the ``tree_hash`` of its ``src/``, or "unknown"
    when it has none."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], text=True,
                              capture_output=True)

    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != checkout.resolve():
        src = checkout / "src"
        return tree_hash(src) if src.is_dir() else "unknown"
    head = git("rev-parse", "HEAD").stdout.strip()
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head + ("-dirty" if dirty else "")


def _quartiles(q: dict) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def table(parent: dict, change: dict, metrics: list) -> str:
    """Markdown rows comparing two BENCH_*.json documents on ``metrics``
    (``BENCHMARK.json``'s end-to-end entries: name, better, bound)."""
    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3]"
             " | change better | median change | flag |",
             "|---|---|---|---|---|---|---|"]
    runs = {(r["workload"], r["seed"]): r["metrics"] for r in change["runs"]}
    for workload, sides in parent["summary"].items():
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            if name not in sides or name not in change["summary"].get(workload, {}):
                continue
            p, c = sides[name], change["summary"][workload][name]
            pairs = [(r["metrics"][name], runs[workload, r["seed"]][name])
                     for r in parent["runs"] if r["workload"] == workload
                     and name in runs.get((workload, r["seed"]), {})]
            wins = sum((b < a) if lower else (b > a) for a, b in pairs)
            rel = ((c["median"] - p["median"]) / abs(p["median"]) if p["median"]
                   else 0.0 if c["median"] == 0 else math.copysign(math.inf, c["median"]))
            flags = []
            if (rel if lower else -rel) > m["bound"]:
                flags.append("worse")
            spread = p["q3"] - p["q1"]
            if spread > m["bound"] * abs(p["median"]):
                flags.append("unresolved")
            lines.append(f"| {workload} | {name} | {_quartiles(p)} | {_quartiles(c)} | "
                         f"{wins}/{len(pairs)} | {rel:+.3f} | {', '.join(flags)} |")
    return "\n".join(lines) + "\n"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return {"workload": workload, "seed": seed, **parse_result(proc.stdout)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append",
                    metavar="LABEL=DIR", help="a checkout to run, repeatable")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--out-dir", default=".", help="where BENCH_*.json go")
    ap.add_argument("--table", nargs=2, metavar=("PARENT.json", "CHANGE.json"),
                    help="print the comparison table of two recordings; run nothing")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.table:
        parent, change = (json.loads(Path(f).read_text()) for f in args.table)
        print(table(parent, change, bench["end_to_end"]), end="")
        return
    for name in ("checkout", "workload", "seed"):
        if not getattr(args, name):
            ap.error(f"--{name} is required unless --table is given")

    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not (sep and label and path):
            ap.error(f"--checkout wants LABEL=DIR, got {item!r}")
        checkouts.append((label, Path(path).resolve()))
    seconds = bench["run_seconds"]

    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "run_seconds": seconds, "trace": 0}
    runs = {label: [] for label, _ in checkouts}
    units = {}
    for workload in args.workload:
        for k, seed in enumerate(args.seed):
            for label, path in checkouts[::-1] if k % 2 else checkouts:
                run = run_once(path, workload, seed, seconds)
                units.update(run.pop("units"))
                runs[label].append(run)
                fields = [f"{n}={run[n]}" for n in ("correct", "attempted", "failed")]
                fields += [f"{n}={v:.6g}" for n, v in run["metrics"].items()]
                print(f"{label} {workload} seed {seed}: " + "  ".join(fields),
                      flush=True)
                # rewritten after every run, so an interrupted recording keeps
                # the runs it finished
                doc = {"label": label, "revision": revision(path), **env,
                       "units": units, "summary": summarize(runs[label]),
                       "runs": runs[label]}
                out = Path(args.out_dir) / f"BENCH_{label}.json"
                out.write_text(json.dumps(doc, indent=1) + "\n")
    bad = [f"{label} {run['workload']} seed {run['seed']}"
           for label, done in runs.items() for run in done
           if not run["correct"] or run["failed"]]
    if bad:
        raise SystemExit("runs that were not correct or had failed ops: "
                         + ", ".join(bad))


if __name__ == "__main__":
    main()
