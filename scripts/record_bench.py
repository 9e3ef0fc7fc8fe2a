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
"""

import argparse
import hashlib
import json
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
    ap.add_argument("--checkout", action="append", required=True,
                    metavar="LABEL=DIR", help="a checkout to run, repeatable")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", action="append", type=int, required=True)
    ap.add_argument("--out-dir", default=".", help="where BENCH_*.json go")
    args = ap.parse_args(argv)

    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not (sep and label and path):
            ap.error(f"--checkout wants LABEL=DIR, got {item!r}")
        checkouts.append((label, Path(path).resolve()))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

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
