"""Closed-loop, in-process benchmark of the icbounds CLI.

One client runs rounds of real CLI commands through ``icbounds.cli.main``
back to back (each op starts when the previous one has finished) until at
least ``--seconds`` of wall time have passed, always finishing the round in
progress so every run sees the same mix of ops.  Outputs are checked after
the timed loop, together with those of the workload's untimed ``after``
ops.

``ops_per_s`` is the ops completed over the wall time of the whole timed
loop: on a shared machine whose speed switches between states for tens of
seconds at a time, that mean follows the share of time in each state
smoothly, where a median of round times would jump from one state to the
other.  ``latency_p50_ms`` and ``latency_tail_ms`` are the median and 90th
percentile of op times.

With ``--trace 1`` every op runs twice, untraced and traced, alternating
which copy goes first; the per-layer metrics come from the traced copies
and the tracing overhead from comparing the two.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones untraced, per-layer ones traced).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 3    # set-ups per run, at least; more until SETUP_SECONDS
SETUP_SECONDS = 2.0  # pass, so short set-ups get a steadier median
TAIL_PCT = 90  # percentile reported as latency_tail_ms

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass(slots=True)
class Record:
    op: object
    out: str
    code: int
    stdout: str
    stderr: str
    seconds: float
    error: str = ""


def import_package():
    """Import icbounds afresh from the checkout's src/ (no install needed)."""
    for name in [m for m in sys.modules if m == "icbounds" or m.startswith("icbounds.")]:
        del sys.modules[name]
    pkg = importlib.import_module("icbounds")
    importlib.import_module("icbounds.cli")
    return pkg


# One pair of capture streams for every op: click keeps each stream it
# writes to alive in a cache, so fresh streams per op would make the
# process's memory grow with the number of ops a run completes.
_OUT, _ERR = io.StringIO(), io.StringIO()


def invoke(entry, argv) -> tuple[int, str, str, str]:
    """Run one CLI command in-process: (exit code, stdout, stderr, error)."""
    out, err = _OUT, _ERR
    for stream in (out, err):
        stream.seek(0)
        stream.truncate()
    code, error = 0, ""
    with redirect_stdout(out), redirect_stderr(err):
        try:
            entry(args=list(argv), standalone_mode=False, prog_name="icbounds")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is a failed op, not a failed run
            code, error = 1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), error


def run_op(entry, op, in_dir: Path, out: str) -> Record:
    argv = [a.replace("{in}", str(in_dir)).replace("{out}", out) for a in op.argv]
    t0 = time.perf_counter()
    code, stdout, stderr, error = invoke(entry, argv)
    return Record(op, out, code, stdout, stderr, time.perf_counter() - t0, error)


def out_path(op, out_dir: Path, i: int) -> str:
    if "{out}" not in op.argv:
        return ""
    return str(out_dir / (f"{i}" if op.kind == "figure" else f"{i}.csv"))


def cold_import() -> None:
    """Import the CLI in a fresh interpreter, so that set-up pays for the
    package's dependencies (numpy, click) as a first start does."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", "import icbounds.cli"], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.strip()}")


def setup(workload: str, seed: int, run_dir: Path):
    """Import the package cold and in-process, write the generated inputs,
    run one warm-up op."""
    from cases import WORKLOADS

    t0 = time.perf_counter()
    cold_import()
    pkg = import_package()
    wl = WORKLOADS[workload](seed)
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = run_dir / "in"
    in_dir.mkdir(parents=True)
    for name, text in wl.files.items():
        (in_dir / name).write_text(text)
    warm = run_dir / "warm"
    warm.mkdir()
    rec = run_op(pkg.cli.main.main, wl.warmup, in_dir, out_path(wl.warmup, warm, 0))
    if rec.code != 0 or rec.error:
        raise RuntimeError(f"warm-up op failed: {rec.error or rec.stderr.strip()}")
    return time.perf_counter() - t0, pkg, wl


def closed_loop(step, wl, seconds: float):
    """Whole rounds, back to back, until time is up.

    ``step(op, i)`` runs op number i and returns its Record.  Returns the
    records, the number of rounds and the wall time of the loop.
    """
    records, rounds = [], 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for op in wl.round(rounds):
            records.append(step(op, len(records)))
        rounds += 1
    return records, rounds, time.perf_counter() - t0


def verify(checker, records) -> list:
    """Failure messages, one list per record (empty when the op is good)."""
    from checks import outputs

    found = []
    for rec in records:
        if rec.code != 0 or rec.error:
            found.append(None)
            continue
        try:
            got = outputs(rec.op, rec.out, rec.stdout)
        except OSError as exc:
            found.append(None)
            rec.error = f"missing output: {exc}"
            continue
        found.append((got, checker.record(got)))
    problems = []
    checked = {}  # op key -> problems of its first output
    for rec, item in zip(records, found):
        if item is None:
            problems.append([f"{rec.op.key}: exit {rec.code} "
                             f"{rec.error or rec.stderr.strip()}"])
            continue
        got, bad = item
        if not bad and rec.op.key in checked:
            # the same bytes as an output already checked: the same verdict
            problems.append(checked[rec.op.key])
            continue
        try:
            bad = bad + checker.check(rec.op, got, rec.stdout)
        except (KeyError, ValueError, TypeError) as exc:
            bad = bad + [f"{rec.op.key}: unreadable output ({type(exc).__name__}: {exc})"]
        checked.setdefault(rec.op.key, bad)
        problems.append(bad)
    return problems


def latency_stats(records):
    """Median and TAIL_PCT percentile of op times in ms, and how many ops
    lie above the percentile."""
    ms = [r.seconds * 1e3 for r in records]
    tail = statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PCT - 1]
    return statistics.median(ms), tail, sum(1 for v in ms if v > tail)


def openblas_threads() -> str:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getattr(dll, fn).restype = ctypes.c_int
                return str(getattr(dll, fn)())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unknown')} (from the environment)"


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy as np
    from importlib.metadata import version

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def main(argv) -> int:
    from cases import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from checks import Checker
    from spans import METRICS, Tracer

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            took, pkg, wl = setup(args.workload, args.seed, run_dir)
            setups.append(took)
        in_dir, plain_dir, traced_dir = (run_dir / d for d in ("in", "plain", "traced"))
        plain_dir.mkdir()
        traced_dir.mkdir()
        entry = pkg.cli.main.main
        traced = []
        first_out = {}  # op key -> its first stdout

        def plain(op, i):
            rec = run_op(entry, op, in_dir, out_path(op, plain_dir, i))
            # equal outputs share one string, so that peak_rss_mb hardly
            # grows with the number of ops a run completes
            first = first_out.setdefault(op.key, rec.stdout)
            if first == rec.stdout:
                rec.stdout = first
            return rec

        def plain_and_traced(op, i):
            # alternate which copy runs first so neither gets the warmer caches
            first_traced = i % 2 == 1
            if not first_traced:
                rec = plain(op, i)
            tracer.install()
            tracer.op = i
            try:
                traced.append(run_op(tracer.entry, op, in_dir, out_path(op, traced_dir, i)))
            finally:
                tracer.uninstall()
            return plain(op, i) if first_traced else rec

        tracer = Tracer(pkg) if args.trace else None
        records, rounds, elapsed = closed_loop(plain_and_traced if tracer else plain,
                                               wl, args.seconds)
        ran = {rec.op.key for rec in records}
        untimed = [plain(op, len(records) + j)
                   for j, op in enumerate(o for o in wl.after if o.key not in ran)]
        if tracer:
            plain_s = sum(r.seconds for r in records)
            traced_s = sum(r.seconds for r in traced)
            layer, bases = tracer.metrics(1.0 - plain_s / traced_s)
            bases["trace.overhead_frac"] = (f"untraced ops_per_s of the same ops = "
                                            f"{len(records) / plain_s:.6g} ops/s")
            spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_file)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs = {name: json.loads((HERE / "refs" / f"{name}.json").read_text())
                for name in ("outer", "sim", "discrete")}
        problems = verify(Checker(pkg, refs), records + traced + untimed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed_problems = problems[:len(records)]
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    p50, tail, above = latency_stats(records)
    ok_timed = sum(1 for p in timed_problems if not p) / len(records)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / elapsed,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "ok_frac": ok_timed,
        "peak_rss_mb": rss_mb,
    }

    env = environment(args.seed)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# set-up runs {', '.join(f'{s:.3f}' for s in setups)} s")
    if not args.trace:
        print(f"# timed: {len(records)} ops in {rounds} rounds, {elapsed:.3f} s "
              f"(closed loop, 1 client)")
        for name, unit in END_TO_END:
            extra = ""
            if name == "latency_tail_ms":
                extra = f"  (p{TAIL_PCT} of {len(records)} samples, {above} above it)"
            if name == "ok_frac":
                extra = f"  (failed_frac {1.0 - ok_timed:.6g} of {len(records)} timed ops)"
            print(f"{name:>18} = {e2e[name]:.6g} {unit}{extra}")
    else:
        print(f"# traced: {len(records)} ops, each run untraced and traced in "
              f"alternating order: {plain_s:.3f} s untraced, {traced_s:.3f} s traced; "
              f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
        for name in tracer.skipped:
            print(f"# trace: skipped {name}")
        for name, unit, _, moves in METRICS:
            note = f"  (base: {bases[name]})" if name in bases else ""
            print(f"{name:>36} = {layer[name]:.6g} {unit}{note}  [moves: {moves}]")
    for msgs in [p for p in problems if p][:10]:
        print("# FAILED " + "; ".join(msgs))

    metrics = ({name: {"value": layer[name], "unit": unit} for name, unit, *_ in METRICS}
               if args.trace else
               {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
