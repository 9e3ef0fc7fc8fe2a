#!/usr/bin/env python3
"""Regenerate refs/*.json, the stored outputs the pool cases are checked
against.  Run from the repository root:

    python3 perfbench/make_refs.py

Only rerun it when a change is meant to alter these outputs, and say so.
"""

import json
import shutil
import sys
from pathlib import Path

from run import _cap_blas_threads

if __name__ == "__main__":
    _cap_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import cases
    from bench import HERE, WORK, import_package, run_op
    from checks import curve_samples

    pkg = import_package()
    entry = pkg.cli.main.main
    tmp = WORK / "refs-tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    def run(op, doc):
        (tmp / f"{op.case}.json").write_text(json.dumps(doc))
        rec = run_op(entry, op, tmp, str(tmp / "out.csv"))
        if rec.code != 0 or rec.error:
            raise SystemExit(f"{op.key} failed: {rec.error or rec.stderr}")
        return rec

    def region(rec):
        return curve_samples(pkg.regions.from_csv(Path(rec.out).read_text()))

    outer = {}
    for case in cases.PRESETS + tuple(f"g{k:02d}" for k in range(cases.GAUSS_POOL)):
        doc = cases.gaussian_case(case)
        outer[case] = {v: region(run(cases.outer_op(case, v == "hull"), doc))
                       for v in ("raw", "hull")}
        print("outer", case, flush=True)

    sim = {}
    for name, *_ in cases.SIM_SLOTS:
        for k in range(cases.SIM_POOL):
            case = f"{name}-{k}"
            op = cases.Op("simulate", case, ("simulate", "--config", f"{{in}}/{case}.json"),
                          case=case)
            res = json.loads(run(op, cases.sim_case(case)).stdout)
            sim[case] = {key: res[key] for key in ("err1", "err2", "err1_ci95", "err2_ci95")}
        print("sim", name, flush=True)

    discrete = {}
    for name, *_ in cases.DISC_SLOTS:
        for k in range(cases.DISC_POOL):
            case = f"{name}-{k}"
            doc, args = cases.discrete_case(case)
            rec = run(cases.Op("d", case, args, case=case), doc)
            if args[0] == "inner":
                discrete[case] = region(rec)
            else:
                res = json.loads(rec.stdout)
                discrete[case] = {"holds": res["holds_on_searched_family"],
                                  "worst_gap": res["worst_gap"]}
        print("discrete", name, flush=True)

    shutil.rmtree(tmp)
    for name, table in (("outer", outer), ("sim", sim), ("discrete", discrete)):
        (HERE / "refs" / f"{name}.json").write_text(json.dumps(table, indent=1) + "\n")
