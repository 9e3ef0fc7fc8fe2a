"""Output checks for every op, run after the timed loop.

Each check compares what the CLI printed or wrote against a reference that
does not come from the same run: closed-form values computed here for the
Gaussian regime evaluators, an information kernel written here for the
discrete witnesses, and the outputs stored under ``refs/`` for the pool
cases.  Ops with the same key must also produce the same bytes every time.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

OUTER_TOL = 0.02       # bits; the grid-convergence tolerance of criterion 5
REGION_TOL = 1e-6      # bits; CSVs carry 9 significant digits
SUMCAP_TOL = 1e-9
GAP_TOL = 1e-9
CURVE_POINTS = 129     # abscissae at which refs/ stores each frontier

_SUM_RATE = re.compile(r"max sum rate (\S+) bits/use")


def curve_samples(region) -> dict:
    """Reference form of a region: its extent and frontier at CURVE_POINTS."""
    xs = np.linspace(0.0, region.r1_max, CURVE_POINTS)
    return {"r1_max": region.r1_max,
            "r2": [float(v) for v in region.frontier_at(xs)]}


def outputs(op, out: str, stdout: str) -> dict:
    """Content key -> bytes for everything an op printed or wrote."""
    got = {f"{op.key}:stdout": stdout.replace(out, "{out}").encode()}
    if op.kind == "figure":
        for variant, suffix in (("raw", ""), ("hull", "_hull")):
            path = Path(out) / f"{op.case}_bound{suffix}.csv"
            got[f"{op.case}:{variant}:csv"] = path.read_bytes()
    elif "{out}" in op.argv:
        got[f"{op.key}:csv"] = Path(out).read_bytes()
    return got


class Checker:
    """Checks ops against references; ``pkg`` is the imported package."""

    def __init__(self, pkg, refs: dict):
        self.regions = pkg.regions
        self.refs = refs
        self.seen: dict[str, bytes] = {}

    def record(self, got: dict) -> list:
        """Remember first outputs; report keys whose bytes changed."""
        bad = []
        for key, data in got.items():
            first = self.seen.setdefault(key, data)
            if first != data:
                bad.append(f"{key}: bytes differ from an earlier run of the same op")
        return bad

    def check(self, op, got: dict, stdout: str) -> list:
        bad = getattr(self, "_" + op.kind)(op, got, stdout)
        if op.inside:
            bad += self._inside(op, got)
        return bad

    # ------------------------------------------------------- helpers

    def _region(self, data: bytes):
        return self.regions.from_csv(data.decode())

    def _curve(self, region, ref: dict, tol: float, what: str) -> list:
        """Frontier within tol of the stored one, vertically or horizontally."""
        if abs(region.r1_max - ref["r1_max"]) > tol:
            return [f"{what}: extent {region.r1_max} vs reference {ref['r1_max']}"]
        xs = np.linspace(0.0, ref["r1_max"], CURVE_POINTS)
        want = np.asarray(ref["r2"])
        hi = region.frontier_at(np.maximum(xs - tol, 0.0)) + tol
        lo = region.frontier_at(xs + tol) - tol
        if np.all((lo <= want) & (want <= hi)):
            return []
        worst = float(np.max(np.abs(region.frontier_at(xs) - want)))
        return [f"{what}: frontier off the reference by up to {worst:.3g} bits"]

    def _sum_rate(self, region, stdout: str, what: str) -> list:
        m = _SUM_RATE.search(stdout)
        if not m:
            return [f"{what}: no sum rate printed"]
        best = float(np.max(region.r1 + region.r2))
        if float(m.group(1)) < best - REGION_TOL:
            return [f"{what}: printed sum rate {m.group(1)} below frontier max {best}"]
        return []

    def _inside(self, op, got) -> list:
        """This op's region inside the region of op ``inside``, compared at
        the outer region's own CSV abscissae (where its values are exact;
        between them, interpolation would cut corners off a curved frontier)."""
        outer = self.seen.get(f"{op.inside}:csv")
        if outer is None:
            return [f"{op.key}: no output of {op.inside} to compare"]
        inner, outer = self._region(got[f"{op.key}:csv"]), self._region(outer)
        xs = outer.r1[outer.r1 <= inner.r1_max]
        if (inner.r1_max > outer.r1_max + REGION_TOL
                or np.any(inner.frontier_at(xs) > outer.r2[:xs.size] + REGION_TOL)):
            return [f"{op.key}: region pokes out of {op.inside}'s"]
        return []

    def _pentagon(self, region, r1, r2, s, what: str) -> list:
        want = (min(r1, s), min(r2, s), min(s, r1 + r2))
        have = (region.r1_max, region.r2_max, region.max_sum())
        bad = [n for n, a, b in zip(("R1", "R2", "R1+R2"), have, want)
               if abs(a - b) > REGION_TOL * max(1.0, abs(b))]
        return [f"{what}: {', '.join(bad)} off the closed form"] if bad else []

    # ------------------------------------------------------- outer-figures

    def _outer(self, op, got, stdout):
        variant = op.key.rsplit(":", 1)[1]
        region = self._region(got[f"{op.key}:csv"])
        return (self._curve(region, self.refs["outer"][op.case][variant],
                            OUTER_TOL, op.key)
                + self._sum_rate(region, stdout, op.key))

    def _figure(self, op, got, stdout):
        bad = []
        for variant in ("raw", "hull"):
            region = self._region(got[f"{op.case}:{variant}:csv"])
            bad += self._curve(region, self.refs["outer"][op.case][variant],
                               OUTER_TOL, f"{op.key}:{variant}")
        return bad

    # ------------------------------------------------------- regime-sweep

    def _classify(self, op, got, stdout):
        label = json.loads(stdout)["label"]
        want = regime_label(op.spec)
        return [] if label == want else [f"{op.key}: label {label}, expected {want}"]

    def _region2(self, op, got, stdout):
        region = self._region(got[f"{op.key}:csv"])
        return self._pentagon(region, *strong_region(op.spec), what=op.key)

    def _sumcap(self, op, got, stdout):
        value = json.loads(stdout)["sum_capacity"]
        want = sum_capacity(op.spec)
        if abs(value - want) > SUMCAP_TOL:
            return [f"{op.key}: sum capacity {value} vs closed form {want}"]
        return []

    def _region5(self, op, got, stdout):
        d = op.spec
        region = self._region(got[f"{op.key}:csv"])
        return self._pentagon(
            region, _psi(d["s11"]**2 * d["p1"]), _psi(d["s22"]**2 * d["p2"]),
            _psi(d["s21"]**2 * d["p1"] + d["s22"]**2 * d["p2"]) + d["d12"],
            what=op.key)

    def _outer11(self, op, got, stdout):
        region = self._region(got[f"{op.key}:csv"])
        return self._sum_rate(region, stdout, op.key)

    # ------------------------------------------------------- simulate-mc

    def _simulate(self, op, got, stdout):
        res = json.loads(stdout)
        ref = self.refs["sim"][op.case]
        bad = []
        for e in ("err1", "err2"):
            if not 0.0 <= res[e] <= 1.0:
                bad.append(f"{op.key}: {e} = {res[e]} outside [0, 1]")
            slack = res[f"{e}_ci95"] + ref[f"{e}_ci95"] + 1e-12
            if abs(res[e] - ref[e]) > slack:
                bad.append(f"{op.key}: {e} = {res[e]}, reference {ref[e]} "
                           f"beyond the combined half-widths {slack:.3g}")
        budget = 2.0 ** (res["n"] * op.spec["d12"]) * (1 + 1e-9)
        if res["cell_count"] > budget:
            bad.append(f"{op.key}: {res['cell_count']} cells exceed 2^(n d12)")
        return bad

    # ------------------------------------------------------- discrete-search

    def _dcheck(self, op, got, stdout):
        res = json.loads(stdout)
        ref = self.refs["discrete"][op.case]
        bad = []
        if res["holds_on_searched_family"] != ref["holds"]:
            bad.append(f"{op.key}: verdict {res['holds_on_searched_family']}, "
                       f"reference {ref['holds']}")
        if res["worst_gap"] > ref["worst_gap"] + GAP_TOL:
            bad.append(f"{op.key}: worst gap {res['worst_gap']} above the "
                       f"reference {ref['worst_gap']}")
        condition = int(op.argv[op.argv.index("--condition") + 1])
        gap = witness_gap(op.spec, condition, res["witnesses"])
        if abs(gap - res["worst_gap"]) > GAP_TOL:
            bad.append(f"{op.key}: gap at the witness is {gap}, "
                       f"report says {res['worst_gap']}")
        return bad

    def _dregion(self, op, got, stdout):
        region = self._region(got[f"{op.key}:csv"])
        return self._curve(region, self.refs["discrete"][op.case], REGION_TOL,
                           op.key)


# ---------------------------------------------------------------- references

def _psi(x: float) -> float:
    return 0.5 * math.log2(1.0 + x)


def regime_label(d: dict) -> str:
    """Regime label straight from the corollary thresholds."""
    s11, s12, s21, s22 = d["s11"], d["s12"], d["s21"], d["s22"]
    if d["type"] == "gaussian-6":
        thr = (s11**2 - s21**2) / (2 * s11 * s21)
        return "corollary-1" if s22 >= thr else "corollary-2"
    if d["type"] == "gaussian-13":
        thr = (s21**2 - s11**2) / (2 * s11 * s21)
        return "corollary-3" if thr - s12 >= 0 else "none"
    return "corollary-4" if s21 - s11 >= 0 else "none"


def _cascade(d: dict):
    """Gains and noise covariance of the cascade's correlated-noise form."""
    s11, s12, s21, s22 = d["s11"], d["s12"], d["s21"], d["s22"]
    if d["type"] == "gaussian-6":
        h = ((s11, s12), (s21 + s22 * s11, s22 * s12))
        n = (1.0, s22**2 + 1.0)
    else:
        h = ((s11 + s12 * s21, s12 * s22), (s21, s22))
        n = (s12**2 + 1.0, 1.0)
    return h, n


def _scalar_mis(d: dict) -> dict:
    """Every mutual information the evaluators use, for scalar outputs."""
    ((h11, h12), (h21, h22)), (n1, n2) = _cascade(d)
    p1, p2 = d["p1"], d["p2"]
    a1, b1 = h11**2 * p1, h12**2 * p2     # signal powers at y1
    a2, b2 = h21**2 * p1, h22**2 * p2     # signal powers at y2
    lg = lambda num, den: 0.5 * math.log2(num / den)
    return {
        "x1;y1|x2": lg(a1 + n1, n1), "x2;y1|x1": lg(b1 + n1, n1),
        "x2;y2|x1": lg(b2 + n2, n2), "x12;y1": lg(a1 + b1 + n1, n1),
        "x12;y2": lg(a2 + b2 + n2, n2), "x2;y2": lg(a2 + b2 + n2, a2 + n2),
        "x1;y1": lg(a1 + b1 + n1, b1 + n1),
    }


def strong_region(d: dict) -> tuple:
    """(R1, R2, R1+R2) bounds of theorem 2 at full power."""
    i, c = _scalar_mis(d), d["d12"]
    return (i["x1;y1|x2"], min(i["x2;y2|x1"] + c, i["x2;y1|x1"]),
            min(i["x12;y2"] + c, i["x12;y1"]))


def sum_capacity(d: dict) -> float:
    """Theorem 3 (gaussian-6) or theorem 4 (gaussian-13) at full power."""
    i, c = _scalar_mis(d), d["d12"]
    if d["type"] == "gaussian-6":
        return min(i["x1;y1|x2"] + i["x2;y2"] + c, i["x12;y1"])
    return min(i["x2;y2|x1"] + i["x1;y1"], i["x12;y2"] + c)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _cmi(joint: np.ndarray, a: set, b: set, c: set) -> float:
    def h(keep):
        drop = tuple(i for i in range(joint.ndim) if i not in keep)
        return _entropy(joint.sum(axis=drop).ravel()) if keep else 0.0
    return max(h(a | c) + h(b | c) - h(a | b | c) - h(c), 0.0)


def witness_gap(doc: dict, condition: int, wit: dict) -> float:
    """The searched gap evaluated at the reported witness."""
    shape = (doc["ny1"], doc["ny2"], doc["nx1"], doc["nx2"])
    w = np.asarray(doc["w"], dtype=float).reshape(shape)
    p1, p2 = np.asarray(wit["p1"]), np.asarray(wit["p2"])
    if condition == 7:
        kernel = np.asarray(wit["v_kernel"])
        joint = np.einsum("a,b,abv,cdab->vabcd", p1, p2, kernel, w)
        # axes v, x1, x2, y1, y2: I(v;y1|x2) - I(v;y2|x2)
        return _cmi(joint, {0}, {3}, {2}) - _cmi(joint, {0}, {4}, {2})
    joint = np.einsum("a,b,cdab->abcd", p1, p2, w)
    # axes x1, x2, y1, y2: I(x1;y2|x2) - I(x1;y1|x2)
    return _cmi(joint, {0}, {3}, {1}) - _cmi(joint, {0}, {2}, {1})
