"""Seeded inputs for the four workloads.

Every workload is an endless sequence of rounds; a round is a fixed list of
op slots, and the benchmark seed only chooses what fills each slot.  That
keeps the cost of a round (and so every timing) nearly independent of the
seed while the inputs themselves differ from seed to seed.  It also fixes
where the median and the 90th percentile of op times fall: each round is
laid out so that both land inside a group of ops of one kind and cost, not
on the edge between two groups, however many rounds a run completes.

Three workloads draw their channels from numbered pools: pool case k is
made by a generator keyed on (pool, k), and ``refs/*.json`` stores what the
package printed for that case when the references were made (see
``make_refs.py``).  ``regime-sweep`` and the grid-11 bounds of
``outer-figures`` need no pool: the first is checked against closed forms
computed in ``checks.py``, the second against each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

OUTER_GRID = 201
PRESETS = ("fig2", "fig3", "fig4")
PRESET_GAINS = {  # the CLI's figure presets, written out as channel specs
    "fig2": dict(s11=100.0, s12=60.0, s21=60.0, s22=100.0),
    "fig3": dict(s11=60.0, s12=100.0, s21=100.0, s22=60.0),
    "fig4": dict(s11=60.0, s12=100.0, s21=60.0, s22=100.0),
}
GAUSS_POOL = 32

# Diagonal point of the xor-copy channel's strong inner region at grid 11
# (acceptance criterion 9 finds it by bisection; this is its value).
T_STAR = 0.35714285714285726
XOR_D12 = 0.25 / 0.7

# Monte Carlo slots: (name, channel family, n, rate, scheme, trials).
# Rates are fractions of T_STAR for the xor-copy channel, bits/use otherwise.
# The last two slots use m = 256 codebooks and set the latency tail.
SIM_SLOTS = (
    ("x07", "xor", 16, 0.7, "thm2", 100),
    ("x10", "xor", 12, 1.0, "thm2", 100),
    ("x13", "xor", 12, 1.3, "thm2", 100),
    ("x10t4", "xor", 8, 1.0, "thm4", 100),
    ("b2", "bin", 10, 0.5, "thm2", 100),
    ("b4", "bin", 20, 0.25, "thm4", 100),
    ("t2", "tern", 8, 0.6, "thm2", 100),
    ("B2", "bin", 16, 0.5, "thm2", 40),
    ("T4", "tern", 8, 1.0, "thm4", 80),
)
SIM_POOL = 6

# Discrete searches: (name, command, channel family, grid, samples).
DISC_SLOTS = (
    ("i5b", "inner5", "os-bin", 11, None),
    ("c11b", "check11", "bin", 11, None),
    ("c14b", "check14", "os-bin", 11, None),
    ("c4b", "check4", "bin", 16, None),
    ("c7b", "check7", "bin", 11, 300),
    ("c4t", "check4", "tern", 11, None),
    ("i2t", "inner2", "tern", 11, None),
    ("c7t", "check7", "tern", 11, 100),
)
DISC_POOL = 6
# A round of nine searches: three ~60 ms binary ones, three ~120 ms binary
# condition-4 searches (the median op is the middle one), the ~0.5 s binary
# condition-7 search, and two ~2 s ternary ones (the 90th percentile; about
# 80% of the time), which cycle through TERNARY.
DISC_ROUND = ("i5b", "c11b", "c14b", "c4b", "c4b", "c4b", "c7b")
TERNARY = ("c4t", "i2t", "c7t")

REGIME_ROUNDS = 32  # distinct rounds of channels before a workload repeats them
CONF_PAIRS = 4      # conference-monotonicity pairs of grid-11 outer bounds per round
SIM_ROUNDS = 64     # distinct rounds of simulate configs
DISC_ROUNDS = 48    # distinct rounds of discrete searches


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``argv`` may hold ``{in}`` (the input directory) and ``{out}`` (a fresh
    output path).  Ops with equal ``key`` must print equal bytes.  ``case``
    names the stored reference, ``spec`` the channel document a check needs,
    and ``inside`` the key of an op whose region must contain this one's.
    """

    kind: str
    key: str
    argv: tuple
    case: str = ""
    spec: dict = field(default=None, compare=False, hash=False)
    inside: str = ""


@dataclass
class Workload:
    """Inputs and op rounds of one workload.

    The ``after`` ops that the timed loop did not run, run once after it,
    untimed, for checks that need their outputs.
    """

    files: dict            # input file name -> JSON text
    rounds: list           # list of rounds (lists of Op); cycled
    warmup: Op
    after: list = field(default_factory=list)

    def round(self, r: int) -> list:
        return self.rounds[r % len(self.rounds)]


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def _pool_picker(rng: np.random.Generator, size: int):
    """``pick(slot)`` names the pool case for the next use of a slot: each
    slot cycles through its own seeded permutation of the pool, so every
    run uses each case about equally often and its cost hardly depends on
    the seed."""
    perms, uses = {}, {}

    def pick(slot: str) -> str:
        if slot not in perms:
            perms[slot], uses[slot] = rng.permutation(size), 0
        k = perms[slot][uses[slot] % size]
        uses[slot] += 1
        return f"{slot}-{int(k)}"
    return pick


# ---------------------------------------------------------------- pools

def gaussian_case(case: str) -> dict:
    """Gaussian spec for an outer-figures case: a preset or pool entry gNN."""
    if case in PRESET_GAINS:
        return {"type": "gaussian", **PRESET_GAINS[case],
                "p1": 1.0, "p2": 1.0, "d12": 0.5, "d21": 0.5}
    rng = _rng(11, int(case[1:]))
    s = np.exp(rng.uniform(math.log(0.1), math.log(100.0), size=4))
    d12, d21 = rng.uniform(0.0, 1.0, size=2)
    return {"type": "gaussian", "s11": _sig(s[0]), "s12": _sig(s[1]),
            "s21": _sig(s[2]), "s22": _sig(s[3]), "p1": 1.0, "p2": 1.0,
            "d12": _sig(d12), "d21": _sig(d21)}


def _discrete_doc(w: np.ndarray, d12: float = 0.0) -> dict:
    ny1, ny2, nx1, nx2 = w.shape
    return {"type": "discrete", "ny1": ny1, "ny2": ny2, "nx1": nx1, "nx2": nx2,
            "w": [float(v) for v in w.reshape(-1)], "d12": d12}


def _random_w(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.gamma(1.0, size=(k, k, k, k))
    return w / w.sum(axis=(0, 1), keepdims=True)


def _one_sided_w(rng: np.random.Generator, k: int) -> np.ndarray:
    """P(y1, y2 | x1, x2) = P(y1 | x1) P(y2 | x1, x2)."""
    a = rng.gamma(1.0, size=(k, k))
    a /= a.sum(axis=0, keepdims=True)
    b = rng.gamma(1.0, size=(k, k, k))
    b /= b.sum(axis=0, keepdims=True)
    w = np.einsum("ca,dab->cdab", a, b)
    # exact per-input normalization, as DiscreteIC checks it to 1e-12
    return w / w.sum(axis=(0, 1), keepdims=True)


def xor_copy_w() -> np.ndarray:
    """y1 = x1 xor x2 (noiseless), y2 = x1."""
    w = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            w[x1 ^ x2, x1, x1, x2] = 1.0
    return w


def sim_case(case: str) -> dict:
    """Simulation config for a simulate-mc case ``<slot>-<k>``."""
    name, k = case.rsplit("-", 1)
    idx = [s[0] for s in SIM_SLOTS].index(name)
    _, family, n, rate, scheme, trials = SIM_SLOTS[idx]
    rng = _rng(21, idx, int(k))
    if family == "xor":
        w, d12, rate = xor_copy_w(), XOR_D12, rate * T_STAR
    else:
        w, d12 = _random_w(rng, 2 if family == "bin" else 3), 0.25
    return {"channel": _discrete_doc(w), "n": n, "r1": rate, "r2": rate,
            "d12": d12, "scheme": scheme, "trials": trials,
            "seed": int(rng.integers(2**31))}


def discrete_case(case: str) -> tuple[dict, tuple]:
    """Channel spec and CLI arguments for a discrete-search case."""
    name, k = case.rsplit("-", 1)
    idx = [s[0] for s in DISC_SLOTS].index(name)
    _, cmd, family, grid, samples = DISC_SLOTS[idx]
    rng = _rng(31, idx, int(k))
    size = 3 if family.endswith("tern") else 2
    w = _one_sided_w(rng, size) if family.startswith("os") else _random_w(rng, size)
    doc = _discrete_doc(w, d12=_sig(rng.uniform(0.0, 0.5)))
    path = f"{{in}}/{case}.json"
    if cmd.startswith("inner"):
        args = ("inner", "--channel", path, "--theorem", cmd[5:],
                "--grid", str(grid), "--out", "{out}")
    else:
        args = ("check", "--channel", path, "--condition", cmd[5:],
                "--grid", str(grid))
        if samples:
            args += ("--samples", str(samples), "--seed", str(int(k)))
    return doc, args


# ---------------------------------------------------------------- workloads

def outer_op(case: str, hull: bool) -> Op:
    args = ("outer", "--channel", f"{{in}}/{case}.json",
            "--grid", str(OUTER_GRID), "--out", "{out}")
    if hull:
        args += ("--hull",)
    variant = "hull" if hull else "raw"
    return Op("outer", f"{case}:{variant}", args, case=case)


def figure_op(preset: str) -> Op:
    return Op("figure", f"{preset}:figure",
              ("figure", "--preset", preset, "--grid", str(OUTER_GRID),
               "--out", "{out}"), case=preset)


def _gaussian6(rng: np.random.Generator, strong: bool) -> dict:
    """gaussian-6 on a chosen side of its threshold (corollary 1 or 2)."""
    s11, s21 = rng.uniform(0.2, 2.0, size=2)
    thr = (s11**2 - s21**2) / (2 * s11 * s21)
    s22 = thr + rng.uniform(0.05, 1.5) * (1 if strong else -1)
    return {"type": "gaussian-6", "s11": s11, "s12": rng.uniform(0.2, 2.0),
            "s21": s21, "s22": s22, "p1": rng.uniform(0.5, 4.0),
            "p2": rng.uniform(0.5, 4.0), "d12": rng.uniform(0.0, 1.0)}


def _gaussian13(rng: np.random.Generator) -> dict:
    """gaussian-13 inside corollary 3: s12 below (s21^2 - s11^2)/(2 s11 s21)."""
    s11 = rng.uniform(0.2, 1.5)
    s21 = s11 * rng.uniform(1.2, 3.0)
    thr = (s21**2 - s11**2) / (2 * s11 * s21)
    return {"type": "gaussian-13", "s11": s11, "s12": thr * rng.uniform(0.1, 0.9),
            "s21": s21, "s22": rng.uniform(0.2, 2.0), "p1": rng.uniform(0.5, 4.0),
            "p2": rng.uniform(0.5, 4.0), "d12": rng.uniform(0.0, 1.0)}


def _one_sided(rng: np.random.Generator) -> dict:
    """One-sided spec with s21 >= s11, as in acceptance criterion 7."""
    s11 = rng.uniform(0.2, 2.0)
    return {"type": "gaussian", "s11": s11, "s12": 0.0,
            "s21": s11 * rng.uniform(1.0, 2.5), "s22": rng.uniform(0.2, 2.0),
            "p1": rng.uniform(0.3, 4.0), "p2": rng.uniform(0.3, 4.0),
            "d12": rng.uniform(0.0, 1.0), "d21": 0.0}


def _coupled(rng: np.random.Generator) -> dict:
    """Fully coupled spec drawn as in acceptance criterion 4."""
    s = rng.uniform(0.1, 3.0, size=4)
    p = rng.uniform(0.1, 5.0, size=2)
    d = rng.uniform(0.0, 1.0, size=2)
    return {"type": "gaussian", "s11": s[0], "s12": s[1], "s21": s[2], "s22": s[3],
            "p1": p[0], "p2": p[1], "d12": d[0], "d21": d[1]}


def _write_round(files: dict, r: int, docs: dict) -> dict:
    """Add round r's channel documents to ``files``; tag -> CLI path."""
    path = {}
    for tag, doc in docs.items():
        files[f"r{r:02d}-{tag}.json"] = json.dumps(doc)
        path[tag] = f"{{in}}/r{r:02d}-{tag}.json"
    return path


def _outer11(r: int, tag: str, path: str, doc: dict, inside: str = "") -> Op:
    return Op("outer11", f"r{r:02d}-{tag}:outer11",
              ("outer", "--channel", path, "--grid", "11", "--out", "{out}"),
              spec=doc, inside=inside)



def regime_sweep(seed: int) -> Workload:
    """Rounds of ten ~0.4-3 ms regime ops on seven fresh channels.

    Each round classifies three channels (~0.4 ms), evaluates four sum
    capacities, theorem 3 on two corollary-2 ``gaussian-6`` channels and
    theorem 4 on two ``gaussian-13`` ones (~1.3 ms), the theorem-5 region of
    a one-sided spec (~2 ms) and the theorem-2 region of two corollary-1
    ``gaussian-6`` channels (~3 ms).  So the median op is the middle of the
    sum-capacity ops and the 90th percentile the middle of the theorem-2
    regions.

    The theorem-5 region of each one-sided channel must lie inside that
    channel's grid-11 outer region (criterion 7); those ~60 ms bounds run
    after the timed loop, untimed, so that this workload times regime ops
    only.
    """
    rng = np.random.default_rng(seed)
    files, rounds, bounds = {}, [], []
    for r in range(REGIME_ROUNDS):
        docs = {"g6a": _gaussian6(rng, True), "g6b": _gaussian6(rng, False),
                "g13": _gaussian13(rng), "os": _one_sided(rng),
                "g6c": _gaussian6(rng, False), "g13b": _gaussian13(rng),
                "g6d": _gaussian6(rng, True)}
        path = _write_round(files, r, docs)

        def op(kind, tag, what, *args, **kw):
            return Op(kind, f"r{r:02d}-{tag}:{what}", args, spec=docs[tag], **kw)

        def classify(tag):
            return op("classify", tag, "classify", "classify", "--channel", path[tag])

        def sumcap(tag, theorem):
            return op("sumcap", tag, f"inner{theorem}", "inner", "--channel",
                      path[tag], "--theorem", theorem)

        def region2(tag):
            return op("region2", tag, "inner2", "inner", "--channel", path[tag],
                      "--theorem", "2", "--out", "{out}")

        rounds.append([
            classify("g6a"), region2("g6a"),
            classify("g13"), sumcap("g13", "4"),
            classify("os"),
            op("region5", "os", "inner5", "inner", "--channel", path["os"],
               "--theorem", "5", "--out", "{out}", inside=f"r{r:02d}-os:outer11"),
            sumcap("g6b", "3"), sumcap("g6c", "3"), sumcap("g13b", "4"),
            region2("g6d"),
        ])
        bounds.append(_outer11(r, "os", path["os"], docs["os"]))
    return Workload(files, rounds, warmup=rounds[0][1], after=bounds)


def outer_figures(seed: int) -> Workload:
    """Rounds of (outer, figure, outer --hull) at grid 201, two ~2 s ops and
    one ~1.2 s op, and eight ~0.1 s ``outer --grid 11`` bounds.

    Even rounds run the plain bound on a preset and the hull on a pool
    channel; odd rounds swap them.  The grid-11 bounds are CONF_PAIRS pairs
    of fully coupled channels, with and without 0.5 bits/use more
    conference capacity (criterion 4: the first region of a pair must lie
    inside the second).  So the grid-201 ops take about 85% of the time
    and hold the 90th percentile, and the median op is a grid-11 bound,
    where the per-call set-up of ``outer_bound`` dominates (about 5.6k of
    its 5.7k cells are the fixed 256-level cliff families): work moved
    from the grid-201 frontier into set-up shows there.
    """
    rng = np.random.default_rng(seed)
    pool = [f"g{int(i):02d}" for i in rng.permutation(GAUSS_POOL)]
    off = int(rng.integers(3))
    files, rounds = {}, []
    for r in range(2 * GAUSS_POOL):
        preset = PRESETS[(off + r) % 3]
        fig = PRESETS[(off + r + 1) % 3]
        rand = pool[r % GAUSS_POOL]
        if r % 2 == 0:
            rnd = [outer_op(preset, False), figure_op(fig), outer_op(rand, True)]
        else:
            rnd = [outer_op(rand, False), figure_op(fig), outer_op(preset, True)]
        docs = {}
        for k in range(CONF_PAIRS):
            small = _coupled(rng)
            docs[f"c{k}"] = small
            docs[f"c{k}+"] = {**small, "d12": small["d12"] + 0.5,
                              "d21": small["d21"] + 0.5}
        path = _write_round(files, r, docs)
        for k in range(CONF_PAIRS):
            rnd += [_outer11(r, f"c{k}", path[f"c{k}"], docs[f"c{k}"],
                             inside=f"r{r:02d}-c{k}+:outer11"),
                    _outer11(r, f"c{k}+", path[f"c{k}+"], docs[f"c{k}+"])]
        rounds.append(rnd)
    used = {op.case for rnd in rounds for op in rnd if op.kind == "outer"}
    files.update({f"{c}.json": json.dumps(gaussian_case(c)) for c in sorted(used)})
    return Workload(files, rounds, warmup=rounds[0][3])


def simulate_mc(seed: int) -> Workload:
    """Rounds of nine simulate configs, one per slot of SIM_SLOTS: the
    median op is a small-codebook config, the 90th percentile lies between
    the two m = 256 configs, which cost about the same."""
    pick = _pool_picker(np.random.default_rng(seed), SIM_POOL)
    files, rounds = {}, []
    for _ in range(SIM_ROUNDS):
        rnd = []
        for name, *_ in SIM_SLOTS:
            case = pick(name)
            cfg = sim_case(case)
            files[f"{case}.json"] = json.dumps(cfg)
            rnd.append(Op("simulate", f"{case}:simulate",
                          ("simulate", "--config", f"{{in}}/{case}.json"),
                          case=case, spec=cfg))
        rounds.append(rnd)
    return Workload(files, rounds, warmup=rounds[0][0])


def discrete_search(seed: int) -> Workload:
    """Rounds of DISC_ROUND plus two ternary searches."""
    pick = _pool_picker(np.random.default_rng(seed), DISC_POOL)
    files, rounds = {}, []
    for r in range(DISC_ROUNDS):
        rnd = []
        names = DISC_ROUND + (TERNARY[2 * r % 3], TERNARY[(2 * r + 1) % 3])
        for name in names:
            case = pick(name)
            doc, args = discrete_case(case)
            files[f"{case}.json"] = json.dumps(doc)
            kind = "dregion" if args[0] == "inner" else "dcheck"
            rnd.append(Op(kind, f"{case}:{kind}", args, case=case, spec=doc))
        rounds.append(rnd)
    return Workload(files, rounds, warmup=rounds[0][0])


WORKLOADS = {
    "outer-figures": outer_figures,
    "regime-sweep": regime_sweep,
    "simulate-mc": simulate_mc,
    "discrete-search": discrete_search,
}
