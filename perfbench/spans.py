"""Span tracing around the package's layers, from outside the package.

The CLI and the package modules look their collaborators up as module
attributes at call time, so replacing those attributes with timing wrappers
traces every call without touching the package.  A wrapped name that no
longer exists is skipped and reported absent (``Tracer.skipped``).

Spans (name, start, end, parent span, op id) are kept in memory and written
out when the run ends; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from collections import Counter

LAYERS = ("cli", "outer_bound", "regions", "regimes", "gaussian", "discrete", "sim")

# (module, function, span name).  Functions sharing a span name are one
# metric group, e.g. the four capacity evaluators of ``regimes``.
WRAPPED = (
    ("outer_bound", "outer_region", "outer_bound.outer_region"),
    ("outer_bound", "sum_rate_bound", "outer_bound.sum_rate_bound"),
    ("outer_bound", "constraints_at", "outer_bound.constraints_at"),
    ("outer_bound", "region_at", "outer_bound.region_at"),
    ("regions", "frontier_csv", "regions.frontier_csv"),
    ("regions", "convex_hull", "regions.convex_hull"),
    ("regions", "hull_of_points", "regions.hull_of_points"),
    ("regions", "from_constraints", "regions.from_constraints"),
    ("regions", "from_csv", "regions.from_csv"),
    ("regions", "includes", "regions.includes"),
    ("regions", "gap", "regions.gap"),
    ("regions", "union_frontier", "regions.union_frontier"),
    ("regimes", "classify", "regimes.classify"),
    ("regimes", "effective_form", "regimes.effective_form"),
    ("regimes", "capacity_region_strong", "regimes.capacity"),
    ("regimes", "sum_capacity_fwd_own", "regimes.capacity"),
    ("regimes", "sum_capacity_fwd_interference", "regimes.capacity"),
    ("regimes", "capacity_region_one_sided", "regimes.capacity"),
    ("gaussian", "gaussian_mi", "gaussian.gaussian_mi"),
    ("discrete", "check_condition", "discrete.check_condition"),
    ("discrete", "inner_region_strong", "discrete.inner_region"),
    ("discrete", "inner_region_one_sided", "discrete.inner_region"),
    ("discrete", "mi", "discrete.mi"),
    ("sim", "simulate", "sim.simulate"),
)
CLI_SPAN = "cli.main"
FRONTIER_SPAN = "outer_bound.frontier_fn"

# Per-layer metrics: (name, unit, better, the end-to-end metric it should
# move and where).  Units ending in ".computed" are counts derived from the
# op's arguments and results, not measured.
METRICS = (
    ("cli.calls", "count", "higher", "ops_per_s on every workload"),
    ("cli.self_ms", "ms", "lower",
     "latency_p50_ms, ops_per_s on regime-sweep; negligible on outer-figures"),
    ("outer_bound.outer_region.calls", "count", "higher", "ops_per_s on outer-figures"),
    ("outer_bound.outer_region.busy_ms", "ms", "lower",
     "ops_per_s, latency_tail_ms (grid 201) and latency_p50_ms (grid-11 "
     "set-up share) on outer-figures"),
    ("outer_bound.sum_rate_bound.busy_ms", "ms", "lower",
     "latency_p50_ms on outer-figures (grid-11 bounds)"),
    ("outer_bound.frontier_fn.calls", "count", "lower",
     "ops_per_s, latency_tail_ms on outer-figures (plain outer and figure)"),
    ("outer_bound.frontier_fn.points", "count", "lower",
     "ops_per_s, latency_tail_ms on outer-figures (plain outer and figure)"),
    ("outer_bound.frontier_fn.busy_ms", "ms", "lower",
     "ops_per_s, latency_tail_ms on outer-figures (plain outer and figure)"),
    ("outer_bound.grid_points", "count.computed", "higher",
     "work behind ops_per_s on outer-figures"),
    ("outer_bound.busy_ms", "ms", "lower",
     "ops_per_s, latency_p50_ms, latency_tail_ms on outer-figures"),
    ("outer_bound.busy_share", "ratio", "lower", "share of op time on outer-figures"),
    ("regions.frontier_csv.self_ms", "ms", "lower", "small share of outer-figures"),
    ("regions.convex_hull.busy_ms", "ms", "lower", "small share of outer-figures"),
    ("regions.from_constraints.calls", "count", "lower",
     "inner ops on discrete-search and regime-sweep"),
    ("regions.from_constraints.busy_ms", "ms", "lower",
     "inner ops on discrete-search and regime-sweep"),
    ("regions.hull_of_points.calls", "count", "lower",
     "hull share of discrete-search inner ops"),
    ("regions.hull_of_points.busy_ms", "ms", "lower",
     "hull share of discrete-search inner ops"),
    ("regimes.classify.busy_ms", "ms", "lower", "ops_per_s on regime-sweep only"),
    ("regimes.capacity.calls", "count", "higher", "ops_per_s on regime-sweep only"),
    ("regimes.capacity.busy_ms", "ms", "lower",
     "ops_per_s, latency_p50_ms, latency_tail_ms on regime-sweep only"),
    ("gaussian.gaussian_mi.calls", "count", "lower", "regime-sweep only"),
    ("gaussian.gaussian_mi.busy_ms", "ms", "lower",
     "latency_p50_ms, ops_per_s on regime-sweep only"),
    ("discrete.check_condition.self_ms", "ms", "lower",
     "ops_per_s, latency_p50_ms, latency_tail_ms on discrete-search only"),
    ("discrete.inner_region.self_ms", "ms", "lower",
     "ops_per_s, latency_tail_ms on discrete-search only"),
    ("discrete.mi.calls", "count", "lower",
     "ops_per_s, latency_p50_ms, latency_tail_ms on discrete-search only"),
    ("discrete.mi.busy_ms", "ms", "lower",
     "ops_per_s, latency_p50_ms, latency_tail_ms on discrete-search only"),
    ("discrete.mi.share", "ratio", "lower",
     "ops_per_s, latency_p50_ms, latency_tail_ms on discrete-search only"),
    ("discrete.lattice_points", "count.computed", "higher",
     "work behind ops_per_s on discrete-search"),
    ("sim.simulate.busy_ms", "ms", "lower",
     "latency_p50_ms, latency_tail_ms on simulate-mc only"),
    ("sim.trials", "count", "higher", "work behind ops_per_s on simulate-mc"),
    ("sim.ms_per_trial", "ms", "lower",
     "latency_p50_ms (small codebooks), latency_tail_ms (m = 256) on simulate-mc"),
    ("sim.pair_evals", "count.computed", "higher",
     "work behind latency_tail_ms on simulate-mc"),
) + tuple((f"{layer}.failed", "count", "lower", "ok_frac") for layer in LAYERS) + (
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing itself"),
)

def _lattice(dim: int, resolution: int) -> int:
    """Points of the uniform simplex lattice the discrete searches use."""
    return math.comb(resolution - 1 + dim - 1, dim - 1)


class Tracer:
    """Timing wrappers for the package's layers and the spans they record.

    The wrappers are built once; ``install`` swaps them in for one traced
    op and ``uninstall`` restores the original functions, so untraced ops
    run the package untouched.  ``entry`` is the traced CLI entry point.
    """

    def __init__(self, pkg):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.failed = Counter()
        self.counts = Counter()
        self.skipped: list[str] = []
        self.t0 = time.perf_counter()
        self._patches = self._build(pkg)
        self.entry = self.wrap(CLI_SPAN, pkg.cli.main.main)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".")[0])
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn, recording one span per call.

        ``after(result, args, kwargs)`` post-processes the result outside
        the span; if it fails (say, after a refactor) the result passes
        through unchanged and the failure is listed in ``skipped``.
        """
        nid = self._id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        layers = self.layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(nid)  # an open span holds only its name id
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                escaped = parent < 0 or layers[spans[parent]] != layers[nid]
                clean_exit = isinstance(exc, SystemExit) and exc.code in (0, None)
                if escaped and not clean_exit:
                    self.failed[layers[nid]] += 1
                raise
            finally:
                stack.pop()
                spans[idx] = (nid, t0, clock(), parent, self.op)
            if after is None:
                return out
            try:
                return after(out, args, kwargs)
            except Exception as exc:  # keep the op running; report the hook
                msg = f"{name} hook ({type(exc).__name__}: {exc})"
                if msg not in self.skipped:
                    self.skipped.append(msg)
                return out

        return traced

    def _build(self, pkg) -> list:
        mods = {m: importlib.import_module(f"{pkg.__name__}.{m}")
                for m in ("cli",) + LAYERS[1:]}
        hooks = {
            "outer_bound.outer_region": self._after_outer,
            "outer_bound.sum_rate_bound": self._after_grid,
            "discrete.check_condition": self._after_check,
            "discrete.inner_region": self._after_inner,
            "sim.simulate": self._after_simulate,
        }
        patches = []
        for mod, fn, name in WRAPPED:
            orig = getattr(mods[mod], fn, None)
            if orig is None:
                self.skipped.append(f"{mod}.{fn} (absent)")
                continue
            hook = hooks.get(name)
            after = functools.partial(hook, inspect.signature(orig)) if hook else None
            wrapper = self.wrap(name, orig, after)
            # the defining module and every module that imported the name
            for holder in (pkg, *mods.values()):
                patches += [(holder, attr, orig, wrapper)
                            for attr, val in vars(holder).items() if val is orig]
        return patches

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig, _ in self._patches:
            setattr(holder, attr, orig)

    # ------------------------------------------------------- result hooks

    def _bound_args(self, sig, args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _after_grid(self, sig, out, args, kwargs):
        grid_n = self._bound_args(sig, args, kwargs)["grid_n"]
        self.counts["outer_bound.grid_points"] += grid_n ** 2
        return out

    def _after_outer(self, sig, region, args, kwargs):
        self._after_grid(sig, region, args, kwargs)
        fn = getattr(region, "frontier_fn", None)
        if fn is None:
            return region

        def counted(x):
            self.counts[FRONTIER_SPAN + ".points"] += getattr(x, "size", 1)
            return fn(x)

        return dataclasses.replace(region, frontier_fn=self.wrap(FRONTIER_SPAN, counted))

    def _after_check(self, sig, report, args, kwargs):
        a = self._bound_args(sig, args, kwargs)
        ch, grid = a["ch"], a["grid"]
        base = _lattice(ch.nx1, grid) * _lattice(ch.nx2, grid)
        if a["which"] == 7:
            aux = a["aux_card"] or ch.nx1 * ch.nx2
            kernels = a["samples"] + 1 + sum(aux >= k for k in
                                             (ch.nx1, ch.nx2, ch.nx1 * ch.nx2))
            probe = max(3, grid // 4)
            base += (_lattice(ch.nx1, probe) * _lattice(ch.nx2, probe) + 1) * kernels
        self.counts["discrete.lattice_points"] += base
        return report

    def _after_inner(self, sig, region, args, kwargs):
        a = self._bound_args(sig, args, kwargs)
        ch = a["ch"]
        self.counts["discrete.lattice_points"] += (
            _lattice(ch.nx1, a["grid"]) * _lattice(ch.nx2, a["grid"]))
        return region

    def _after_simulate(self, sig, res, args, kwargs):
        cfg = self._bound_args(sig, args, kwargs)["cfg"]
        m1, m2 = cfg.message_counts()
        if res.scheme == "thm2":
            pairs = m1 * m2 + m1 * res.per_cell
        else:
            pairs = res.per_cell * m2
        self.counts["sim.trials"] += res.trials
        self.counts["sim.pair_evals"] += res.trials * cfg.n * pairs
        return res

    # ------------------------------------------------------- output

    def write(self, path) -> None:
        """Write every span as CSV, times in seconds from tracer start."""
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent,op\n")
            for i, (nid, t0, t1, parent, op) in enumerate(self.spans):
                f.write(f"{i},{self.names[nid]},{t0 - self.t0:.9f},"
                        f"{t1 - self.t0:.9f},{parent},{op}\n")

    def metrics(self, overhead_frac: float) -> tuple[dict, dict]:
        """Per-layer metric values from the closed spans, and the base of
        each span-derived ratio, described.

        busy = time inside any span of a name (or layer), counting nested
        spans of the same name (or layer) once; self = busy minus the time
        covered by direct child spans.
        """
        lbit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        n = len(self.spans)
        dur, child = [0.0] * n, [0.0] * n
        name_above, layer_above = [0] * n, [0] * n
        calls, busy, own, layer_busy = Counter(), Counter(), Counter(), Counter()
        for i, (nid, t0, t1, parent, _) in enumerate(self.spans):
            dur[i] = d = t1 - t0
            if parent >= 0:
                child[parent] += d
                pid = self.spans[parent][0]
                name_above[i] = name_above[parent] | (1 << pid)
                layer_above[i] = layer_above[parent] | lbit[self.layers[pid]]
            calls[nid] += 1
            if not name_above[i] >> nid & 1:
                busy[nid] += d
            if not layer_above[i] & lbit[self.layers[nid]]:
                layer_busy[self.layers[nid]] += d
        for i, rec in enumerate(self.spans):
            own[rec[0]] += dur[i] - child[i]

        def get(table, name, scale=1e3):
            nid = self._ids.get(name)
            return table[nid] * scale if nid is not None else 0.0

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        m = {
            "cli.calls": get(calls, CLI_SPAN, 1),
            "cli.self_ms": get(own, CLI_SPAN),
            "outer_bound.outer_region.calls": get(calls, "outer_bound.outer_region", 1),
            "outer_bound.outer_region.busy_ms": get(busy, "outer_bound.outer_region"),
            "outer_bound.sum_rate_bound.busy_ms": get(busy, "outer_bound.sum_rate_bound"),
            "outer_bound.frontier_fn.calls": get(calls, FRONTIER_SPAN, 1),
            "outer_bound.frontier_fn.points": self.counts[FRONTIER_SPAN + ".points"],
            "outer_bound.frontier_fn.busy_ms": get(busy, FRONTIER_SPAN),
            "outer_bound.grid_points": self.counts["outer_bound.grid_points"],
            "outer_bound.busy_ms": layer_busy["outer_bound"] * 1e3,
            "outer_bound.busy_share": ratio(layer_busy["outer_bound"],
                                            layer_busy["cli"]),
            "regions.frontier_csv.self_ms": get(own, "regions.frontier_csv"),
            "regions.convex_hull.busy_ms": get(busy, "regions.convex_hull"),
            "regions.from_constraints.calls": get(calls, "regions.from_constraints", 1),
            "regions.from_constraints.busy_ms": get(busy, "regions.from_constraints"),
            "regions.hull_of_points.calls": get(calls, "regions.hull_of_points", 1),
            "regions.hull_of_points.busy_ms": get(busy, "regions.hull_of_points"),
            "regimes.classify.busy_ms": get(busy, "regimes.classify"),
            "regimes.capacity.calls": get(calls, "regimes.capacity", 1),
            "regimes.capacity.busy_ms": get(busy, "regimes.capacity"),
            "gaussian.gaussian_mi.calls": get(calls, "gaussian.gaussian_mi", 1),
            "gaussian.gaussian_mi.busy_ms": get(busy, "gaussian.gaussian_mi"),
            "discrete.check_condition.self_ms": get(own, "discrete.check_condition"),
            "discrete.inner_region.self_ms": get(own, "discrete.inner_region"),
            "discrete.mi.calls": get(calls, "discrete.mi", 1),
            "discrete.mi.busy_ms": get(busy, "discrete.mi"),
            "discrete.mi.share": ratio(get(busy, "discrete.mi"),
                                       layer_busy["discrete"] * 1e3),
            "discrete.lattice_points": self.counts["discrete.lattice_points"],
            "sim.simulate.busy_ms": get(busy, "sim.simulate"),
            "sim.trials": self.counts["sim.trials"],
            "sim.ms_per_trial": ratio(get(busy, "sim.simulate"), self.counts["sim.trials"]),
            "sim.pair_evals": self.counts["sim.pair_evals"],
        }
        m.update({f"{layer}.failed": self.failed[layer] for layer in LAYERS})
        m["trace.overhead_frac"] = overhead_frac
        bases = {
            "outer_bound.busy_share":
                f"op wall time, the cli.main spans = {layer_busy['cli'] * 1e3:.6g} ms",
            "discrete.mi.share":
                f"busy time of the discrete layer = {layer_busy['discrete'] * 1e3:.6g} ms",
        }
        return m, bases
