"""Command-line front door.

Channel specs come in as JSON documents ({"type": "gaussian" | "gaussian-6" |
"gaussian-13" | "discrete", ...}); outputs are frontier CSVs, report JSON, or
simulation JSON on stdout.  Each numeric field, and each entry of the flat
lists ``w``, ``p1`` and ``p2``, must be a JSON number (not a string or a
boolean).  The group's ``invoke`` alone turns errors into exit codes: 0
success, 2 malformed input (fields, JSON, CSV, an unreadable or non-UTF-8
file), a simulation over its codebook cap or memory running out (say, at a
huge ``--grid``), 3 undefined threshold, 4 regime violation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import discrete as dsc
from . import outer_bound, regimes, regions, sim
from .errors import (
    InputError,
    RegimeViolationError,
    ResourceLimitError,
    UndefinedThresholdError,
)
from .gaussian import GaussianIC

FIGURE_PRESETS = {
    "fig2": dict(s11=100.0, s12=60.0, s21=60.0, s22=100.0,
                 p1=1.0, p2=1.0, d12=0.5, d21=0.5),
    "fig3": dict(s11=60.0, s12=100.0, s21=100.0, s22=60.0,
                 p1=1.0, p2=1.0, d12=0.5, d21=0.5),
    "fig4": dict(s11=60.0, s12=100.0, s21=60.0, s22=100.0,
                 p1=1.0, p2=1.0, d12=0.5, d21=0.5),
}


EXIT_CODES = {  # exception kind -> exit code, tried in order
    UndefinedThresholdError: 3, RegimeViolationError: 4,
    InputError: 2, ResourceLimitError: 2, json.JSONDecodeError: 2, OSError: 2,
    UnicodeDecodeError: 2, MemoryError: 2,
}


class _Boundary(click.Group):
    """The command group; its invoke maps errors through EXIT_CODES."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            code = next(c for kind, c in EXIT_CODES.items() if isinstance(exc, kind))
            text = str(exc)
            if isinstance(exc, MemoryError):  # a bare MemoryError has no message
                text = f"out of memory ({text})" if text else "out of memory"
            click.echo(f"error: {text}", err=True)
            sys.exit(code)


def _load_json(path: str) -> dict:
    """The JSON object in ``path``.  An integer literal past Python's digit
    limit and nesting past its recursion limit are input errors; other
    malformed JSON raises ``JSONDecodeError`` as it is."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise InputError("malformed JSON: nested too deeply") from None
    except ValueError:
        raise InputError("malformed JSON: an integer literal has too many "
                         "digits") from None
    if not isinstance(doc, dict):
        raise InputError("channel spec must be a JSON object")
    return doc


def _number(value, key: str, kind: str = "a number") -> float:
    """A JSON number as a float; a string or a boolean is not a number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"field {key!r} must be {kind}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"field {key!r} must be finite") from None


def _float_field(doc: dict, key: str, default=None) -> float:
    if key not in doc and default is None:
        raise InputError(f"channel spec missing field {key!r}")
    return _number(doc.get(key, default), key)


def _array_field(doc: dict, key: str) -> np.ndarray:
    """A flat JSON list of numbers, each read by ``_number``."""
    kind = "a flat list of numbers"
    if not isinstance(doc.get(key), list):
        raise InputError(f"field {key!r} must be {kind}")
    return np.array([_number(v, key, kind) for v in doc[key]], dtype=float)


def _int_field(doc: dict, key: str, default=None) -> int:
    """A JSON integer as it is, or a float that is integral and below 2^53
    in magnitude, where each float stands for one integer exactly."""
    raw, value = doc.get(key, default), _float_field(doc, key, default)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if not math.isfinite(value):
        raise InputError(f"field {key!r} must be finite")
    if not value.is_integer() or abs(value) >= 2.0**53:
        raise InputError(f"field {key!r} must be an integer (a float must be "
                         "integral and below 2^53 in magnitude)")
    return int(value)


def load_channel(path: str):
    """Parse a channel spec file into a typed channel object."""
    doc = _load_json(path)
    kind = doc.get("type")
    if kind in ("gaussian", "gaussian-6", "gaussian-13"):
        fields = {k: _float_field(doc, k) for k in "s11 s12 s21 s22 p1 p2".split()}
        d12, d21 = _float_field(doc, "d12", 0.0), _float_field(doc, "d21", 0.0)
        if kind == "gaussian":
            return GaussianIC(**fields, d12=d12, d21=d21)
        if d21 != 0.0:
            raise InputError(f"{kind} assumes a one-directional conference (d21 = 0)")
        return regimes.CorrelatedGaussianIC(kind, **fields, d12=d12)
    if kind == "discrete":
        return discrete_channel(doc)
    raise InputError(f"unknown channel type {doc.get('type')!r}")


def discrete_channel(doc) -> dsc.DiscreteIC:
    """Parse a discrete channel document: integer alphabet sizes ny1, ny2,
    nx1, nx2, the flat transition array w in (y1, y2, x1, x2) order, and
    the conference capacities d12, d21."""
    if not isinstance(doc, dict):
        raise InputError("bad discrete channel document: must be a JSON object")
    try:
        ny1, ny2 = _int_field(doc, "ny1"), _int_field(doc, "ny2")
        nx1, nx2 = _int_field(doc, "nx1"), _int_field(doc, "nx2")
        flat = _array_field(doc, "w")
        d12, d21 = _float_field(doc, "d12", 0.0), _float_field(doc, "d21", 0.0)
    except InputError as exc:
        raise InputError(f"bad discrete channel document: {exc}") from None
    if flat.size != ny1 * ny2 * nx1 * nx2:
        raise InputError("flat transition array has the wrong length")
    if min(ny1, ny2, nx1, nx2) < 0:
        raise InputError("alphabet sizes must be nonnegative")
    return dsc.DiscreteIC(flat.reshape(ny1, ny2, nx1, nx2), d12=d12, d21=d21)


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True))


@click.group(cls=_Boundary)
def main():
    """Rate-region bounds and coding simulation for conferencing receivers."""


@main.command("outer")
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--grid", default=outer_bound.DEFAULT_GRID, show_default=True,
              type=int, help="parameter sweep resolution per axis")
@click.option("--hull/--no-hull", default=False, show_default=True,
              help="write the convex hull of the union frontier")
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_outer(channel_path: str, grid: int, hull: bool, out_path: str):
    """Union outer-bound frontier for a Gaussian channel spec."""
    ch = load_channel(channel_path)
    if not isinstance(ch, GaussianIC):
        raise InputError("outer bound needs a spec with type 'gaussian'")
    region = outer_bound.outer_region(ch, grid_n=grid)
    if hull:
        region = regions.convex_hull(region)
    Path(out_path).write_text(regions.frontier_csv(region))
    click.echo(f"wrote {out_path} (max sum rate "
               f"{outer_bound.sum_rate_bound(ch, grid_n=grid):.9g} bits/use)")


@main.command("figure")
@click.option("--preset", required=True,
              type=click.Choice(sorted(FIGURE_PRESETS)))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--grid", default=outer_bound.DEFAULT_GRID, show_default=True, type=int)
@click.option("--compare", "compare_path", default=None, type=click.Path(),
              help="frontier CSV from an external bound to compare against")
def cmd_figure(preset: str, out_dir: str, grid: int, compare_path: str | None):
    """Reproduce a preset comparison setup; optionally diff an external bound."""
    if compare_path is not None:
        other = regions.from_csv(Path(compare_path).read_text(encoding="utf-8"))
    ch = GaussianIC(**FIGURE_PRESETS[preset])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    region = outer_bound.outer_region(ch, grid_n=grid)
    (out / f"{preset}_bound.csv").write_text(regions.frontier_csv(region))
    hull = regions.convex_hull(region)
    (out / f"{preset}_bound_hull.csv").write_text(regions.frontier_csv(hull))
    if compare_path is not None:
        grid_r1 = np.linspace(0.0, max(region.r1_max, other.r1_max),
                              regions.FRONTIER_SAMPLES)
        ours = region.frontier_at(grid_r1)
        theirs = other.frontier_at(grid_r1)
        lines = ["r1,r2_bound,r2_external,difference"]
        lines += map("%.9g,%.9g,%.9g,%.9g".__mod__, zip(
            grid_r1.tolist(), ours.tolist(), theirs.tolist(), (theirs - ours).tolist()))
        (out / f"{preset}_comparison.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {preset} outputs to {out_dir}")


@main.command("classify")
@click.option("--channel", "channel_path", required=True, type=click.Path())
def cmd_classify(channel_path: str):
    """Print the regime report for a cascade or one-sided channel spec."""
    ch = load_channel(channel_path)
    if isinstance(ch, regimes.CorrelatedGaussianIC):
        report = regimes.classify(ch.kind, *ch.gains)
    elif isinstance(ch, GaussianIC):
        if ch.s12 != 0.0:
            raise InputError(
                "no regime classifier for a fully coupled channel; use type "
                "'gaussian-6', 'gaussian-13', or a one-sided spec (s12 = 0)"
            )
        report = regimes.classify("one-sided", ch.s11, 0.0, ch.s21, ch.s22)
    else:
        raise InputError("classification needs a Gaussian channel spec")
    _echo_json(asdict(report))


@main.command("inner")
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--theorem", required=True, type=click.Choice(["2", "3", "4", "5"]))
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--force", is_flag=True, default=False,
              help="evaluate even when the regime condition fails")
@click.option("--grid", default=21, show_default=True, type=int,
              help="input lattice resolution for discrete channels")
def cmd_inner(channel_path: str, theorem: str, out_path: str | None,
              force: bool, grid: int):
    """Capacity-side evaluation: region CSV or sum-capacity JSON."""
    ch = load_channel(channel_path)
    if theorem in ("2", "5") and isinstance(ch, dsc.DiscreteIC):
        inner = dsc.inner_region_strong if theorem == "2" else dsc.inner_region_one_sided
        result = inner(ch, ch.d12, grid=grid)
    elif theorem == "5":
        if not isinstance(ch, GaussianIC):
            raise InputError("theorem 5 needs a one-sided 'gaussian' or discrete spec")
        result = regimes.capacity_region_one_sided(ch, force=force)
    else:
        kind, spec, evaluate = {
            "2": ("gaussian-6", "a 'gaussian-6' or discrete spec",
                  regimes.capacity_region_strong),
            "3": ("gaussian-6", "a 'gaussian-6' spec", regimes.sum_capacity_fwd_own),
            "4": ("gaussian-13", "a 'gaussian-13' spec",
                  regimes.sum_capacity_fwd_interference),
        }[theorem]
        if not isinstance(ch, regimes.CorrelatedGaussianIC) or ch.kind != kind:
            raise InputError(f"theorem {theorem} needs {spec}")
        result = evaluate(ch, force=force)
    if isinstance(result, regions.RateRegion):
        if out_path is None:
            raise InputError("--out is required for region output")
        Path(out_path).write_text(regions.frontier_csv(result))
        click.echo(f"wrote {out_path}")
        return
    text = json.dumps({"sum_capacity": result, "theorem": int(theorem)}, sort_keys=True)
    click.echo(text)
    if out_path:
        Path(out_path).write_text(text + "\n")


@main.command("check")
@click.option("--channel", "channel_path", required=True, type=click.Path())
@click.option("--condition", required=True, type=click.Choice(["4", "7", "11", "14"]))
@click.option("--grid", default=21, show_default=True, type=int)
@click.option("--samples", default=2000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
def cmd_check(channel_path: str, condition: str, grid: int, samples: int, seed: int):
    """Search a regime condition on a discrete channel; print the report."""
    ch = load_channel(channel_path)
    if not isinstance(ch, dsc.DiscreteIC):
        raise InputError("condition checks need a spec with type 'discrete'")
    report = dsc.check_condition(ch, int(condition), grid=grid,
                                 samples=samples, seed=seed)
    _echo_json(asdict(report))


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path())
def cmd_simulate(config_path: str):
    """Run the conferencing coding-scheme simulator; print result JSON."""
    doc = _load_json(config_path)
    if "channel" not in doc:
        raise InputError("simulation config needs a 'channel' object")
    channel = discrete_channel(doc["channel"])
    try:
        pmfs = {k: _array_field(doc, k) for k in ("p1", "p2") if k in doc}
    except InputError as exc:
        raise InputError(f"fields 'p1' and 'p2' are input PMFs: {exc}") from None
    cfg = sim.SimConfig(
        channel=channel,
        n=_int_field(doc, "n"),
        r1=_float_field(doc, "r1"),
        r2=_float_field(doc, "r2"),
        d12=_float_field(doc, "d12", 0.0),
        scheme=str(doc.get("scheme", "thm2")),
        trials=_int_field(doc, "trials", 1000),
        seed=_int_field(doc, "seed", 0),
        message_cap=_int_field(doc, "message_cap", sim.DEFAULT_MESSAGE_CAP),
        **pmfs,
    )
    result = sim.simulate(cfg)
    _echo_json(asdict(result))
