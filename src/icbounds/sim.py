"""Desk-scale Monte Carlo simulation of the cell-partition conferencing schemes.

Two schemes over a discrete memoryless channel, one conference round from
receiver 1 to receiver 2 with budget d12.  They differ only in receiver 1's
decoder and in which of its estimates it forwards, as a cell index:

* "thm2": receiver 1 jointly ML-decodes both messages and forwards the cell
  of its estimate of message 2.
* "thm4": receiver 1 ML-decodes its own message treating the interference as
  noise under the induced marginal, and forwards the cell of that estimate.

Receiver 2 then jointly ML-decodes both messages, the forwarded one only
within the announced cell.

ML replaces joint-typicality decoding (strictly better, tractable at this
scale).  Codebooks are i.i.d. from the input PMFs with duplicate codewords
resampled when the message count is at most half the sequence space, so
noiseless channels decode without finite-codebook collision artifacts.
Per-trial randomness comes from a counter-based generator keyed by
(seed, trial), making results independent of trial evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import DiscreteIC
from .errors import InputError, ResourceLimitError
from .regions import chunks

DEFAULT_MESSAGE_CAP = 4096
_DEDUP_PASSES = 32


def _count(exponent: float) -> int | float:
    # tiny epsilon guards against float dust in n*rate products; a count
    # past the float range is inf, which every message cap rejects
    if exponent >= 1024:
        return math.inf
    return max(1, math.floor(2.0 ** exponent + 1e-9))


@dataclass(frozen=True)
class CellPartition:
    """Message set split into cells whose index fits the conference budget."""

    message_count: int
    cell_count: int
    per_cell: int

    @classmethod
    def for_rate(cls, n: int, rate: float, conf_capacity: float) -> "CellPartition":
        conf_rate = min(rate, conf_capacity)
        total = _count(n * rate)
        cells = min(_count(n * conf_rate), total)
        per_cell = -(-total // cells)
        cells = -(-total // per_cell)
        return cls(total, cells, per_cell)

    def cell_of(self, m: int) -> int:
        return m // self.per_cell

    def cell_members(self, cell: int) -> np.ndarray:
        lo = cell * self.per_cell
        hi = min(lo + self.per_cell, self.message_count)
        return np.arange(lo, hi)


@dataclass(frozen=True)
class SimConfig:
    channel: DiscreteIC
    n: int
    r1: float
    r2: float
    d12: float
    scheme: str = "thm2"
    trials: int = 1000
    seed: int = 0
    p1: np.ndarray | None = None
    p2: np.ndarray | None = None
    message_cap: int = DEFAULT_MESSAGE_CAP

    def __post_init__(self):
        if self.n < 1:
            raise InputError("blocklength must be positive")
        if self.r1 < 0 or self.r2 < 0 or self.d12 < 0:
            raise InputError("rates and conference capacity must be nonnegative")
        if not all(map(math.isfinite, (self.r1, self.r2, self.d12))):
            raise InputError("rates and conference capacity must be finite")
        if self.scheme not in ("thm2", "thm4"):
            raise InputError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise InputError("trials must be positive")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must lie in [0, 2^64)")
        for name, pmf, size in (("p1", self.p1, self.channel.nx1),
                                ("p2", self.p2, self.channel.nx2)):
            if pmf is None:
                object.__setattr__(self, name, np.full(size, 1.0 / size))
            else:
                arr = np.asarray(pmf, dtype=float)
                if (arr.shape != (size,) or not np.all(arr >= 0)
                        or abs(arr.sum() - 1) > 1e-9):
                    raise InputError(f"{name} must be a PMF over {size} symbols")
                object.__setattr__(self, name, arr)

    def message_counts(self) -> tuple[int, int]:
        return _count(self.n * self.r1), _count(self.n * self.r2)


@dataclass(frozen=True)
class SimResult:
    err1: float
    err2: float
    err1_ci95: float
    err2_ci95: float
    trials: int
    seed: int
    scheme: str
    n: int
    nominal_rates: tuple[float, float]
    effective_rates: tuple[float, float]
    cell_count: int
    per_cell: int
    conference_bits_per_use: float


class _Precomp:
    """Per-config tables shared by every trial."""

    def __init__(self, cfg: SimConfig):
        w = cfg.channel.w
        self.ny2 = cfg.channel.ny2
        w1 = w.sum(axis=1)  # P(y1 | x1, x2)
        w2 = w.sum(axis=0)  # P(y2 | x1, x2)
        with np.errstate(divide="ignore"):
            self.log_w1 = np.log(w1)
            self.log_w2 = np.log(w2)
            tin = np.einsum("cab,b->ca", w1, cfg.p2)
            self.log_w1_tin = np.log(tin)  # P(y1 | x1) under the x2 marginal
        # CDF of the joint output per input pair, flattened (y1, y2) C-order.
        flat = w.reshape(-1, *w.shape[2:])
        self.cdf = np.cumsum(flat, axis=0)
        self.cdf[-1] = 1.0
        self.draw1 = _choice_table(cfg.p1)
        self.draw2 = _choice_table(cfg.p2)

        m1, m2 = cfg.message_counts()
        cap = cfg.message_cap
        if m1 > cap or m2 > cap:
            raise ResourceLimitError(
                f"message count ({m1}, {m2}) exceeds cap {cap}"
            )
        self.m1, self.m2 = m1, m2
        # the message whose cell the conference carries: m2 (thm2) or m1 (thm4)
        self.fwd = 1 if cfg.scheme == "thm2" else 0
        self.part = CellPartition.for_rate(cfg.n, (cfg.r1, cfg.r2)[self.fwd],
                                           cfg.d12)
        # Only the estimate of the partitioned message is forwarded; its
        # alphabet is the cell count, which meets the budget by construction.
        assert math.log2(self.part.cell_count) <= cfg.n * cfg.d12 + 1e-9


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _choice_table(pmf: np.ndarray) -> tuple[np.ndarray, int]:
    """The CDF that ``Generator.choice(p=pmf)`` searches, built as it builds
    it, and the support size (the count of nonzero entries)."""
    cdf = pmf.cumsum()
    cdf /= cdf[-1]
    return cdf, int(np.count_nonzero(pmf))


def _draw_codebook(rng: np.random.Generator, count: int, n: int,
                   cdf: np.ndarray, support: int) -> np.ndarray:
    """i.i.d. rows from a ``_choice_table``: each draw takes the same
    uniforms, and gives the same symbols, as ``rng.choice(p=pmf)``."""
    cb = cdf.searchsorted(rng.random((count, n)), side="right")
    # Resample duplicates only when at most half the support's sequences
    # are needed.  Exact integers: a float power overflows at binary n >= 1024.
    if 2 * count <= support ** n:
        # Each row's bytes are its key; unique's sort is stable, so the
        # first of equal rows is kept.  An integer key sum_t x_t |X|^t would
        # wrap modulo 2^64 once n log2|X| > 63, and wrapped keys collide.
        keys = cb.view(np.dtype((np.void, cb.itemsize * n))).ravel()
        for _ in range(_DEDUP_PASSES):
            _, first = np.unique(keys, return_index=True)
            fresh = np.zeros(count, dtype=bool)
            fresh[first] = True
            dup = np.flatnonzero(~fresh)
            if dup.size == 0:
                break
            cb[dup] = cdf.searchsorted(rng.random((dup.size, n)),
                                       side="right")
    return cb


def _transmit(rng: np.random.Generator, pre: _Precomp,
              x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cdfs = pre.cdf[:, x1, x2].T  # (n, ny1*ny2)
    u = rng.random(x1.size)
    idx = (cdfs < u[:, None]).sum(axis=1)
    return idx // pre.ny2, idx % pre.ny2


def _pair_loglik(log_w: np.ndarray, y: np.ndarray,
                 cb_a: np.ndarray, cb_b: np.ndarray) -> np.ndarray:
    """Sum_t log w[y_t, a_t, b_t] for every codeword pair (a, b).

    Each cell starts at 0.0 and adds its terms in t order, one step per
    ``+=``.  That order is part of the output: it decides which of two
    near-equal cells is larger, so a matmul or a reduce over a gathered
    (n, b, a) stack must not replace the loop: numpy sums such a stack
    pairwise along some shapes (m_a = 1), and the last bit moves.

    One gather per block of steps builds the table rows[t |X_b| + s, a] =
    log w[y_t, a_t, s], so step t adds whole rows, rows[b_t + t |X_b|],
    for every b at once.  Blocks of steps (``regions.chunks``) bound the
    table's memory whatever n is.  The sum is held as (b, a); the returned
    (a, b) view keeps argmax's scan, and so its tie-breaking, in (a, b)
    order.
    """
    nb, m_a = log_w.shape[2], cb_a.shape[0]
    total = np.zeros((cb_b.shape[0], m_a))
    for block in chunks(y.size, nb * m_a):
        rows = log_w[y[block, None], cb_a[:, block].T]  # (steps, a, s)
        rows = rows.transpose(0, 2, 1).reshape(-1, m_a)
        idx = cb_b[:, block].T + nb * np.arange(rows.shape[0] // nb)[:, None]
        for step in idx:
            total += rows.take(step, axis=0)
    return total.T


def _run_trial(cfg: SimConfig, pre: _Precomp, trial: int) -> tuple[bool, bool]:
    rng = _trial_rng(cfg.seed, trial)
    cb1 = _draw_codebook(rng, pre.m1, cfg.n, *pre.draw1)
    cb2 = _draw_codebook(rng, pre.m2, cfg.n, *pre.draw2)
    m1 = int(rng.integers(pre.m1))
    m2 = int(rng.integers(pre.m2))
    y1, y2 = _transmit(rng, pre, cb1[m1], cb2[m2])
    if cfg.scheme == "thm2":
        # receiver 1: joint ML over both codebooks; forwards its m2 estimate
        ll1 = _pair_loglik(pre.log_w1, y1, cb1, cb2)
        m1_hat, fwd_hat = divmod(int(np.argmax(ll1)), pre.m2)
    else:
        # receiver 1: ML over its own codebook, interference as noise
        ll1 = pre.log_w1_tin[y1[None, :], cb1].sum(axis=1)
        m1_hat = fwd_hat = int(np.argmax(ll1))
    # receiver 2: joint ML over both codebooks, the forwarded message's cut
    # to the announced cell of receiver 1's estimate
    rows = [np.arange(pre.m1), np.arange(pre.m2)]
    rows[pre.fwd] = pre.part.cell_members(pre.part.cell_of(fwd_hat))
    ll2 = _pair_loglik(pre.log_w2, y2, cb1[rows[0]], cb2[rows[1]])
    m2_hat = int(rows[1][int(np.argmax(ll2)) % rows[1].size])
    return m1_hat != m1, m2_hat != m2


def simulate(cfg: SimConfig) -> SimResult:
    """Run the configured scheme; deterministic for a fixed seed."""
    pre = _Precomp(cfg)
    e1 = e2 = 0
    for t in range(cfg.trials):
        b1, b2 = _run_trial(cfg, pre, t)
        e1 += b1
        e2 += b2
    p1 = e1 / cfg.trials
    p2 = e2 / cfg.trials

    def half_width(p: float) -> float:
        return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / cfg.trials)

    eff = (math.log2(pre.m1) / cfg.n, math.log2(pre.m2) / cfg.n)
    return SimResult(
        err1=p1, err2=p2,
        err1_ci95=half_width(p1), err2_ci95=half_width(p2),
        trials=cfg.trials, seed=cfg.seed, scheme=cfg.scheme, n=cfg.n,
        nominal_rates=(cfg.r1, cfg.r2), effective_rates=eff,
        cell_count=pre.part.cell_count, per_cell=pre.part.per_cell,
        conference_bits_per_use=math.log2(pre.part.cell_count) / cfg.n,
    )
