"""Finite-alphabet channels: the information kernel, regime-condition
checkers and achievable inner regions.  Information is in bits.

Every search and region takes independent inputs p1 x p2, under which each
information term is an output entropy minus a term linear in the input,
built from the channel matrices W[x1, x2, y] = P(y|x1,x2) of each output
with no joint table.  With W_k = W(·|·, k), W^j = W(·|j, ·), h_k and h^j
their row entropies and Hw[j, k] = H(W(·|j, k)):

* I(x1;y|X2=k) = H(p1 W_k) − p1·h_k, and I(x1;y|x2) = Σ_k p2(k) of it;
* I(x2;y|X1=j) = H(p2 W^j) − p2·h^j, and I(x2;y|x1) = Σ_j p1(j) of it;
* I(x1,x2;y) = H(p1ᵀ W p2) − p1ᵀ Hw p2;
* I(v;y|X2=k) = H(p1 K_k) + H(p1 W_k) − H(q) for a kernel K = P(v|x1,x2),
  with q(v, y) = Σ_x1 p1(x1) K_k(v|x1) W_k(y|x1).

:func:`_entropy_rows` is the one entropy.  Each term is clamped at 0, and
is exactly 0 when the rows it mixes are equal on the input's support.
Mixtures add the rows in symbol order, elementwise, so a value is the same
float in any row block (from ``regions.chunks``) and at any x2 slot.  Only
I(x1,x2;y) takes an entropy per input pair; the other terms are computed
once per p1 or per p2 and combined over the other lattice.

The condition searches pair a p1 lattice with the p2 simplex's vertices,
which is exact in p2: every gap is linear in p2, so its minimum sits at a
vertex, where one x2 slot enters.  Condition 7 searches one fixed family
of auxiliary kernels, with v on |X1|·|X2| labels: by Carathéodory, |X1|
values of v per x2 reach every split of p1.

The 11-constraint outer-bound kernel and ``mi``, the information of one
labelled joint table, are test references in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ChannelShapeError, InputError
from .regions import RateRegion, chunks, hull_of_points, pentagon_vertices

NORM_TOL = 1e-12
DEGRADE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiscreteIC:
    """Finite-alphabet channel: w[y1, y2, x1, x2] = P(y1, y2 | x1, x2)."""

    w: np.ndarray
    d12: float = 0.0
    d21: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 4 or min(w.shape) < 1:
            raise InputError("transition law must be a 4-D array (y1, y2, x1, x2)")
        if not np.all(w >= -NORM_TOL):  # also rejects NaN
            raise InputError("transition probabilities must be nonnegative")
        sums = w.sum(axis=(0, 1))
        if np.max(np.abs(sums - 1.0)) > NORM_TOL:
            raise InputError("each P(.,.|x1,x2) must sum to 1")
        if not (np.isfinite(self.d12) and np.isfinite(self.d21)):
            raise InputError("conference capacities must be finite")
        if self.d12 < 0 or self.d21 < 0:
            raise InputError("conference capacities must be nonnegative")
        object.__setattr__(self, "w", np.maximum(w, 0.0))

    @property
    def ny1(self) -> int:
        return self.w.shape[0]

    @property
    def ny2(self) -> int:
        return self.w.shape[1]

    @property
    def nx1(self) -> int:
        return self.w.shape[2]

    @property
    def nx2(self) -> int:
        return self.w.shape[3]


def _entropy_rows(tables: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row along the last axis; 0 log 0 = 0.

    Each row sums only its positive terms, in row order, as numpy sums a
    row's positive cells on their own: a row's value is the same float
    whatever the other rows of the stack and wherever its zero cells lie.
    The rows with k positive cells are summed together: boolean indexing
    lists each one's positive terms in row order, k to a row."""
    p = tables.reshape(-1, tables.shape[-1])
    pos = p > 0
    q = np.where(pos, p, 1.0)
    terms = q * np.log2(q)
    count = pos.sum(axis=1)
    out = np.empty(p.shape[0])
    for k in np.flatnonzero(np.bincount(count)):
        rows = count == k
        out[rows] = terms[pos & rows[:, None]].reshape(-1, k).sum(axis=1)
    return -out.reshape(tables.shape[:-1])


def _laws(ch: DiscreteIC):
    """(W, Hw) per output: W[x1, x2, y] = P(y|x1,x2), Hw its rows' entropies."""
    ws = [np.ascontiguousarray(w.transpose(1, 2, 0)) for w in (ch.w.sum(1), ch.w.sum(0))]
    return [(w, _entropy_rows(w)) for w in ws]


def _mix(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Σ_j p[..., j] rows[..., j, :] for input laws p (..., n) and channel
    rows (..., n, c) that broadcast with them, adding the rows in symbol
    order, elementwise."""
    out = p[..., :1] * rows[..., 0, :]
    for j in range(1, p.shape[-1]):
        out = out + p[..., j:j + 1] * rows[..., j, :]
    return out


def _same_rows(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether the rows each input law p[b] mixes are equal (==) on its
    support: then the input tells nothing of the rows' outcome."""
    live = p > 0
    apart = ~np.all(rows[..., :, None, :] == rows[..., None, :, :], axis=-1)
    return ~np.any(apart & live[..., :, None] & live[..., None, :], axis=(-2, -1))


def _mi(p: np.ndarray, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """I(x; y) for each input law p[b] through the rows P(y|x), entropies
    h: H(p rows) − p·h, clamped at 0, and 0 where the mixed rows are equal."""
    val = _entropy_rows(_mix(p, rows)) - _mix(p, h[..., None])[..., 0]
    return np.where(_same_rows(p, rows), 0.0, np.maximum(val, 0.0))


def _slot_mi(p: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """I(a; y | B=k) for each input law p[b] of a and each slot k of the
    other input, from w[a, k, y] and its row entropies h[a, k]: (B, slots)."""
    return _mi(p[:, None], w.transpose(1, 0, 2), h.T)


def _given_x2(p1, p2, w, h):  # I(x1;y|x2) at every pair p1[n] x p2[m]
    return _mix(_slot_mi(p1, w, h), p2.T)


def _given_x1(p1, p2, w, h):  # I(x2;y|x1) at every pair p1[n] x p2[m]
    return _mix(p1, _slot_mi(p2, w.transpose(1, 0, 2), h.T).T)


def _both(p1, p2, w, h):  # I(x1,x2;y) at every pair p1[n] x p2[m]
    pair = (p1[:, None, :, None] * p2[None, :, None, :]).reshape(-1, h.size)
    return _mi(pair, w.reshape(h.size, -1), h.reshape(-1)).reshape(len(p1), len(p2))


def _by_blocks(rows: int, cells: int, fn) -> np.ndarray:
    """``fn(idx)`` over consecutive blocks of row indices, joined along the
    last axis; each row takes ``cells`` cells."""
    idx = np.arange(rows)
    return np.concatenate([fn(idx[block]) for block in chunks(rows, cells)],
                          axis=-1)


# ---------------------------------------------------------------------------
# regime-condition checkers


@dataclass(frozen=True)
class ConditionReport:
    holds_on_searched_family: bool
    worst_gap: float
    markov_ok: bool
    witnesses: dict


def simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """Uniform lattice on the probability simplex with the given resolution.

    Every vector of symbol counts summing to ``resolution - 1``, divided by
    that sum; the count of symbol 0 descends, then that of symbol 1, and so
    on.  Each pass splits every row's leftover count over one more symbol,
    so memory grows with the lattice alone."""
    if resolution < 2:
        raise InputError("simplex resolution must be at least 2")
    steps = resolution - 1
    counts = np.empty((1, 0), dtype=np.int64)
    left = np.array([steps])
    for _ in range(dim - 1):
        sizes = left + 1
        rows = np.repeat(np.arange(len(left)), sizes)
        starts = np.cumsum(sizes) - sizes
        head = left[rows] - (np.arange(len(rows)) - starts[rows])
        counts = np.column_stack([counts[rows], head])
        left = left[rows] - head
    return np.column_stack([counts, left]) / steps


def _input_gap_search(ch: DiscreteIC, grid: int):
    """(gap, p1, p2) of the smallest I(x1;y2|x2) - I(x1;y1|x2) over the p1
    lattice x the p2 vertices, p1-major, the first minimum winning; then
    twice over the lattice shrunk around the incumbent p1."""
    lat1 = simplex_grid(ch.nx1, grid)
    (w1, h1), (w2, h2) = _laws(ch)
    best = (np.inf,)
    for rnd in range(3):
        set1 = _shrink_patch(best[1], lat1) if rnd else lat1
        gaps = _by_blocks(len(set1), ch.nx1 * ch.nx2 * (ch.ny1 + ch.ny2),
                          lambda idx: (_slot_mi(set1[idx], w2, h2)
                                       - _slot_mi(set1[idx], w1, h1)).reshape(-1))
        i = int(np.argmin(gaps))
        if gaps[i] < best[0]:
            best = (float(gaps[i]), set1[i // ch.nx2], np.eye(ch.nx2)[i % ch.nx2])
    return best


def _shrink_patch(center: np.ndarray, lattice: np.ndarray):
    """The lattice shrunk by a factor 5 toward ``center``, renormalized."""
    pts = center[None, :] + 0.2 * (lattice - center[None, :])
    pts = np.maximum(pts, 0.0)
    return pts / pts.sum(axis=1, keepdims=True)


def _degraded_given(ch: DiscreteIC, which: str) -> bool:
    """Physical-degradedness test.

    which = "y2": P(y2 | y1, x1, x2) must not depend on x2 wherever
    P(y1 | x1, x2) > 0 (the conference source output y1 already carries
    everything y2 sees about x2).  which = "y1": symmetric in the outputs.
    """
    w = ch.w if which == "y2" else ch.w.transpose(1, 0, 2, 3)
    lead = w.sum(axis=1)  # P(front output | x1, x2)
    live = lead > DEGRADE_TOL
    cond = w / np.where(live, lead, 1.0)[:, None]  # P(back output | front, x1, x2)
    # each live x2 against the first live x2 of its (front output, x1)
    first = live.argmax(axis=2)[:, None, :, None]
    ref = np.take_along_axis(cond, first, axis=3)
    return not np.any(live[:, None] & (np.abs(cond - ref) > DEGRADE_TOL))


def one_sided_factorization(ch: DiscreteIC) -> bool:
    """True when P(y1,y2|x1,x2) = P(y1|x1) P(y2|x1,x2) within DEGRADE_TOL."""
    py1 = ch.w.sum(axis=1)  # (y1, x1, x2)
    if np.max(np.abs(py1 - py1[:, :, :1])) > DEGRADE_TOL:
        return False
    py2 = ch.w.sum(axis=0)  # (y2, x1, x2)
    recon = np.einsum("cab,dab->cdab", py1, py2)
    return bool(np.max(np.abs(recon - ch.w)) <= DEGRADE_TOL)


def _sample_v_kernels(ch: DiscreteIC, samples: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Structured plus Dirichlet-random P(v | x1, x2) kernels, stacked, with
    v on |X1|·|X2| labels.

    The structured ones are v = x1, v = x2, v = (x1, x2) and a constant v:
    rows of an identity matrix picked by the label of each (x1, x2)."""
    nx1, nx2 = ch.nx1, ch.nx2
    x1, x2 = np.indices((nx1, nx2))
    labels = np.stack([x1, x2, x1 * nx2 + x2, np.zeros_like(x1)])
    draws = rng.gamma(1.0, size=(samples, nx1, nx2, nx1 * nx2))
    return np.concatenate([np.eye(nx1 * nx2)[labels],
                           draws / draws.sum(axis=-1, keepdims=True)])


def _aux_mi(p1: np.ndarray, slot: np.ndarray, kernels: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """I(v;y|X2=slot[b]) at the input law p1[b] and P(v|x1,x2) = kernels[b],
    from w[x1, x2, y] = P(y|x1,x2): H(p1 K) + H(p1 W) − H(q), clamped at 0,
    and 0 where the mixed rows of K or of W are equal."""
    k_rows = kernels[np.arange(len(slot)), :, slot]  # (B, x1, v)
    w_rows = w[:, slot].transpose(1, 0, 2)  # (B, x1, y)
    q_rows = (k_rows[..., None] * w_rows[:, :, None]).reshape(len(slot), w.shape[0], -1)
    val = (_entropy_rows(_mix(p1, k_rows)) + _entropy_rows(_mix(p1, w_rows))
           - _entropy_rows(_mix(p1, q_rows)))
    zero = _same_rows(p1, k_rows) | _same_rows(p1, w_rows)
    return np.where(zero, 0.0, np.maximum(val, 0.0))


def check_condition(
    ch: DiscreteIC,
    which: int,
    grid: int = 21,
    samples: int = 2000,
    seed: int = 0,
) -> ConditionReport:
    """Check one of the four regime conditions (ids 4, 7, 11, 14).

    All four are universally quantified, so the checkers are falsification
    oriented: a negative worst gap is a definitive failure, a nonnegative one
    is evidence over the searched family only.  That family is the p1
    lattice at ``grid`` (refined around the incumbent) x the vertices of
    the p2 simplex, which is exact in p2 since every gap is linear in p2.

    * 4:  I(x1;y1|x2) <= I(x1;y2|x2) over product inputs, and y2 physically
          degraded with respect to y1 given x1.
    * 7:  I(v;y2|x2) <= I(v;y1|x2) over product inputs and auxiliary kernels
          P(v|x1,x2); the markov part is the same as condition 4.  v takes
          |X1|·|X2| values; the kernels are v = x1, v = x2, v = (x1, x2), a
          constant v and ``samples`` Dirichlet draws from ``seed``, each at
          the p1 lattice at ``max(3, grid // 4)`` x the p2 vertices.
    * 11: the condition-4 gap, with the degradedness roles of the outputs
          swapped (y1 degraded with respect to y2 given x1).
    * 14: the condition-4 gap on a one-sided channel.
    """
    if seed < 0:
        raise InputError("seed must be nonnegative")
    if which == 4 or which == 11 or which == 14:
        if which == 14 and not one_sided_factorization(ch):
            raise ChannelShapeError(
                "condition 14 applies to one-sided channels "
                "(P(y1,y2|x1,x2) = P(y1|x1) P(y2|x1,x2))"
            )
        worst, p1, p2 = _input_gap_search(ch, grid)
        wit = {"p1": p1.tolist(), "p2": p2.tolist()}
    elif which == 7:
        if samples < 0:
            raise InputError("samples must be nonnegative")
        if grid < 2:
            raise InputError("simplex resolution must be at least 2")
        rng = np.random.default_rng(seed)
        probe1 = simplex_grid(ch.nx1, max(3, grid // 4))
        kernels = _sample_v_kernels(ch, samples, rng)
        (w1, _), (w2, _) = _laws(ch)
        n = len(probe1) * ch.nx2  # row = kernel * n + p1 * |X2| + x2 slot

        def block(idx):
            k, j = np.divmod(idx, n)
            p, s, v = probe1[j // ch.nx2], j % ch.nx2, kernels[k]
            return _aux_mi(p, s, v, w1) - _aux_mi(p, s, v, w2)

        gaps = _by_blocks(len(kernels) * n,
                          ch.nx1 * ch.nx1 * ch.nx2 * (ch.ny1 + ch.ny2), block)
        i = int(np.argmin(gaps))
        worst, k, (j, s) = float(gaps[i]), i // n, divmod(i % n, ch.nx2)
        wit = {"p1": probe1[j].tolist(), "p2": np.eye(ch.nx2)[s].tolist(),
               "v_kernel": kernels[k].tolist()}
    else:
        raise InputError(f"unknown condition id {which}; expected 4, 7, 11 or 14")
    # condition 14's factorization is already enforced
    markov = which == 14 or _degraded_given(ch, "y1" if which == 11 else "y2")
    return ConditionReport(worst >= -1e-9, worst, markov, wit)


# ---------------------------------------------------------------------------
# achievable inner regions


def _inner_region(ch: DiscreteIC, d12: float, grid: int,
                  one_sided: bool) -> RateRegion:
    """Convex hull of the union over a product-input lattice of the
    pentagons R1 <= r1, R2 <= r2, R1 + R2 <= s, each entering through its
    frontier vertices (``regions.pentagon_vertices``)."""
    if grid < 2:
        raise InputError("grid must be at least 2")
    lat1 = simplex_grid(ch.nx1, grid)
    lat2 = simplex_grid(ch.nx2, grid)
    (w1, h1), (w2, h2) = _laws(ch)
    # the terms of p1 alone and of p2 alone, combined over the other lattice
    if one_sided:  # y1 depends on x1 alone: r1 = I(x1;y1) through P(y1|x1)
        r1 = np.repeat(_mi(lat1, w1[:, 0], h1[:, 0])[:, None], len(lat2), axis=1)
        r2 = _given_x1(lat1, lat2, w2, h2)
    else:
        r1 = _given_x2(lat1, lat2, w1, h1)
        r2 = np.minimum(_given_x1(lat1, lat2, w2, h2) + d12,
                        _given_x1(lat1, lat2, w1, h1))
    outputs = [(w2, h2)] if one_sided else [(w2, h2), (w1, h1)]
    both = _by_blocks(len(lat1), len(lat2) * ch.nx1 * ch.nx2 * (ch.ny1 + ch.ny2),
                      lambda idx: np.stack([_both(lat1[idx], lat2, w, h).reshape(-1)
                                            for w, h in outputs]))
    s = both[0] + d12 if one_sided else np.minimum(both[0] + d12, both[1])
    return hull_of_points(pentagon_vertices(r1.reshape(-1), r2.reshape(-1), s))


def inner_region_strong(ch: DiscreteIC, d12: float, grid: int = 21) -> RateRegion:
    """Achievable region when both receivers decode both messages.

    Union over a product-input lattice of the per-input polytopes, then
    convex hull (time sharing).
    """
    return _inner_region(ch, d12, grid, one_sided=False)


def inner_region_one_sided(ch: DiscreteIC, d12: float, grid: int = 21) -> RateRegion:
    """Achievable (capacity) region of the one-sided channel."""
    if not one_sided_factorization(ch):
        raise ChannelShapeError("channel is not one-sided")
    return _inner_region(ch, d12, grid, one_sided=True)
