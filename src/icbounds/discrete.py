"""Finite-alphabet channels: the information kernel, regime-condition
checkers and achievable inner regions.

Joint distributions are plain numpy arrays with a tuple of axis labels
carried alongside.  All information quantities are in bits.

One information kernel, :func:`_mi_stack`, computes every mutual
information here.  It takes a stack of joint tables with a leading batch
axis and returns I(a; b | c) per table, computing each marginal entropy
once over the whole stack with 0 log 0 = 0.  An entropy sums each table's positive cells in
table order, by one path for every stack, so a table's value is the same
float alone or in any stack.  The condition searches and the inner regions
evaluate their whole input family (and, for condition 7, every auxiliary
kernel at every probe input) as such stacks, in blocks from
``regions.chunks``, so peak memory does not grow with the family.  Their
set-up (lattices, input pairs, structured kernels, the degradedness test)
is array code with no loop over cells; the lattice takes one pass per
symbol.

The condition searches pair a p1 lattice with the vertices of the p2
simplex.  That is exact in p2: under independent inputs every gap they
test is linear in p2 (I(x1;y|x2) = sum_k p2(k) I(x1;y|X2=k), and so for
I(v;y|x2)), so its minimum over the p2 simplex sits at a vertex.
Condition 7 searches one fixed family of auxiliary kernels, with v on
|X1|·|X2| labels: by Carathéodory, |X1| values of v per x2 reach every
split of p1, so no other cardinality searches more.

The per-distribution 11-constraint outer-bound kernel and ``mi``, a
validated batch-of-one call into :func:`_mi_stack`, are test references in
``tests/reference.py``; no command evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """Entropy in bits of each table along the leading axis; 0 log 0 = 0.

    Each row sums only its positive terms, in table order, as numpy sums a
    table's positive cells on their own: a row's value is the same float
    whatever the other rows of the stack and wherever its zero cells lie.
    The rows with k positive cells are summed together: boolean indexing
    lists each one's positive terms in table order, k to a row."""
    p = tables.reshape(tables.shape[0], -1)
    pos = p > 0
    q = np.where(pos, p, 1.0)
    terms = q * np.log2(q)
    count = pos.sum(axis=1)
    out = np.empty(p.shape[0])
    for k in np.unique(count):
        rows = count == k
        out[rows] = terms[pos & rows[:, None]].reshape(-1, k).sum(axis=1)
    return -out


def _mi_stack(stack: np.ndarray, axes: Sequence[str], terms) -> np.ndarray:
    """I(a; b | c) for every table of a stack, for each (a, b, c) in terms.

    ``stack`` has a leading batch axis followed by the axes named in
    ``axes``; the result has shape (len(terms), batch).  Each marginal
    entropy the terms need is computed once over the whole stack.
    """
    cache: dict[frozenset, np.ndarray] = {}

    def h(names: frozenset) -> np.ndarray:
        if names not in cache:
            drop = tuple(1 + i for i, n in enumerate(axes) if n not in names)
            cache[names] = _entropy_rows(stack.sum(axis=drop) if drop else stack)
        return cache[names]

    out = np.empty((len(terms), stack.shape[0]))
    for k, (a, b, c) in enumerate(terms):
        a, b, c = frozenset(a), frozenset(b), frozenset(c)
        val = h(a | c) + h(b | c) - h(a | b | c)
        if c:
            val = val - h(c)
        out[k] = np.maximum(val, 0.0)
    return out


def _by_blocks(rows: int, cells: int, fn) -> np.ndarray:
    """``fn(idx)`` over consecutive blocks of row indices, joined along the
    last axis; each row stands for one joint table of ``cells`` cells."""
    idx = np.arange(rows)
    return np.concatenate([fn(idx[block]) for block in chunks(rows, cells)],
                          axis=-1)


AXES4 = ("x1", "x2", "y1", "y2")


def _product_joints(ch: DiscreteIC, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Stack of joints over AXES4 at the product inputs p1[n] x p2[n]."""
    joints = p2[:, None, :, None, None] * ch.w.transpose(2, 3, 0, 1)
    joints *= p1[:, :, None, None, None]
    return joints


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


def _product_inputs(set1: np.ndarray, set2: np.ndarray):
    """The pairs of set1 x set2, set1-major, as row-aligned (p1, p2) stacks."""
    return np.repeat(set1, len(set2), axis=0), np.tile(set2, (len(set1), 1))


def _gap_argmin(ch: DiscreteIC, set1: np.ndarray):
    """Smallest I(x1;y2|x2) - I(x1;y1|x2) over the independent inputs
    set1 x the p2 vertices, set1-major; the first minimum wins."""
    p1, p2 = _product_inputs(set1, np.eye(ch.nx2))

    def block(idx):
        m = _mi_stack(_product_joints(ch, p1[idx], p2[idx]), AXES4,
                      [(("x1",), ("y2",), ("x2",)), (("x1",), ("y1",), ("x2",))])
        return m[0] - m[1]

    gaps = _by_blocks(len(p1), ch.w.size, block)
    i = int(np.argmin(gaps))
    return float(gaps[i]), p1[i], p2[i]


def _input_gap_search(ch: DiscreteIC, grid: int):
    """Minimize the cross-vs-direct gap over the p1 lattice x the p2
    vertices, then twice shrink a p1 patch around the incumbent."""
    lat1 = simplex_grid(ch.nx1, grid)
    best = _gap_argmin(ch, lat1)
    for _ in range(2):
        cand = _gap_argmin(ch, _shrink_patch(best[1], lat1))
        if cand[0] < best[0]:
            best = cand
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


def _aux_gaps(ch: DiscreteIC, p1: np.ndarray, p2: np.ndarray,
              kernels: np.ndarray) -> np.ndarray:
    """I(v;y1|x2) - I(v;y2|x2) at independent inputs p1[n], p2[n] and
    P(v|x1,x2) = kernels[n]; joints over (v, x1, x2, y1, y2)."""
    joints = kernels.transpose(0, 3, 1, 2)[..., None, None] * ch.w.transpose(2, 3, 0, 1)
    joints *= p2[:, None, None, :, None, None]
    joints *= p1[:, None, :, None, None, None]
    m = _mi_stack(joints, ("v", "x1", "x2", "y1", "y2"),
                  [(("v",), ("y1",), ("x2",)), (("v",), ("y2",), ("x2",))])
    return m[0] - m[1]


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
        probe1, probe2 = _product_inputs(simplex_grid(ch.nx1, max(3, grid // 4)),
                                         np.eye(ch.nx2))
        kernels = _sample_v_kernels(ch, samples, rng)
        n = len(probe1)  # rows run kernel-major: row = kernel * n + probe

        def block(idx):
            k, j = np.divmod(idx, n)
            return _aux_gaps(ch, probe1[j], probe2[j], kernels[k])

        gaps = _by_blocks(len(kernels) * n, ch.nx1 * ch.nx2 * ch.w.size, block)
        i = int(np.argmin(gaps))
        worst = float(gaps[i])
        k, j = divmod(i, n)
        wit = {"p1": probe1[j].tolist(), "p2": probe2[j].tolist(),
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
    pentagons R1 <= r1, R2 <= r2, R1 + R2 <= s.

    Each pentagon enters the hull through its frontier vertices, from
    ``regions.pentagon_vertices``.
    """
    if grid < 2:
        raise InputError("grid must be at least 2")
    lat1 = simplex_grid(ch.nx1, grid)
    lat2 = simplex_grid(ch.nx2, grid)
    p1, p2 = _product_inputs(lat1, lat2)
    if one_sided:
        terms = [(("x1",), ("y1",), ()), (("x2",), ("y2",), ("x1",)),
                 (("x1", "x2"), ("y2",), ())]
    else:
        terms = [(("x1",), ("y1",), ("x2",)), (("x2",), ("y2",), ("x1",)),
                 (("x2",), ("y1",), ("x1",)), (("x1", "x2"), ("y2",), ()),
                 (("x1", "x2"), ("y1",), ())]
    m = _by_blocks(len(p1), ch.w.size, lambda idx: _mi_stack(
        _product_joints(ch, p1[idx], p2[idx]), AXES4, terms))
    if one_sided:
        r1, r2, s = m[0], m[1], m[2] + d12
    else:
        r1 = m[0]
        r2 = np.minimum(m[1] + d12, m[2])
        s = np.minimum(m[3] + d12, m[4])
    return hull_of_points(pentagon_vertices(r1, r2, s))


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
