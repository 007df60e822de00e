"""Joint compromise-count distributions for block-structured topologies.

On a complete graph with homogeneous probabilities, a star and a complete
bipartite graph, the nodes fall into a few classes such that every pair of
classes is joined by a complete block with one q per direction, or not at
all, and p is constant within a class. Propagation on such a network is
ordinarily lumpable to per-class counts (Kemeny & Snell, *Finite Markov
Chains*): it is a multi-type Reed-Frost chain-binomial model whose state is
the compromised count c_t and the front count f_t of each class t. The direct
attack starts it with c_t = f_t ~ Binomial(N_t, p_t); in each round class t
gains Binomial(N_t - c_t, 1 - prod_s (1 - q_st)^f_s) new nodes, which form its
next front. One engine runs this chain for every topology here, at any depth,
so these are exact fast paths, not approximations; the test suite checks them
against the general engine.

The state is a dense array with two axes per class. It and the per-class
binomial tables are reserved in the exact engine's cell budget before
anything is allocated; networks above it raise :class:`ExactEngineCapError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .exact import _reserve
from .pmf import JointPmf

__all__ = [
    "CompleteHomogParams",
    "TwoClassParams",
    "r_complete",
    "complete_homog_pmf",
    "star_pmf",
    "bipartite_pmf",
]

@dataclass(frozen=True)
class CompleteHomogParams:
    """Complete graph, common direct probability p and attempt probability q."""

    type_sizes: tuple[int, ...]
    p: float
    q: float
    depth: int

    def __post_init__(self) -> None:
        if not self.type_sizes or min(self.type_sizes) <= 0:
            raise ValueError("type sizes must be positive")
        if not 0.0 <= self.p <= 1.0 or not 0.0 <= self.q <= 1.0:
            raise ValueError("p and q must be in [0, 1]")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass(frozen=True)
class TwoClassParams:
    """Two node classes with class-level probabilities.

    ``p1``/``p2`` are the direct-compromise probabilities of class 1 and 2;
    ``q12`` is the per-attempt probability that a class-1 node compromises a
    class-2 node, ``q21`` the reverse. For a star, class 1 is the hub.
    """

    p1: float
    p2: float
    q12: float
    q21: float

    def __post_init__(self) -> None:
        for val in (self.p1, self.p2, self.q12, self.q21):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"probability out of [0, 1]: {val}")


def _binom_pmf(n: int, h: np.ndarray | float) -> np.ndarray:
    """``out[m, ..., k]`` = P(Binomial(m, h) = k) for m, k in 0..n, any shape of h.

    Adds one trial at a time, so no large binomial coefficients appear and
    h = 0 or 1 gives exact point masses.
    """
    h = np.asarray(h, dtype=float)[..., None]
    out = np.zeros((n + 1,) + h.shape[:-1] + (n + 1,))
    out[0, ..., 0] = 1.0
    for m in range(1, n + 1):
        out[m] = (1.0 - h) * out[m - 1]
        out[m, ..., 1:] += h * out[m - 1, ..., :-1]
    return out


def _binom_start(n: int, p: float) -> np.ndarray:
    """``out[k]`` = P(Binomial(n, p) = k), as the n-fold convolution of
    ``[1 - p, p]`` by repeated squaring: O(log n) convolutions, exact point
    masses at p = 0 or 1."""
    out, power = np.ones(1), np.array([1.0 - p, p])
    while n:
        if n & 1:
            out = np.convolve(out, power)
        n >>= 1
        if n:
            power = np.convolve(power, power)
    return out


def _chain_binomial(
    sizes: Sequence[int], starts: Sequence[np.ndarray], q: Sequence[Sequence[float]], depth: int
) -> np.ndarray:
    """Distribution of per-class compromised counts after ``depth`` rounds.

    ``starts[t]`` is the distribution of class t's directly compromised count
    (independent across classes) and ``q[s][t]`` the per-attempt probability
    that a class-s node compromises a class-t node. Returns an array of shape
    ``(N_1 + 1, ..., N_k + 1)``.
    """
    k = len(sizes)
    # class t is hit only by the fronts of the classes s with q[s][t] > 0
    hitters = [[s for s in range(k) if q[s][t] > 0.0] for t in range(k)]
    state_cells = math.prod((n + 1) ** 2 for n in sizes)
    table_cells = sum(
        (sizes[t] + 1) ** 2 * math.prod(sizes[s] + 1 for s in hitters[t])
        for t in range(k)
    )
    # the round contraction needs a few state-sized temporaries on top
    _reserve(state_cells + table_cells, f"class sizes {tuple(sizes)}")

    # einsum axes: class t's count c_t is 2t, its front f_t 2t+1, its new hits 2k+t
    state = reduce(np.multiply.outer, [np.diag(start) for start in starts])
    args = [state, list(range(2 * k))]
    for t, n in enumerate(sizes):
        grids = np.ix_(*(np.arange(sizes[s] + 1) for s in hitters[t]))
        miss = reduce(np.multiply, ((1.0 - q[s][t]) ** g for s, g in zip(hitters[t], grids)), 1.0)
        # indexed by c_t, so row c draws from the N_t - c intact nodes
        table = _binom_pmf(n, 1.0 - miss)[::-1]
        args += [table, [2 * t] + [2 * s + 1 for s in hitters[t]] + [2 * k + t]]
    out_axes = [a for t in range(k) for a in (2 * t, 2 * k + t)]
    path = np.einsum_path(*args, out_axes, optimize="optimal")[0]

    # after a round, (c, new) moves to (c + new, new). Targets with f > c are
    # unreachable and read (c = N, new = 1), which is always 0: a fully
    # compromised class has no node left to hit
    shears = []
    for n in sizes:
        c, f = np.indices((n + 1, n + 1))
        shears.append(np.where(f <= c, (c - f) * (n + 1) + f, n * (n + 1) + 1).ravel())

    # each round with a nonempty front adds a node, so later rounds are idle
    for _ in range(min(depth, sum(sizes))):
        args[0] = state
        state = np.einsum(*args, out_axes, optimize=path)
        for t, shear in enumerate(shears):
            shape = state.shape
            merged = state.reshape(shape[: 2 * t] + (-1,) + shape[2 * t + 2 :])
            state = merged.take(shear, axis=2 * t).reshape(shape)
    return state.sum(axis=tuple(range(1, 2 * k, 2)))


def r_complete(u: int, c: int, d: int, depth: int, *, q: float) -> float:
    """Exact-set propagation probability on the complete graph K_u.

    Probability that, starting from some d directly compromised nodes, the
    compromised set after ``depth`` rounds is exactly some fixed superset of
    size c. By symmetry only the sizes matter.
    """
    if not 0 <= d <= c <= u:
        raise ValueError(f"need 0 <= d <= c <= u, got d={d}, c={c}, u={u}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    start = np.zeros(u + 1)
    start[d] = 1.0
    counts = _chain_binomial((u,), [start], [[q]], depth)
    return float(counts[c] / math.comb(u - d, c - d))


def complete_homog_pmf(params: CompleteHomogParams) -> JointPmf:
    """Joint count distribution on a homogeneous complete graph.

    All nodes form one class; given c compromised nodes, the compromised set
    is uniform over c-subsets, so the per-type split is hypergeometric.
    """
    sizes = params.type_sizes
    n = sum(sizes)
    start = _binom_start(n, params.p)
    counts = _chain_binomial((n,), [start], [[params.q]], params.depth)
    ways = reduce(
        np.multiply.outer,
        [np.array([math.comb(s, x) for x in range(s + 1)], dtype=float) for s in sizes],
    )
    total = np.indices(ways.shape).sum(axis=0)
    subsets = np.array([math.comb(n, x) for x in range(n + 1)], dtype=float)
    return JointPmf(ways.shape, ways * (counts / subsets)[total])


def star_pmf(params: TwoClassParams, n: int, depth: int) -> JointPmf:
    """Joint count distribution on a star with hub (class 1) and n-1 leaves,
    the complete bipartite graph K_{1,n-1}.

    Propagation on a star saturates after two rounds: later rounds have an
    empty front.
    """
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    return bipartite_pmf(params, 1, n - 1, depth)


def bipartite_pmf(
    params: TwoClassParams, n1: int, n2: int, depth: int = 1
) -> JointPmf:
    """Joint count distribution on the complete bipartite graph K_{n1,n2}."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both sides must be nonempty")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    starts = [_binom_start(n1, params.p1), _binom_start(n2, params.p2)]
    q = ((0.0, params.q12), (params.q21, 0.0))
    return JointPmf((n1 + 1, n2 + 1), _chain_binomial((n1, n2), starts, q, depth))
