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

Each class has one read-out table: the distribution of its count after a
round, given its count and the fronts that hit it. Round 1 reads each front
at its count, since the front is the direct hits, so it needs no front axes;
at depth 1 it contracts straight into the counts. Deeper, round 1 is a plain
product into (count before, count after) per class, and every later round
starts from a strided view of the last result that reads it as (count,
front). A round contracts that view with the tables two arrays at a time,
each pair as one ``np.einsum`` that reads its operands in place, and sums an
axis as soon as nothing left needs it; a middle round ends in the next
(count before, count after), the last in the counts. So neither the state
nor its shear is ever copied. The tables, the results, a round's
intermediates and einsum's iterator buffers, counted from the shapes, are
reserved in the exact engine's cell budget before anything is allocated;
networks above it raise :class:`ExactEngineCapError`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

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
        # operator.index refuses a size that is not an integer
        for size in self.type_sizes:
            operator.index(size)
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


def _readout_table(n: int, h: np.ndarray | float) -> np.ndarray:
    """``out[c, ..., x]`` = P(c + Binomial(n - c, h) = x) for c, x in 0..n,
    any shape of h: the count after a round that starts from c of n nodes
    compromised and hits each intact node with probability h.

    Row c is row c + 1 with one more trial, so no large binomial
    coefficients appear and h = 0 or 1 gives exact point masses.
    """
    h = np.asarray(h, dtype=float)[..., None]
    shape = (n + 1,) + h.shape[:-1] + (n + 1,)
    # one zero past the table: row c + 1 at x = 0 is 0 for every c, so row
    # c + 1 read at x + 1 reads 0 past its end
    flat = np.zeros(math.prod(shape) + 1)
    out = flat[:-1].reshape(shape)
    out[n, ..., n] = 1.0
    # row c has one more intact node: hit, the count is row c + 1's at x;
    # missed, it is at x + 1
    both, terms = np.array([h, 1.0 - h]), np.empty((2,) + shape[1:])
    at_x_and_next = np.ndarray((n + 1,) + terms.shape, buffer=flat,
                               strides=out.strides[:1] + (flat.itemsize,) + out.strides[1:])
    for c in range(n - 1, -1, -1):
        np.multiply(both, at_x_and_next[c + 1], out=terms)
        np.add(terms[0], terms[1], out=out[c])
    return out


def _binom_start(n: int, p: float) -> np.ndarray:
    """``out[k]`` = P(Binomial(n, p) = k), as the n-fold convolution of
    ``[1 - p, p]`` by repeated squaring: O(log n) convolutions, exact point
    masses at p = 0 or 1.

    Each convolution is one ``np.einsum`` over a sliding window of the
    zero-padded operand, so numpy sums it, not BLAS (``np.convolve`` calls
    ``ddot``), and its bytes do not depend on the host's BLAS kernel."""

    def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        padded = np.concatenate([np.zeros(len(b) - 1), a, np.zeros(len(b) - 1)])
        window = np.ndarray((len(a) + len(b) - 1, len(b)), buffer=padded,
                            strides=2 * padded.strides)
        return np.einsum("ij,j->i", window, b[::-1], optimize=False)

    out, power = np.ones(1), np.array([1.0 - p, p])
    while n:
        if n & 1:
            out = convolve(out, power)
        n >>= 1
        if n:
            power = convolve(power, power)
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
    # axes: class t's count c_t is 2t, its front f_t 2t+1 and its
    # count after the round x_t 2k+t; class t is hit only by the fronts of
    # the classes s with q[s][t] > 0
    hitters = [[s for s in range(k) if q[s][t] > 0.0] for t in range(k)]
    axes = [[2 * t] + [2 * s + 1 for s in hitters[t]] + [2 * k + t] for t in range(k)]
    # in round 1 the front is the direct hits, so each front is read at its
    # count (a class that hits itself is read on a diagonal)
    direct = [[2 * t] + [2 * s for s in hitters[t]] + [2 * k + t] for t in range(k)]
    read = [list(dict.fromkeys(ax)) for ax in direct]
    length = [n + 1 for n in sizes for _ in range(2)] + [n + 1 for n in sizes]
    out = list(range(2 * k, 3 * k))
    # each round with a nonempty front adds a node, so later rounds are idle
    rounds = min(depth, sum(sizes))

    def cells(ax: Sequence[int]) -> int:
        return math.prod(length[a] for a in ax)

    # A round ends in (c, x) per class, laid out as `pairs`, and the next
    # starts from (count x, front x - c): a view of that result with axes
    # `labels` whose (x, f) is the result's (x - f, x). Where f > x that c is
    # negative, so the read moves on to a cell where that class has c > x,
    # which is 0 as a class does not lose nodes, or into the `pad` zeros
    # before the result. That holds as each class's c axis is outside its x
    # axis, but for the outermost axis, an x. The largest class takes it,
    # which keeps `pad` under 1/(N + 1) of the result, and its c axis goes
    # innermost, where a long axis runs fastest.
    o = max(range(k), key=sizes.__getitem__)
    pairs = [2 * k + o] + [a for t in range(k) if t != o for a in (2 * t, 2 * k + t)] + [2 * o]
    shape = [length[a] for a in pairs]
    stride = {a: math.prod(shape[i + 1:]) for i, a in enumerate(pairs)}
    pad = sum(n * stride[2 * t] for t, n in enumerate(sizes))
    labels = [a for t in range(k) for a in (2 * t, 2 * t + 1)]
    view = [s for t in range(k) for s in (stride[2 * t] + stride[2 * k + t], -stride[2 * t])]

    # The contractions, as chains of two-operand einsums that read the start
    # view in place: into the counts after one round, or else the last
    # round's and a middle round's; only one runs at a time, so the larger
    # of their temporaries is reserved
    if rounds == 1:
        temps, last = _pairwise(read, out, length)
    else:
        temps, last = _pairwise([labels] + axes, out, length)
        if rounds > 2:
            middle_temps, middle = _pairwise([labels] + axes, pairs, length)
            temps = max(temps, middle_temps)
    # a middle round writes its result over the one it starts from if its
    # first pair, which reads all of that one, is not its last
    results = 0 if rounds == 1 else 1 if rounds == 2 or k > 1 else 2
    # held: the tables and their reads, a round's temporaries, the counts
    # and the results with their zeros
    _reserve(
        sum(cells(ax) for ax in axes + read) + temps + cells(out)
        + results * (pad + cells(pairs)),
        f"class sizes {tuple(sizes)}",
    )

    tables = []
    for t, n in enumerate(sizes):
        grids = np.ix_(*(np.arange(sizes[s] + 1) for s in hitters[t]))
        miss = reduce(np.multiply, ((1.0 - q[s][t]) ** g for s, g in zip(hitters[t], grids)), 1.0)
        tables.append(_readout_table(n, 1.0 - miss))
    # each table weighted by its class's start, read at the direct hits
    reads = [np.einsum(starts[t], [2 * t], tables[t], direct[t], read[t]) for t in range(k)]
    counts = np.empty([length[a] for a in out])
    if rounds == 1:
        return last(reads, counts)

    buffers = [np.zeros(pad + cells(pairs)) for _ in range(results)]

    def start(result: np.ndarray) -> np.ndarray:
        return np.ndarray([length[a] for a in labels], buffer=result, offset=pad * result.itemsize,
                          strides=[s * result.itemsize for s in view])

    # round 1 sums over nothing: the product of the reads
    np.einsum(*(x for t in range(k) for x in (reads[t], read[t])), pairs,
              out=buffers[0][pad:].reshape(shape))
    for r in range(rounds - 2):
        state = buffers[(r + 1) % results][pad:].reshape(shape)
        middle([start(buffers[r % results])] + tables, state)
    return last([start(buffers[(rounds - 2) % results])] + tables, counts)


def _pairwise(
    operands: Sequence[Sequence[int]], final: Sequence[int], length: Sequence[int]
) -> tuple[int, Callable[[Sequence[np.ndarray], np.ndarray], np.ndarray]]:
    """Plan the contraction of arrays with axes ``operands`` (axis a of
    length ``length[a]``) into one with axes ``final``.

    The first operand is contracted with another, the result with another
    and so on, each pair as one ``np.einsum`` that plans nothing and reads
    its operands in place, however strided. The next operand is the one
    whose result is smallest, and an axis is summed as soon as no operand
    left and not ``final`` has it. Returns the cells this holds besides its
    operands and ``out`` (its intermediate results and einsum's iterator
    buffers) and a function that runs it on such arrays, writing the result
    into ``out``.
    """

    def cells(ax: Sequence[int]) -> int:
        return math.prod(length[a] for a in ax)

    def result(acc: list[int], i: int) -> list[int]:
        # the axes both have, then the rest of acc's and of operand i's: in
        # this order einsum runs a single-class middle round at 201 cells a
        # side several times as fast as in acc's
        needed = set(final).union(*(operands[r] for r in rest if r != i))
        ax = sorted(acc, key=lambda a: a not in operands[i])
        return [a for a in ax + [b for b in operands[i] if b not in acc] if a in needed]

    steps, acc, rest = [], list(operands[0]), list(range(1, len(operands)))
    while rest:
        i = min(rest, key=lambda i: cells(result(acc, i)))
        acc = result(acc, i)
        rest.remove(i)
        steps.append((i, acc))
    # a buffer of np.getbufsize() cells for each operand and the output
    temps = sum(cells(ax) for _, ax in steps[:-1]) + 3 * np.getbufsize()

    def run(arrays: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
        x, x_ax = arrays[0], operands[0]
        if not steps:
            return np.einsum(x, x_ax, final, out=out, optimize=False)
        for i, ax in steps:
            # the last pair writes into out, seen in the pair's axis order, which
            # sets einsum's loop order as above
            dest = (out.transpose([final.index(a) for a in ax]) if i == steps[-1][0]
                    else np.empty([length[a] for a in ax]))
            x, x_ax = np.einsum(x, x_ax, arrays[i], operands[i], ax, out=dest, optimize=False), ax
        return out

    return temps, run


def r_complete(u: int, c: int, d: int, depth: int, *, q: float) -> float:
    """Exact-set propagation probability on the complete graph K_u.

    Probability that, starting from some d directly compromised nodes, the
    compromised set after ``depth`` rounds is exactly some fixed superset of
    size c. By symmetry only the sizes matter.
    """
    if not 0 <= d <= c <= u:
        raise ValueError(f"need 0 <= d <= c <= u, got d={d}, c={c}, u={u}")
    u, c, d = (operator.index(size) for size in (u, c, d))
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
    n1, n2 = operator.index(n1), operator.index(n2)
    starts = [_binom_start(n1, params.p1), _binom_start(n2, params.p2)]
    q = ((0.0, params.q12), (params.q21, 0.0))
    return JointPmf((n1 + 1, n2 + 1), _chain_binomial((n1, n2), starts, q, depth))
