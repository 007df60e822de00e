"""Exact joint compromise-count distributions under L-hop propagation.

Direct attacks compromise each node independently; every node compromised at
round r then gets one shot at each still-intact neighbor at round r+1, up to
a propagation depth of L rounds. The engine computes, for every node subset
C, the probability that C ends up being *exactly* the compromised set.

It runs the propagation forward on the states (C, F), where F, a subset of
C, is the last round's front; the direct attack starts it on the states
(C, C). Given F, each intact node j is hit independently with probability
1 - prod_{i in F} (1 - q_ij), so (C, F) moves to (C | S, S) with a product
probability over the newly hit set S; after N rounds nothing moves. The
mass is a dense array of 3^N cells, a block of 2^|C| cells (F as a subset of
C) per C, ordered by |C| and then by mask, so a round is one vectorised
kernel per chunk of same-size C, ~4^N multiply-adds in all.

Everything a round needs of the network but not of the mass is its plan:
the chunk layout, the target cells and each chunk's hit-probability
factors, built once from ``net.csr``. A round is then one broadcast
multiply, one matrix product and one scatter per chunk. The plan of the
network solved last is kept, through a weak reference to that network, for
the next solve of it at any depth, so at most one plan is held and it goes
with its network. The arrays, the stored factors included, are checked
against a fixed cell budget before allocating; that budget is the only
limit, and it refuses networks above 14 nodes with
:class:`ExactEngineCapError`. From 13 nodes on, the factors of the chunks
past the budget are computed in each round instead. A held plan takes the
stored factors plus at most 3^N + (N(N - 1)/4 + N + 3) 2^N cells for the
layout and the 1 - q arrays of the other chunks. The lumped engine in
closedform and the table of stats.correlations share the budget: they, too,
reserve their cells with _reserve, which drops the plan to make room.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .network import NetworkModel, induced_subnetwork
from .pmf import JointPmf

__all__ = [
    "ExactEngineCapError",
    "one_hop_prob",
    "r_prob",
    "event_prob",
    "joint_pmf",
]

# float64 (or int64) cells an exact engine may hold at once (128 MiB); only
# _reserve checks a request against it
_MAX_CELLS = 1 << 24

NodeSet = Iterable[int]


class ExactEngineCapError(RuntimeError, ValueError):
    """Raised when a request is above the cell budget; also a ``ValueError``."""


def _mask(net: NetworkModel, nodes: NodeSet) -> int:
    idx = net.index_of
    mask = 0
    for v in nodes:
        try:
            mask |= 1 << idx[v]
        except KeyError:
            raise ValueError(f"unknown node id: {v}") from None
    return mask


def _factor_cells(n: int, k: int) -> int:
    """Cells of the factors of one C of size k: 2^k fronts times the
    2^half + 2^(m - half) hit sets of the halves of its m = n - k intact nodes."""
    m = n - k
    return ((1 << m // 2) + (1 << m - m // 2)) << k


def _chunk_size(n: int) -> tuple[int, int]:
    """Most C of one size per kernel call for an n-node run, and the cells
    left for the plan to store factors in.

    Held: two mass arrays, the target cells (3^n each), the miss factors
    (n (n - 1) 2^(n - 2)), the nodes of each C and its intact nodes (n 2^n)
    and per-mask arrays; a kernel needs < 4 * 2^n per C, and for a C of
    size k only its factors, their misses and temporaries, and its output.
    """
    held = 3 * 3**n + (n * (n - 1) // 4 + n + 8) * 2**n
    per_c = 4 * 2**n
    _reserve(held + per_c, f"{n} nodes")
    chunk = (_MAX_CELLS - held) // per_c
    kernel = max(
        min(chunk, math.comb(n, k))
        * (2 * (_factor_cells(n, k) + (n - k << k)) + (1 << n - k))
        for k in range(n + 1)
    )
    return chunk, _MAX_CELLS - held - kernel


def _subset_sums(values: Sequence[int]) -> np.ndarray:
    """``out[mask]`` = sum of ``values[i]`` over the bits i of ``mask``."""
    out = np.zeros(1, dtype=np.int64)
    for v in values:
        out = np.concatenate([out, out + v])
    return out


def _outcomes(miss: np.ndarray) -> np.ndarray:
    """``out[s, b, f]`` = probability that front f of C_b hits exactly the
    set s of the nodes that ``miss[:, b, f]`` stands for (bit t for node t)."""
    out = np.ones((1,) + miss.shape[1:])
    for mt in miss:
        out = np.concatenate([out * mt, out * (1.0 - mt)])
    return out


def _factors(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mass-independent factors of a chunk of same-size C.

    ``keep[b, r, t]`` is 1 - q from the r-th node of C_b to its t-th intact
    node. Given the front f, the hits on the low and the high half of the
    intact nodes are independent: returns ``low[s, b, f]`` and
    ``high[b, s, f]``, the probabilities of each hit set s of either half.
    """
    b, k, m = keep.shape
    # miss[t, b, f]: front f of C_b misses the t-th intact node
    miss = np.ones((1, b, m))
    for r in range(k):
        miss = np.concatenate([miss, miss * keep[:, r]])
    miss = np.ascontiguousarray(miss.transpose(2, 1, 0))
    half = m // 2
    high = _outcomes(miss[half:]).transpose(1, 0, 2)
    return _outcomes(miss[:half]), high


def _round(mass: np.ndarray, factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One round for a chunk of same-size C.

    ``mass[b, f]`` is the mass on (C_b, F) for the fronts F of C_b; returns
    the mass moving to each newly hit set S of C_b's intact nodes. The sum
    over f is one matrix product per C.
    """
    low, high = factors
    return np.matmul(high, (low * mass).transpose(1, 2, 0)).reshape(len(mass), -1)


@dataclass(frozen=True)
class _Layout:
    """The cells of an n-node run, the same for every n-node network.

    ``order`` lists the masks C by size and then by mask, ``offset[C]`` is
    the first cell of C's block and ``full[C]`` the cell of (C, C). Each
    chunk of same-size C is ``(lo, hi, target, inside, outside)``: its cell
    range; the cell ``target[b, s]`` of (C_b | S, S), where bit t of s stands
    for the t-th intact node of C_b; and the nodes of C_b and its intact
    nodes, shaped to index the (from, to) pairs between them. ``store`` is
    the cells left for stored factors.
    """

    n: int
    order: np.ndarray
    offset: np.ndarray
    full: np.ndarray
    chunks: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]
    store: int


def _layout(n: int) -> _Layout:
    chunk, store = _chunk_size(n)
    sizes = _subset_sums([1] * n)
    order = np.argsort(sizes, kind="stable")
    blocks = 1 << sizes
    offset = np.empty(1 << n, dtype=np.int64)
    offset[order] = np.cumsum(blocks[order]) - blocks[order]
    chunks = []
    for k, group in enumerate(np.split(order, np.cumsum(np.bincount(sizes))[:-1])):
        for lo in range(0, len(group), chunk):
            cm = group[lo : lo + chunk, None]
            first = int(offset[cm[0, 0]])
            nodes = np.argsort(1 - ((cm >> np.arange(n)) & 1), axis=1, kind="stable")
            outs = nodes[:, k:]
            # in C | S, the t-th intact node o has o - t nodes of C below it,
            # plus the nodes of S among the intact nodes before it
            rank = np.zeros_like(cm)
            for t in range(n - k):
                o = outs[:, t, None]
                rank = np.concatenate([rank, rank + (1 << (o - t + sizes[: 1 << t]))], axis=1)
                cm = np.concatenate([cm, cm | (1 << o)], axis=1)
            inside, outside = nodes[:, :k, None], outs[:, None, :]
            chunks.append((first, first + (len(cm) << k), offset[cm] + rank, inside, outside))
    return _Layout(n, order, offset, offset + blocks - 1, chunks, store)


def _chunk_factors(net: NetworkModel, layout: _Layout) -> list[tuple | np.ndarray]:
    """Per chunk of ``layout``, its factors on ``net`` or, past the cells
    left to store them, the ``keep`` array a round computes them from."""
    n, store = net.n_nodes, layout.store
    adj = net.csr
    dst = np.repeat(adj.targets, np.diff(adj.starts, append=len(adj.src)))
    survive = np.ones((n, n))
    survive[adj.src, dst] = 1.0 - adj.q
    factors = []
    for _, _, _, inside, outside in layout.chunks:
        keep = survive[inside, outside]
        cells = len(keep) * _factor_cells(n, inside.shape[1])
        if cells <= store:
            store -= cells
            factors.append(_factors(keep))
        else:
            factors.append(keep)
    return factors


# the network solved last, its layout, its chunks' factors and the cells
# they take; dropped together with that network
_last: tuple[weakref.ref, _Layout, list, int] | None = None


def _forget(ref: weakref.ref) -> None:
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def _plan(net: NetworkModel) -> tuple[_Layout, list]:
    """The layout and chunk factors of ``net``, built once while it is the
    network solved last; the layout is kept for a next network of its size."""
    global _last
    last = _last
    if last is not None and last[0]() is net:
        return last[1], last[2]
    # drop the old factors (and a layout of another size) before building anew
    layout = last[1] if last is not None and last[1].n == net.n_nodes else None
    _last = last = None
    if layout is None:
        layout = _layout(net.n_nodes)
    factors = _chunk_factors(net, layout)
    arrays = [layout.order, layout.offset, layout.full]
    for chunk, factor in zip(layout.chunks, factors):
        arrays += chunk[2:] + (factor if isinstance(factor, tuple) else (factor,))
    _last = (weakref.ref(net, _forget), layout, factors, sum(a.size for a in arrays))
    return layout, factors


def _reserve(
    cells: int, what: str, advice: str = "; use the `simulate` command / simulate_runs() instead"
) -> None:
    """Before allocating ``cells`` cells: refuse them, naming ``what`` needs
    them, if they are above the budget, and otherwise drop the held plan if
    it and they would not fit in the budget together."""
    global _last
    if cells > _MAX_CELLS:
        # an N-node exact engine asks for about 3^N cells, thousands of digits
        # for large N: past 2^53, name the power of 2 below the count
        amount = cells if cells < 1 << 53 else f"over 2^{cells.bit_length() - 1}"
        raise ExactEngineCapError(
            f"{what} need {amount} cells, above the budget of {_MAX_CELLS}{advice}"
        )
    if _last is not None and _last[3] + cells > _MAX_CELLS:
        _last = None


def _set_probs(net: NetworkModel, depth: int) -> np.ndarray:
    """``out[C]`` = probability that exactly C is compromised after ``depth``
    rounds, started by the direct attack."""
    n = net.n_nodes
    layout, factors = _plan(net)
    state = np.zeros(3**n)
    direct = np.ones(1)
    for pi in net.p:
        direct = np.concatenate([direct * (1.0 - pi), direct * pi])
    state[layout.full] = direct
    for _ in range(min(depth, n)):
        nxt = np.empty_like(state)
        for (lo, hi, target, _, _), chunk in zip(layout.chunks, factors):
            if not isinstance(chunk, tuple):
                chunk = _factors(chunk)
            nxt[target] = _round(state[lo:hi].reshape(len(target), -1), chunk)
        state = nxt
    out = np.empty(1 << n)
    out[layout.order] = np.add.reduceat(state, layout.offset[layout.order])
    return out


def r_prob(
    net: NetworkModel,
    active: NodeSet,
    target: NodeSet,
    sources: NodeSet,
    depth: int,
) -> float:
    """Probability that exactly ``target`` is compromised after ``depth``
    rounds, given that exactly ``sources`` was compromised directly, over the
    subnetwork induced by ``active``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    active, target, sources = set(active), set(target), set(sources)
    if not sources <= target:
        raise ValueError("sources must be a subset of the target set")
    if not target <= active:
        raise ValueError("target set must be a subset of the active set")
    sub = induced_subnetwork(net, active)
    # p in {0, 1} makes the direct attack an exact point mass on sources
    forced = replace(sub, p=tuple(float(v in sources) for v in sub.node_ids))
    return float(_set_probs(forced, depth)[_mask(sub, target)])


def one_hop_prob(
    net: NetworkModel, active: NodeSet, target: NodeSet, sources: NodeSet
) -> float:
    """Probability that one round started by ``sources`` compromises exactly
    ``target`` within the subnetwork induced by ``active``."""
    return r_prob(net, active, target, sources, 1)


def event_prob(net: NetworkModel, target: NodeSet, depth: int) -> float:
    """Probability that exactly ``target`` ends up compromised after ``depth``
    rounds of propagation, direct compromise included.

    ``depth`` 0 is the no-propagation baseline: only the directly compromised
    nodes count.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    c = _mask(net, target)
    return float(_set_probs(net, depth)[c])


def joint_pmf(net: NetworkModel, depth: int) -> JointPmf:
    """Exact joint distribution of per-type compromised-node counts.

    Sums the exact-set probabilities of all ``2^N`` node subsets into the
    count table in ascending mask order, so results are reproducible bit for
    bit. Refuses networks above the engine's cell budget (14 nodes); use
    Monte Carlo simulation for larger networks.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    probs = _set_probs(net, depth)
    dims = tuple(s + 1 for s in net.type_sizes)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    cells = _subset_sums([int(strides[t]) for t in net.types])
    counts = np.bincount(cells, weights=probs, minlength=int(np.prod(dims)))
    return JointPmf(dims, counts.reshape(dims))
