"""Exact joint compromise-count distributions under L-hop propagation.

Direct attacks compromise each node independently; every node compromised at
round r then gets one shot at each still-intact neighbor at round r+1, up to
a propagation depth of L rounds. The engine computes, for every node subset
C, the probability that C ends up being *exactly* the compromised set.

It runs the propagation forward on the states (C, F), where F, a subset of
C, is the last round's front; the direct attack starts it on the states
(C, C). Given F, each intact node j is hit independently with probability
1 - prod_{i in F} (1 - q_ij), so (C, F) moves to (C | S, S) with a product
probability over the newly hit set S; after N rounds nothing moves. One
call plays each round once and reads out every depth it is asked for as
the pass reaches it. The mass is a dense array of 3^N cells, a block of
2^|C| cells (F as a subset of C) per C, ordered by |C| and then by mask, so
a round is one vectorised kernel per chunk of same-size C, ~4^N
multiply-adds in all.

Everything a round needs of the network but not of the mass is its plan:
the chunk layout, the target cells and each chunk's hit-probability
factors, built once from the network's arcs. The factors are products over
subsets, built in place by doubling one node at a time, and a chunk's
target cells come from one exact float64 product of bit tables. A round is
then one broadcast multiply, one matrix product and one scatter per chunk.
The plan of the network solved last is kept, through a weak reference to
that network, for separate calls on it at any depth, so at most one plan is
held and it goes with its network. So does its pass, the mass after the
last round played: a separate call on that network goes on from it when no
depth it asks is below that round, and otherwise starts again from the
direct attack. The arrays, the stored factors included, are checked against
a fixed cell budget before allocating; that budget is the only limit, and
it refuses networks above 14 nodes with :class:`ExactEngineCapError`. From
13 nodes on, the factors of the chunks past the budget are computed in each
round instead. A held plan and pass take the stored factors plus at most
2 3^N + (N(N - 1)/4 + N + 3) 2^N cells for the mass, the layout and the
1 - q arrays of the other chunks. The lumped engine in closedform and the
table of stats.correlations share the budget through _reserve and its one
rule: a request above the budget is refused, and any other request drops
the held plan and pass.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

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
    out = np.zeros(1 << len(values), dtype=np.int64)
    for i, v in enumerate(values):
        w = 1 << i
        np.add(out[:w], v, out=out[w : 2 * w])
    return out


def _outcomes(hit: np.ndarray, miss: np.ndarray) -> np.ndarray:
    """``out[s]`` = probability of exactly the hit set s (bit t for node t)
    of independent nodes, node t hit with probability ``hit[t]`` and missed
    with ``miss[t]``, both arrays of any shape past axis 0.

    Built in place by doubling: the sets with bit t take the sets below 2^t
    times the hit on node t, then the sets below 2^t take its miss."""
    out = np.empty((1 << len(miss),) + miss.shape[1:])
    out[0] = 1.0
    for t in range(len(miss)):
        w = 1 << t
        np.multiply(out[:w], hit[t], out=out[w : 2 * w])
        out[:w] *= miss[t]
    return out


def _factors(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mass-independent factors of a chunk of same-size C.

    ``keep[b, r, t]`` is 1 - q from the r-th node of C_b to its t-th intact
    node. Given the front f, the hits on the low and the high half of the
    intact nodes are independent: returns ``low[s, b, f]`` and
    ``high[b, s, f]``, the probabilities of each hit set s of either half.
    """
    b, k, m = keep.shape
    # miss[t, b, f]: front f of C_b misses the t-th intact node, doubled in
    # place along f as _outcomes doubles along s
    miss = np.empty((m, b, 1 << k))
    miss[..., 0] = 1.0
    for r in range(k):
        w = 1 << r
        np.multiply(miss[..., :w], keep[:, r].T[..., None], out=miss[..., w : 2 * w])
    hit = 1.0 - miss
    half = m // 2
    high = _outcomes(hit[half:], miss[half:]).transpose(1, 0, 2)
    return _outcomes(hit[:half], miss[:half]), high


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

    ``order`` lists the masks C by size and then by mask, ``starts[i]`` is
    the first cell of the block of ``order[i]`` (where a read-out sums) and
    ``full[C]`` the cell of (C, C). Each chunk of same-size C is ``(lo, hi,
    target, inside, outside)``: its cell range; the cell ``target[b, s]`` of
    (C_b | S, S), where bit t of s stands for the t-th intact node of C_b;
    and the nodes of C_b and its intact nodes, shaped to index the (from, to)
    pairs between them. ``store`` is the cells left for stored factors.
    """

    n: int
    order: np.ndarray
    starts: np.ndarray
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
    # tables[0, t, s] is bit t of the hit set s, and tables[1, t, s] that bit
    # times 2^(bits of s below t)
    t = np.arange(n)
    masks = np.arange(1 << n)
    bits = masks >> t[:, None] & 1
    tables = np.stack([bits, bits << sizes[(1 << t[:, None]) - 1 & masks]]).astype(float)
    pow2, shift = (1 << t).astype(float), np.stack([0 * t, t])[:, None, :]
    chunks = []
    for k, group in enumerate(np.split(order, np.cumsum(np.bincount(sizes))[:-1])):
        m = n - k
        for lo in range(0, len(group), chunk):
            cm = group[lo : lo + chunk, None]
            first = int(offset[cm[0, 0]])
            nodes = np.argsort(1 - ((cm >> t) & 1), axis=1, kind="stable")
            outs = nodes[:, k:]
            # with o the t-th intact node, S sums 2^o times bit t of s; in
            # C | S, o has o - t nodes of C below it plus the bits of s below
            # t, so the rank of S there sums 2^(o - t) times tables[1, t, s].
            # Both sum distinct powers of two below 2^n: the float64 products
            # are exact
            hit, rank = (pow2[outs - shift[..., :m]] @ tables[:, :m, : 1 << m]).astype(np.int64)
            target = offset[cm | hit] + rank
            inside, outside = nodes[:, :k, None], outs[:, None, :]
            chunks.append((first, first + (len(target) << k), target, inside, outside))
    return _Layout(n, order, offset[order], offset + blocks - 1, chunks, store)


def _chunk_factors(net: NetworkModel, layout: _Layout) -> list[tuple | np.ndarray]:
    """Per chunk of ``layout``, its factors on ``net`` or, past the cells
    left to store them, the ``keep`` array a round computes them from."""
    n, store = net.n_nodes, layout.store
    survive = np.ones((n, n))
    survive[net.arc_src, net.arc_dst] = 1.0 - net.arc_q
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


# the network solved last, its layout, its chunks' factors and its pass: the
# mass after the last round played (None before one starts) and that round's
# number; dropped together with that network
_last: tuple[weakref.ref, _Layout, list, np.ndarray | None, int] | None = None


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
    _last = (weakref.ref(net, _forget), layout, factors, None, 0)
    return layout, factors


def _reserve(
    cells: int, what: str, advice: str = "; use the `simulate` command / simulate_runs() instead"
) -> None:
    """Before allocating ``cells`` cells: refuse them, naming ``what`` needs
    them, if they are above the budget, and otherwise drop the held plan and
    pass, so that they never sit beside them."""
    global _last
    if cells > _MAX_CELLS:
        # an N-node exact engine asks for about 3^N cells, thousands of digits
        # for large N: past 2^53, name the power of 2 below the count
        amount = cells if cells < 1 << 53 else f"over 2^{cells.bit_length() - 1}"
        raise ExactEngineCapError(
            f"{what} need {amount} cells, above the budget of {_MAX_CELLS}{advice}"
        )
    _last = None


def _set_probs(net: NetworkModel, depths: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield, for each of the ascending ``depths``, ``out[C]`` = probability
    that exactly C is compromised after that many rounds, started by the
    direct attack; each round is played once, and at most N of them. The
    pass held for ``net`` goes on if no depth is below its round."""
    global _last
    n = net.n_nodes
    layout, factors = _plan(net)
    ref, _, _, state, played = _last
    if state is None or any(depth < played for depth in depths):
        state, played = np.zeros(3**n), 0
        state[layout.full] = _outcomes(net.p, 1.0 - net.p)
        # the slot holds the newest mass only, so that a round sees two
        _last = (ref, layout, factors, state, played)
    for depth in depths:
        for played in range(played + 1, min(depth, n) + 1):
            nxt = np.empty_like(state)
            for (lo, hi, target, _, _), chunk in zip(layout.chunks, factors):
                if not isinstance(chunk, tuple):
                    chunk = _factors(chunk)
                nxt[target] = _round(state[lo:hi].reshape(len(target), -1), chunk)
            state = nxt
            _last = (ref, layout, factors, state, played)
        out = np.empty(1 << n)
        out[layout.order] = np.add.reduceat(state, layout.starts)
        yield out


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
    forced = replace(sub, p=np.isin(sub.node_ids, list(sources)))
    return float(next(_set_probs(forced, [depth]))[_mask(sub, target)])


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
    return float(next(_set_probs(net, [depth]))[c])


def joint_pmf(net: NetworkModel, depth: int) -> JointPmf:
    """Exact joint distribution of per-type compromised-node counts.

    Sums the exact-set probabilities of all ``2^N`` node subsets into the
    count table in ascending mask order, so results are reproducible bit for
    bit. Refuses networks above the engine's cell budget (14 nodes); use
    Monte Carlo simulation for larger networks.
    """
    return _joint_pmfs(net, [depth])[depth]


def _joint_pmfs(net: NetworkModel, depths: Iterable[int]) -> dict[int, JointPmf]:
    """``joint_pmf`` at each of ``depths`` (any order, repeats allowed), all
    read out of one forward pass."""
    wanted = sorted(set(depths))
    if wanted and wanted[0] < 0:
        raise ValueError("depth must be >= 0")
    # refuse an over-budget network before sizing anything by 2^N
    _plan(net)
    dims = tuple(s + 1 for s in net.type_sizes)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    cells = _subset_sums(strides[net.types])
    size = int(np.prod(dims))
    return {depth: JointPmf(dims, np.bincount(cells, weights=probs, minlength=size).reshape(dims))
            for depth, probs in zip(wanted, _set_probs(net, wanted))}
