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
kernel per size of C, ~4^N multiply-adds in all. The arrays are checked
against a fixed cell budget before allocating: above 14 nodes,
:class:`ExactEngineCapError`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .network import NetworkModel, induced_subnetwork
from .pmf import JointPmf

__all__ = [
    "DEFAULT_NODE_CAP",
    "HARD_NODE_CAP",
    "ExactEngineCapError",
    "one_hop_prob",
    "r_prob",
    "event_prob",
    "joint_pmf",
]

DEFAULT_NODE_CAP = 20
HARD_NODE_CAP = 64

# float64 (or int64) cells an exact engine may hold at once (128 MiB); shared
# with the lumped engine in closedform
_MAX_CELLS = 1 << 24

NodeSet = Iterable[int]


class ExactEngineCapError(RuntimeError):
    """Raised when a network is too large for an exact engine to finish."""


def _mask(net: NetworkModel, nodes: NodeSet) -> int:
    idx = net.index_of
    mask = 0
    for v in nodes:
        try:
            mask |= 1 << idx[v]
        except KeyError:
            raise ValueError(f"unknown node id: {v}") from None
    return mask


def _chunk_size(n: int) -> int:
    """Most C of one size per kernel call that keep an n-node run in budget.

    Held: two mass arrays, the target cells (3^n each), the miss factors
    (n (n - 1) 2^(n - 2)) and per-mask arrays; a kernel needs < 4 * 2^n per C.
    """
    held = 3 * 3**n + (n * (n - 1) // 4 + 8) * 2**n
    per_c = 4 * 2**n
    if held + per_c > _MAX_CELLS:
        raise ExactEngineCapError(
            f"{n} nodes need {held + per_c} float64 cells, above the exact "
            f"engine's budget of {_MAX_CELLS}; use the `simulate` command / "
            "simulate_runs() instead"
        )
    return (_MAX_CELLS - held) // per_c


def _subset_sums(values: Sequence[int]) -> np.ndarray:
    """``out[mask]`` = sum of ``values[i]`` over the bits i of ``mask``."""
    out = np.zeros(1, dtype=np.int64)
    for v in values:
        out = np.concatenate([out, out + v])
    return out


def _round_plan(
    net: NetworkModel, chunk: int, sizes: np.ndarray, order: np.ndarray, offset: np.ndarray
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Per chunk of same-size C: its cell range, miss factors and targets.

    ``keep[b, r, t]`` is 1 - q from the r-th node of C_b to its t-th intact
    node, and ``target[b, s]`` the cell of (C_b | S, S), where bit t of s
    stands for the t-th intact node of C_b.
    """
    n = net.n_nodes
    idx = net.index_of
    survive = np.ones((n, n))
    for (u, v), quv in net.q.items():
        survive[idx[u], idx[v]] = 1.0 - quv
    plan = []
    for k, group in enumerate(np.split(order, np.cumsum(np.bincount(sizes))[:-1])):
        for lo in range(0, len(group), chunk):
            cm = group[lo : lo + chunk, None]
            first = int(offset[cm[0, 0]])
            nodes = np.argsort(1 - ((cm >> np.arange(n)) & 1), axis=1, kind="stable")
            outs = nodes[:, k:]
            keep = survive[nodes[:, :k, None], outs[:, None, :]]
            # in C | S, the t-th intact node o has o - t nodes of C below it,
            # plus the nodes of S among the intact nodes before it
            rank = np.zeros_like(cm)
            for t in range(n - k):
                o = outs[:, t, None]
                rank = np.concatenate([rank, rank + (1 << (o - t + sizes[: 1 << t]))], axis=1)
                cm = np.concatenate([cm, cm | (1 << o)], axis=1)
            plan.append((first, first + (len(cm) << k), keep, offset[cm] + rank))
    return plan


def _outcomes(miss: np.ndarray) -> np.ndarray:
    """``out[s, b, f]`` = probability that front f of C_b hits exactly the
    set s of the nodes that ``miss[:, b, f]`` stands for (bit t for node t)."""
    out = np.ones((1,) + miss.shape[1:])
    for mt in miss:
        out = np.concatenate([out * mt, out * (1.0 - mt)])
    return out


def _round(mass: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """One round for a chunk of same-size C.

    ``mass[b, f]`` is the mass on (C_b, F) for the fronts F of C_b; returns
    the mass moving to each newly hit set S of C_b's intact nodes.
    """
    b, k, m = keep.shape
    # miss[t, b, f]: front f of C_b misses the t-th intact node
    miss = np.ones((1, b, m))
    for r in range(k):
        miss = np.concatenate([miss, miss * keep[:, r]])
    miss = np.ascontiguousarray(miss.transpose(2, 1, 0))
    # given f, the hits on the low and the high half of the intact nodes are
    # independent, so the sum over f is one matrix product per C
    half = m // 2
    low = _outcomes(miss[:half]) * mass
    high = _outcomes(miss[half:])
    return np.matmul(high.transpose(1, 0, 2), low.transpose(1, 2, 0)).reshape(b, -1)


def _set_probs(net: NetworkModel, depth: int, sources: int | None = None) -> np.ndarray:
    """``out[C]`` = probability that exactly C is compromised after ``depth``
    rounds, started by the direct attack or, if given, from exactly the mask
    ``sources`` compromised directly."""
    n = net.n_nodes
    chunk = _chunk_size(n)
    sizes = _subset_sums([1] * n)
    order = np.argsort(sizes, kind="stable")
    blocks = 1 << sizes
    offset = np.empty(1 << n, dtype=np.int64)
    offset[order] = np.cumsum(blocks[order]) - blocks[order]
    # the state (C, C) is the last cell of C's block
    state = np.zeros(3**n)
    if sources is None:
        direct = np.ones(1)
        for pi in net.p:
            direct = np.concatenate([direct * (1.0 - pi), direct * pi])
        state[offset + blocks - 1] = direct
    else:
        state[offset[sources] + blocks[sources] - 1] = 1.0
    rounds = min(depth, n)
    plan = _round_plan(net, chunk, sizes, order, offset) if rounds else []
    for _ in range(rounds):
        nxt = np.empty_like(state)
        for lo, hi, keep, target in plan:
            nxt[target] = _round(state[lo:hi].reshape(len(target), -1), keep)
        state = nxt
    out = np.empty(1 << n)
    out[order] = np.add.reduceat(state, offset[order])
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
    return float(_set_probs(sub, depth, _mask(sub, sources))[_mask(sub, target)])


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


def joint_pmf(
    net: NetworkModel, depth: int, max_nodes: int = DEFAULT_NODE_CAP
) -> JointPmf:
    """Exact joint distribution of per-type compromised-node counts.

    Sums the exact-set probabilities of all ``2^N`` node subsets into the
    count table in ascending mask order, so results are reproducible bit for
    bit. Refuses networks above ``max_nodes`` (raise it if you accept the
    cost) and, for any cap, above the engine's cell budget (14 nodes); use
    Monte Carlo simulation for larger networks.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = net.n_nodes
    if n > HARD_NODE_CAP:
        raise ExactEngineCapError(
            f"{n} nodes exceeds the {HARD_NODE_CAP}-node bitmask limit; "
            "use the `simulate` command / simulate_runs() instead"
        )
    if n > max_nodes:
        raise ExactEngineCapError(
            f"{n} nodes exceeds the exact-engine cap of {max_nodes}: the engine "
            f"holds 3^{n} ~ {3.0 ** n:.2e} states and does ~4^{n} multiply-adds "
            "per round; use the `simulate` command / simulate_runs(), or pass a "
            "higher cap to accept the cost"
        )
    probs = _set_probs(net, depth)
    dims = tuple(s + 1 for s in net.type_sizes)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    cells = _subset_sums([int(strides[t]) for t in net.types])
    counts = np.bincount(cells, weights=probs, minlength=int(np.prod(dims)))
    return JointPmf(dims, counts.reshape(dims))
