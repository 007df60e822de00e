"""Exact joint compromise-count distributions under L-hop propagation.

Direct attacks compromise each node independently; every node compromised at
round r then gets one shot at each still-intact neighbor at round r+1, up to
a propagation depth of L rounds. The engine computes, for every node subset
C, the probability that C ends up being *exactly* the compromised set.

The L-round event is evaluated by backward elimination: conditioning on the
set newly compromised in the first round, the originating front and its
edges play no further role and can be removed, leaving an (L-1)-round
problem on the smaller induced subnetwork. Unrolling this gives a sum over
chains of disjoint round fronts, each weighted by single-round propagation
probabilities. Subproblems are shared across chains, so values are memoized
on (active set, target set, front, remaining depth), with node sets encoded
as bitmasks (which caps this engine at 64 nodes).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .network import NetworkModel
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

NodeSet = Iterable[int]

# adjacency in bitmask positions: per position, tuples of (other, q)
_Adj = tuple[tuple[tuple[int, float], ...], ...]


class ExactEngineCapError(RuntimeError):
    """Raised when a network is too large for an exact engine to finish."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _adjacency(net: NetworkModel) -> tuple[_Adj, _Adj]:
    idx = net.index_of
    n = net.n_nodes
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    outgoing: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), quv in net.q.items():
        incoming[idx[v]].append((idx[u], quv))
        outgoing[idx[u]].append((idx[v], quv))
    return (
        tuple(tuple(sorted(es)) for es in incoming),
        tuple(tuple(sorted(es)) for es in outgoing),
    )


def _mask(net: NetworkModel, nodes: NodeSet) -> int:
    idx = net.index_of
    mask = 0
    for v in nodes:
        try:
            mask |= 1 << idx[v]
        except KeyError:
            raise ValueError(f"unknown node id: {v}") from None
    return mask


def _check_masks(net: NetworkModel, active: int, target: int, sources: int) -> None:
    if net.n_nodes > HARD_NODE_CAP:
        raise ExactEngineCapError(
            f"{net.n_nodes} nodes exceeds the {HARD_NODE_CAP}-node bitmask limit"
        )
    if sources & ~target:
        raise ValueError("sources must be a subset of the target set")
    if target & ~active:
        raise ValueError("target set must be a subset of the active set")


def _one_hop(inc: _Adj, out: _Adj, active: int, target: int, sources: int) -> float:
    """One propagation round from ``sources`` hits exactly ``target``.

    Every node of ``target \\ sources`` must receive at least one successful
    attempt from ``sources``, and every active node outside ``target`` must
    survive all attempts. Empty products count as 1, so an empty source set
    can only reproduce itself.
    """
    prob = 1.0
    for i in _bits(target & ~sources):
        miss_all = 1.0
        for j, qji in inc[i]:
            if sources >> j & 1:
                miss_all *= 1.0 - qji
        prob *= 1.0 - miss_all
        if prob == 0.0:
            return 0.0
    outside = active & ~target
    if outside:
        for v in _bits(sources):
            for l, qvl in out[v]:
                if outside >> l & 1:
                    prob *= 1.0 - qvl
    return prob


def _r(
    inc: _Adj,
    out: _Adj,
    active: int,
    target: int,
    sources: int,
    depth: int,
    memo: dict[tuple[int, int, int, int], float],
) -> float:
    key = (active, target, sources, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if depth == 1:
        val = _one_hop(inc, out, active, target, sources)
    else:
        rest = target & ~sources
        shrunk = active & ~sources
        val = 0.0
        front = rest
        while True:
            w = _r(inc, out, active, sources | front, sources, 1, memo)
            if w != 0.0:
                val += w * _r(inc, out, shrunk, rest, front, depth - 1, memo)
            if front == 0:
                break
            front = (front - 1) & rest
    memo[key] = val
    return val


def _direct_weight(p: tuple[float, ...], n: int, direct: int) -> float:
    w = 1.0
    for i in range(n):
        w *= p[i] if direct >> i & 1 else 1.0 - p[i]
        if w == 0.0:
            return 0.0
    return w


def _event(
    net: NetworkModel,
    inc: _Adj,
    out: _Adj,
    target: int,
    depth: int,
    memo: dict[tuple[int, int, int, int], float],
) -> float:
    n = net.n_nodes
    if depth == 0:
        return _direct_weight(net.p, n, target)
    full = (1 << n) - 1
    total = 0.0
    direct = target
    while True:
        w = _direct_weight(net.p, n, direct)
        if w != 0.0:
            total += w * _r(inc, out, full, target, direct, depth, memo)
        if direct == 0:
            break
        direct = (direct - 1) & target
    return total


def one_hop_prob(
    net: NetworkModel, active: NodeSet, target: NodeSet, sources: NodeSet
) -> float:
    """Probability that one round started by ``sources`` compromises exactly
    ``target`` within the subnetwork induced by ``active``."""
    u, c, d = _mask(net, active), _mask(net, target), _mask(net, sources)
    _check_masks(net, u, c, d)
    inc, out = _adjacency(net)
    return _one_hop(inc, out, u, c, d)


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
    u, c, d = _mask(net, active), _mask(net, target), _mask(net, sources)
    _check_masks(net, u, c, d)
    inc, out = _adjacency(net)
    return _r(inc, out, u, c, d, depth, {})


def event_prob(net: NetworkModel, target: NodeSet, depth: int) -> float:
    """Probability that exactly ``target`` ends up compromised after ``depth``
    rounds of propagation, direct compromise included.

    ``depth`` 0 is the no-propagation baseline: only the directly compromised
    nodes count.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    c = _mask(net, target)
    full = (1 << net.n_nodes) - 1
    _check_masks(net, full, c, c)
    inc, out = _adjacency(net)
    return _event(net, inc, out, c, depth, {})


def joint_pmf(
    net: NetworkModel, depth: int, max_nodes: int = DEFAULT_NODE_CAP
) -> JointPmf:
    """Exact joint distribution of per-type compromised-node counts.

    Sums the exact-set probabilities of all ``2^N`` node subsets into the
    count table, enumerating subsets in ascending mask order so results are
    reproducible bit for bit. Refuses networks above ``max_nodes`` (cost
    grows faster than ``3^N``); raise the cap explicitly if you accept the
    cost, or switch to Monte Carlo simulation.
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
            f"{n} nodes exceeds the exact-engine cap of {max_nodes}: subset "
            f"enumeration needs at least 3^{n} ~ {3.0 ** n:.2e} terms; use the "
            "`simulate` command / simulate_runs(), or pass a higher cap to "
            "accept the cost"
        )
    idx = net.index_of
    type_masks = [0] * net.num_types
    for v in net.node_ids:
        type_masks[net.types[idx[v]]] |= 1 << idx[v]
    dims = tuple(s + 1 for s in net.type_sizes)
    probs = np.zeros(dims)
    inc, out = _adjacency(net)
    memo: dict[tuple[int, int, int, int], float] = {}
    for target in range(1 << n):
        cellidx = tuple((target & tm).bit_count() for tm in type_masks)
        probs[cellidx] += _event(net, inc, out, target, depth, memo)
    return JointPmf(dims, probs)
