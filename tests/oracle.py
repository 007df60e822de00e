"""Brute-force reference for the exact engine.

Enumerates every outcome of the underlying Bernoulli experiment: one direct
bit per node and one attempt bit per directed edge, then propagates
deterministically round by round (a node compromised at round r fires its
attempt bits at intact neighbors in round r+1, for at most `depth` rounds).
Completely independent of the exact engine's forward (compromised set, front)
chain; cost is 2^N * 2^(2|E|), so keep it to tiny graphs.
"""

from __future__ import annotations

import numpy as np

from hoprisk import JointPmf, NetworkModel


def brute_force_set_probs(net: NetworkModel, depth: int) -> np.ndarray:
    """``out[mask]``: probability that exactly the nodes at the bit positions
    of ``mask`` (positions in ``net.node_ids``) end up compromised."""
    n = net.n_nodes
    idx = net.index_of
    directed = sorted(net.q.keys())
    n_dir = len(directed)
    if n > 12 or n_dir > 16:
        raise ValueError("brute force oracle limited to tiny graphs")

    attempts = np.arange(1 << n_dir, dtype=np.int64)
    # success sets per source node, and the joint weight, for every attempt outcome
    succ = [np.zeros(attempts.size, dtype=np.int64) for _ in range(n)]
    w_attempt = np.ones(attempts.size)
    for k, (u, v) in enumerate(directed):
        bit = (attempts >> k) & 1
        succ[idx[u]] |= bit << idx[v]
        quv = net.q[(u, v)]
        w_attempt *= np.where(bit == 1, quv, 1.0 - quv)

    mass_by_set = np.zeros(1 << n)
    for direct in range(1 << n):
        w_direct = 1.0
        for i in range(n):
            w_direct *= net.p[i] if direct >> i & 1 else 1.0 - net.p[i]
        if w_direct == 0.0:
            continue
        compromised = np.full(attempts.size, direct, dtype=np.int64)
        front = compromised.copy()
        for _ in range(depth):
            if not front.any():
                break
            new = np.zeros(attempts.size, dtype=np.int64)
            for i in range(n):
                firing = (front >> i) & 1
                new |= np.where(firing == 1, succ[i], 0)
            new &= ~compromised
            compromised |= new
            front = new
        np.add.at(mass_by_set, compromised, w_direct * w_attempt)
    return mass_by_set


def brute_force_joint_pmf(net: NetworkModel, depth: int) -> JointPmf:
    n = net.n_nodes
    idx = net.index_of
    mass_by_set = brute_force_set_probs(net, depth)
    type_masks = [0] * net.num_types
    for v in net.node_ids:
        type_masks[net.types[idx[v]]] |= 1 << idx[v]
    dims = tuple(s + 1 for s in net.type_sizes)
    probs = np.zeros(dims)
    for mask in range(1 << n):
        cell = tuple((mask & tm).bit_count() for tm in type_masks)
        probs[cell] += mass_by_set[mask]
    return JointPmf(dims, probs)


def random_network(rng: np.random.Generator, max_nodes: int = 5, max_edges: int = 6) -> NetworkModel:
    """Random small heterogeneous network with arbitrary p and asymmetric q."""
    from itertools import combinations

    from hoprisk import build_network

    n = int(rng.integers(2, max_nodes + 1))
    types = rng.integers(0, 2, size=n)
    types[rng.integers(0, n)] = 0  # keep both types nonempty when possible
    if (types == 1).sum() == 0 and n >= 2:
        types[rng.integers(0, n)] = 1
    # renumber so type indices are dense
    if (types == 0).sum() == 0:
        types[:] = 0
    all_pairs = list(combinations(range(n), 2))
    rng.shuffle(all_pairs)
    n_edges = int(rng.integers(0, min(max_edges, len(all_pairs)) + 1))
    edges = all_pairs[:n_edges]
    q = {}
    for u, v in edges:
        q[(u, v)] = float(rng.random())
        q[(v, u)] = float(rng.random())
    node_specs = [(i, int(types[i]), float(rng.random())) for i in range(n)]
    return build_network(node_specs, edges, q=q)
