"""Typed undirected networks with direct and indirect compromise probabilities.

A network holds N nodes, each with a type index and a probability ``p`` of
being compromised directly (by an attack from outside the network). Each
undirected edge ``{u, v}`` carries two directed probabilities ``q[(u, v)]``
and ``q[(v, u)]``: the chance that a compromised endpoint compromises the
other one in a single propagation attempt. Pairs without an edge have an
implicit q of zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from itertools import chain, combinations, islice
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Adjacency",
    "NetworkModel",
    "build_network",
    "induced_subnetwork",
    "generate_ba",
    "assign_types_by_degree",
    "with_type_probabilities",
    "complete_network",
    "star_network",
    "complete_bipartite_network",
    "load_json",
    "save_json",
]

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class Adjacency:
    """A network's arrays, indexed by node position in ``node_ids``.

    Directed edge e runs from node ``src[e]`` with attempt probability
    ``q[e]``; edges are sorted by (target, source). ``targets`` lists the
    nodes with in-edges, ascending; the edges into ``targets[i]`` run from
    ``starts[i]`` up to ``starts[i + 1]`` (the last ones to the end). ``p``
    holds the direct-compromise probabilities and ``onehot[i, t]`` is 1.0
    when node i has type t, else 0.0.
    """

    src: np.ndarray
    q: np.ndarray
    targets: np.ndarray
    starts: np.ndarray
    p: np.ndarray
    onehot: np.ndarray


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network with typed nodes and compromise probabilities.

    Construct through :func:`build_network` (which validates all invariants)
    rather than directly. ``node_ids`` are unique and ascending; built
    networks use the dense labels ``0..N-1``, while induced subnetworks keep
    the ids of their parent. ``q`` holds an entry for every ordered pair on
    every edge and is the one stored form of the graph: ``edges``,
    :meth:`degree` and ``csr`` derive from it.
    """

    node_ids: tuple[int, ...]
    types: tuple[int, ...]
    p: tuple[float, ...]
    q: Mapping[Edge, float]
    num_types: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The undirected edges, each as its ascending pair of node ids."""
        return frozenset(_canon(u, v) for u, v in self.q)

    @cached_property
    def index_of(self) -> dict[int, int]:
        """Node id -> position in ``node_ids`` (also the bitmask position)."""
        return {v: i for i, v in enumerate(self.node_ids)}

    @cached_property
    def type_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.num_types
        for t in self.types:
            sizes[t] += 1
        return tuple(sizes)

    @cached_property
    def csr(self) -> Adjacency:
        """The directed edges as arrays, sorted by (target, source) position."""
        arcs = np.fromiter(chain.from_iterable(self.q), np.intp, 2 * len(self.q))
        src, dst = np.searchsorted(np.array(self.node_ids), arcs).reshape(-1, 2).T
        q = np.fromiter(self.q.values(), float, len(self.q))
        order = np.lexsort((src, dst))
        targets, starts = np.unique(dst[order], return_index=True)
        return Adjacency(
            src=src[order],
            q=q[order],
            targets=targets,
            starts=starts,
            p=np.array(self.p, dtype=float),
            onehot=np.eye(self.num_types)[list(self.types)],
        )

    def degree(self, node: int) -> int:
        return int(np.count_nonzero(self.csr.src == self.index_of[node]))


def _first_outside_unit(values: Iterable[float]) -> int | None:
    """Position of the first value outside [0, 1] (NaN included), or None."""
    a = np.fromiter(values, float)
    bad = np.flatnonzero(~((a >= 0.0) & (a <= 1.0)))
    return int(bad[0]) if bad.size else None


def _probability(x: float) -> float:
    """``float(x)``, reading an integer too large for a float as an infinity
    of its sign, so that the range check refuses it."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def build_network(
    node_specs: Iterable[tuple[int, int, float]],
    edge_specs: Iterable[tuple[int, int]],
    q: float | Mapping[Edge, float] | None = None,
) -> NetworkModel:
    """Validate specs and assemble a :class:`NetworkModel`.

    ``node_specs`` are ``(id, type, p)`` triples with dense ids ``0..N-1``.
    ``edge_specs`` are unordered node pairs. ``q`` is either a single
    probability applied to every directed pair on every edge, or a mapping
    from ordered pairs to probabilities (missing pairs default to 0); pairs
    off an edge are rejected.
    """
    nodes = sorted(node_specs)
    if not nodes:
        raise ValueError("network must have at least one node")
    ids = [n[0] for n in nodes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate node ids")
    if ids != list(range(len(ids))):
        raise ValueError("node ids must be dense 0..N-1")
    types = tuple(int(n[1]) for n in nodes)
    if min(types) < 0:
        raise ValueError("type indices must be non-negative")
    num_types = max(types) + 1
    for t in range(num_types):
        if t not in types:
            raise ValueError(f"type {t} has no nodes")
    p = tuple(_probability(n[2]) for n in nodes)
    i = _first_outside_unit(p)
    if i is not None:
        raise ValueError(f"p for node {i} out of [0, 1]: {p[i]}")

    id_set = set(ids)
    edges: set[Edge] = set()
    for u, v in edge_specs:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if u not in id_set or v not in id_set:
            raise ValueError(f"edge ({u}, {v}) references unknown node")
        edges.add(_canon(u, v))

    arcs = edges | {(v, u) for u, v in edges}
    if q is None or isinstance(q, (int, float)):
        qmap = dict.fromkeys(arcs, 0.0 if q is None else _probability(q))
    else:
        qmap = {pair: _probability(qij) for pair, qij in q.items()}
        if not qmap.keys() <= arcs:
            i, j = next(pair for pair in q if pair not in arcs)
            raise ValueError(f"q given for ({i}, {j}) but {{{i}, {j}}} is not an edge")
        if len(qmap) < len(arcs):
            qmap.update(dict.fromkeys(arcs - qmap.keys(), 0.0))
    i = _first_outside_unit(qmap.values())
    if i is not None:
        pair = next(islice(qmap, i, None))
        raise ValueError(f"q for {pair} out of [0, 1]: {qmap[pair]}")

    return NetworkModel(node_ids=tuple(ids), types=types, p=p, q=qmap, num_types=num_types)


def induced_subnetwork(net: NetworkModel, nodes: Iterable[int]) -> NetworkModel:
    """Restrict to ``nodes``: kept edges are those with both endpoints inside.

    Node ids, p and q values are inherited, so the result of restricting to
    the full node set compares equal to the original. Types that lose all
    their members stay as (empty) types, keeping count dimensions aligned
    with the parent network.
    """
    keep = set(nodes)
    unknown = keep - set(net.node_ids)
    if unknown:
        raise ValueError(f"unknown node ids: {sorted(unknown)}")
    kept_ids = tuple(v for v in net.node_ids if v in keep)
    idx = net.index_of
    return NetworkModel(
        node_ids=kept_ids,
        types=tuple(net.types[idx[v]] for v in kept_ids),
        p=tuple(net.p[idx[v]] for v in kept_ids),
        q={(u, v): qv for (u, v), qv in net.q.items() if u in keep and v in keep},
        num_types=net.num_types,
    )


def _seed_edges(n_init: int, topology: str) -> set[Edge]:
    if topology == "complete":
        return set(combinations(range(n_init), 2))
    if topology == "star":
        return {(0, i) for i in range(1, n_init)}
    if topology == "path":
        return {(i, i + 1) for i in range(n_init - 1)}
    raise ValueError(f"unknown seed topology: {topology!r}")


def generate_ba(
    n: int,
    m_attach: int,
    n_init: int,
    rng_seed: int,
    seed_topology: str = "complete",
) -> NetworkModel:
    """Grow a preferential-attachment (Barabasi-Albert) graph.

    Starts from a seed graph on ``n_init`` nodes (complete by default), then
    adds nodes one at a time, each connecting to ``m_attach`` distinct
    existing nodes sampled without replacement with probability proportional
    to current degree. Deterministic for a fixed ``rng_seed``. All nodes get
    type 0 and zero probabilities; assign types and probabilities afterwards.
    """
    if m_attach < 1:
        raise ValueError("m_attach must be >= 1")
    if n_init < m_attach:
        raise ValueError("n_init must be >= m_attach")
    if n < n_init:
        raise ValueError("n must be >= n_init")
    rng = np.random.default_rng(rng_seed)
    edges = _seed_edges(n_init, seed_topology)
    degree = np.zeros(n, dtype=float)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for s in range(n_init, n):
        chosen: list[int] = []
        for _ in range(m_attach):
            w = degree[:s].copy()
            w[chosen] = 0.0
            total = w.sum()
            if total > 0:
                probs = w / total
            else:
                # all remaining candidates isolated: fall back to uniform
                probs = np.ones(s)
                probs[chosen] = 0.0
                probs /= probs.sum()
            chosen.append(int(rng.choice(s, p=probs)))
        for t in chosen:
            edges.add(_canon(s, t))
            degree[t] += 1
            degree[s] += 1
    node_specs = [(i, 0, 0.0) for i in range(n)]
    return build_network(node_specs, edges)


def assign_types_by_degree(net: NetworkModel, top_k: int) -> NetworkModel:
    """Mark the ``top_k`` highest-degree nodes as type 0, the rest as type 1.

    Degree ties break toward the smaller node id so the split is reproducible.
    """
    n = net.n_nodes
    if not 0 < top_k < n:
        raise ValueError(f"top_k must be in 1..{n - 1}")
    # a stable sort keeps tied nodes in ascending position, so ascending id
    ranked = np.argsort(-np.bincount(net.csr.src, minlength=n), kind="stable")
    types = np.ones(n, dtype=int)
    types[ranked[:top_k]] = 0
    return replace(net, types=tuple(types.tolist()), num_types=2)


def with_type_probabilities(
    net: NetworkModel,
    p_by_type: Sequence[float],
    q_by_type: Sequence[float],
) -> NetworkModel:
    """Set per-node p and per-directed-edge q from per-type values.

    ``p_by_type[t]`` becomes the direct-compromise probability of every type-t
    node; ``q_by_type[t]`` the per-attempt probability with which a compromised
    type-t node propagates, i.e. q for a directed pair is keyed by the
    *source's* type.
    """
    if len(p_by_type) != net.num_types or len(q_by_type) != net.num_types:
        raise ValueError(f"need exactly {net.num_types} per-type values")
    for val in list(p_by_type) + list(q_by_type):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {val}")
    idx = net.index_of
    p = tuple(float(p_by_type[t]) for t in net.types)
    q = {(u, v): float(q_by_type[net.types[idx[u]]]) for u, v in net.q}
    return replace(net, p=p, q=q)


def complete_network(
    type_sizes: Sequence[int], p: float, q: float
) -> NetworkModel:
    """Complete graph with homogeneous probabilities; types laid out in blocks."""
    node_specs = []
    node = 0
    for t, size in enumerate(type_sizes):
        if size <= 0:
            raise ValueError("type sizes must be positive")
        for _ in range(size):
            node_specs.append((node, t, p))
            node += 1
    return build_network(node_specs, combinations(range(node), 2), q=q)


def star_network(
    n: int, p_hub: float, p_leaf: float, q_hub_to_leaf: float, q_leaf_to_hub: float
) -> NetworkModel:
    """Star on ``n`` nodes, the complete bipartite graph K_{1,n-1}: hub is
    node 0 (type 0), leaves are type 1."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    return complete_bipartite_network(1, n - 1, p_hub, p_leaf, q_hub_to_leaf, q_leaf_to_hub)


def complete_bipartite_network(
    n1: int, n2: int, p1: float, p2: float, q_1_to_2: float, q_2_to_1: float
) -> NetworkModel:
    """Complete bipartite graph: nodes 0..n1-1 are type 0, the rest type 1."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both sides must be nonempty")
    node_specs = [(i, 0, p1) for i in range(n1)]
    node_specs += [(n1 + j, 1, p2) for j in range(n2)]
    edges = []
    q = {}
    for i in range(n1):
        for j in range(n1, n1 + n2):
            edges.append((i, j))
            q[(i, j)] = q_1_to_2
            q[(j, i)] = q_2_to_1
    return build_network(node_specs, edges, q=q)


# The Python types of a JSON integer and of any JSON number; bool is left
# out, although it subclasses int.
_INTEGER, _NUMBER = {int}, {int, float}
_JSON_TYPES = {"id": (_INTEGER, "an integer"), "type": (_INTEGER, "an integer"),
               "u": (_INTEGER, "an integer"), "v": (_INTEGER, "an integer"),
               "p": (_NUMBER, "a number"), "q_uv": (_NUMBER, "a number"),
               "q_vu": (_NUMBER, "a number")}


def load_json(path: str) -> NetworkModel:
    """Load a network from the JSON schema written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ValueError(f"{path}: missing 'nodes' key")
    if "edges" not in doc:
        raise ValueError(f"{path}: missing 'edges' key")
    try:
        node_specs = [(n["id"], n["type"], n["p"]) for n in doc["nodes"]]
        edge_specs = [(e["u"], e["v"]) for e in doc["edges"]]
        q = {}
        for e in doc["edges"]:
            q[(e["u"], e["v"])] = e.get("q_uv", 0.0)
            q[(e["v"], e["u"])] = e.get("q_vu", 0.0)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path}: malformed entry: {exc}") from exc
    ints = chain(map(itemgetter(0), node_specs), map(itemgetter(1), node_specs),
                 chain.from_iterable(edge_specs))
    numbers = chain(map(itemgetter(2), node_specs), q.values())
    if not (set(map(type, ints)) <= _INTEGER and set(map(type, numbers)) <= _NUMBER):
        _refuse_json_types(path, doc)
    if len(q) < 2 * len(edge_specs):
        # an edge given twice would overwrite the first one's q values
        seen: set[frozenset] = set()
        for u, v in edge_specs:
            if u != v and frozenset((u, v)) in seen:
                raise ValueError(f"{path}: duplicate edge ({u}, {v})")
            seen.add(frozenset((u, v)))
    return build_network(node_specs, edge_specs, q=q)


def _refuse_json_types(path: str, doc: dict) -> None:
    """Raise for the first node or edge field of ``doc`` whose value is not
    of its JSON type."""
    for group, keys in (("nodes", ("id", "type", "p")), ("edges", ("u", "v", "q_uv", "q_vu"))):
        for i, entry in enumerate(doc[group]):
            for key in keys:
                types, kind = _JSON_TYPES[key]
                value = entry.get(key, 0.0)
                if type(value) not in types:
                    raise ValueError(f"{path}: {group}[{i}]: {key!r} must be {kind}, got {value!r}")


def save_json(net: NetworkModel, path: str) -> None:
    """Write the JSON representation; requires dense ids 0..N-1."""
    if net.node_ids != tuple(range(net.n_nodes)):
        raise ValueError("only networks with dense ids 0..N-1 can be saved")
    idx = net.index_of
    doc = {
        "nodes": [
            {"id": v, "type": net.types[idx[v]], "p": net.p[idx[v]]}
            for v in net.node_ids
        ],
        "edges": [
            {"u": u, "v": v, "q_uv": net.q[(u, v)], "q_vu": net.q[(v, u)]}
            for u, v in sorted(net.edges)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
