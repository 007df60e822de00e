"""Typed undirected networks with direct and indirect compromise probabilities.

A network holds N nodes, each with a type index and a probability ``p`` of
being compromised directly (by an attack from outside the network). Each
undirected edge ``{u, v}`` carries two directed probabilities, ``q[(u, v)]``
and ``q[(v, u)]``: the chance that a compromised endpoint compromises the
other one in a single propagation attempt. Pairs without an edge have an
implicit q of zero.

The directed arcs, held as arrays, are the one stored form of the graph.
:func:`build_network` and :func:`load_json` hand their input to one private
function, :func:`_network`, which checks it with numpy and sorts the arcs;
the mapping ``q``, the edge set ``edges`` and the array view ``csr`` are
derived from the arcs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pmf import _write_bytes

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


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Immutable network with typed nodes and compromise probabilities.

    Construct through :func:`build_network` or :func:`load_json` (which
    validate all invariants) rather than directly. ``node_ids`` are unique
    and ascending; built networks use the dense labels ``0..N-1``, while
    induced subnetworks keep the ids of their parent. The graph is stored
    once, as read-only arrays of its directed arcs, one each way on every
    edge and sorted by (target, source): arc e runs from node position
    ``arc_src[e]`` to ``arc_dst[e]`` with attempt probability ``arc_q[e]``.
    ``q``, ``edges``, :meth:`degree` and ``csr`` derive from them. Two
    networks are equal when their node fields and their arcs with q are.
    """

    node_ids: tuple[int, ...]
    types: tuple[int, ...]
    p: tuple[float, ...]
    num_types: int
    arc_src: np.ndarray
    arc_dst: np.ndarray
    arc_q: np.ndarray

    def __post_init__(self) -> None:
        # read-only copies, so the caller's arrays stay writeable and cannot
        # change this network's arcs
        for name in ("arc_src", "arc_dst", "arc_q"):
            arcs = np.array(getattr(self, name))
            arcs.flags.writeable = False
            object.__setattr__(self, name, arcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return (
            (self.node_ids, self.types, self.p, self.num_types)
            == (other.node_ids, other.types, other.p, other.num_types)
            and np.array_equal(self.arc_src, other.arc_src)
            and np.array_equal(self.arc_dst, other.arc_dst)
            and np.array_equal(self.arc_q, other.arc_q)
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @cached_property
    def q(self) -> Mapping[Edge, float]:
        """Ordered pair of node ids -> q, for every arc, in arc order."""
        ids = np.array(self.node_ids)
        pairs = zip(ids[self.arc_src].tolist(), ids[self.arc_dst].tolist())
        return dict(zip(pairs, self.arc_q.tolist()))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The undirected edges, each as its ascending pair of node ids."""
        ids = np.array(self.node_ids)
        up = self.arc_src < self.arc_dst
        return frozenset(zip(ids[self.arc_src[up]].tolist(), ids[self.arc_dst[up]].tolist()))

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
        """The arcs grouped by target, with the node arrays."""
        starts = np.flatnonzero(np.diff(self.arc_dst, prepend=-1))
        return Adjacency(
            src=self.arc_src,
            q=self.arc_q,
            targets=self.arc_dst[starts],
            starts=starts,
            p=np.array(self.p, dtype=float),
            onehot=np.eye(self.num_types)[list(self.types)],
        )

    def degree(self, node: int) -> int:
        return int(np.count_nonzero(self.arc_src == self.index_of[node]))


def _probability(x: float) -> float:
    """``float(x)``, reading an integer too large for a float as an infinity
    of its sign, so that the range check refuses it."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _floats(values: Sequence) -> np.ndarray:
    """``values`` as float64, each read as :func:`_probability` reads it."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.array([_probability(x) for x in values], dtype=float)


def _int64(values: Sequence, what: str) -> np.ndarray:
    """``values`` as int64, refusing a value that is not an integer in that
    range (rather than truncating it)."""
    try:
        ints = np.array(values, dtype=np.int64)
    except OverflowError:
        ints = None
    if ints is None or not (ints == np.array(values, dtype=object)).all():
        raise ValueError(f"{what} must be 64-bit integers")
    return ints


def _first_outside_unit(a: np.ndarray) -> int | None:
    """Position of the first value outside [0, 1] (NaN included), or None."""
    bad = ~((a >= 0.0) & (a <= 1.0))
    return int(bad.argmax()) if bad.any() else None


def _repeats(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the edges that join the same two nodes as an earlier edge
    (repeated self-loops are left to the self-loop check)."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # a stable sort keeps the edges of one pair in input order
    by_pair = np.lexsort((hi, lo))
    first, later = by_pair[:-1], by_pair[1:]
    repeat = np.zeros(u.size, dtype=bool)
    repeat[later] = (lo[later] == lo[first]) & (hi[later] == hi[first]) & (lo[later] != hi[later])
    return repeat


def _network(
    ids: np.ndarray,
    types: np.ndarray,
    p: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    q: np.ndarray,
) -> NetworkModel:
    """Check a network given as arrays and store it as sorted arcs.

    Node i has id ``ids[i]``, type ``types[i]`` and direct probability
    ``p[i]``; edge e joins the nodes with ids ``u[e]`` and ``v[e]`` (no two
    edges join the same nodes), and ``q[2e]`` and ``q[2e + 1]`` are the
    probabilities of its arcs ``u[e] -> v[e]`` and ``v[e] -> u[e]``.

    Each check runs on the input order and names the first offender. In
    turn: at least one node, unique and dense ids ``0..N-1``, non-negative
    types with none empty, p in [0, 1]; no self-loop and no unknown node on
    an edge; q in [0, 1]. NaN is outside [0, 1].
    """
    n = ids.size
    if n == 0:
        raise ValueError("network must have at least one node")
    dense = np.arange(n)
    if not np.array_equal(ids, dense):
        by_id = np.argsort(ids, kind="stable")
        ids, types, p = ids[by_id], types[by_id], p[by_id]
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate node ids")
        if not np.array_equal(ids, dense):
            raise ValueError("node ids must be dense 0..N-1")
    if types.min() < 0:
        raise ValueError("type indices must be non-negative")
    # n nodes fill at most the types 0..n-1, so counting those finds the
    # first empty type
    top = int(types.max())
    sizes = np.bincount(np.minimum(types, n), minlength=n)[: min(top, n - 1) + 1]
    if not sizes.all():
        raise ValueError(f"type {sizes.argmin()} has no nodes")
    i = _first_outside_unit(p)
    if i is not None:
        raise ValueError(f"p for node {i} out of [0, 1]: {p[i]}")

    loop = u == v
    bad = loop | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    if bad.any():
        e = bad.argmax()
        if loop[e]:
            raise ValueError(f"self-loop on node {u[e]}")
        raise ValueError(f"edge ({u[e]}, {v[e]}) references unknown node")

    # every arc, one each way per edge, in input order
    src, dst = np.stack((u, v), axis=1).reshape(-1), np.stack((v, u), axis=1).reshape(-1)
    a = _first_outside_unit(q)
    if a is not None:
        raise ValueError(f"q for ({src[a]}, {dst[a]}) out of [0, 1]: {q[a]}")
    by_arc = np.argsort(dst * n + src)
    return NetworkModel(
        node_ids=tuple(range(n)),
        types=tuple(types.tolist()),
        p=tuple(p.tolist()),
        num_types=top + 1,
        arc_src=src[by_arc],
        arc_dst=dst[by_arc],
        arc_q=q[by_arc],
    )


def build_network(
    node_specs: Iterable[tuple[int, int, float]],
    edge_specs: Iterable[tuple[int, int]],
    q: float | Mapping[Edge, float] | None = None,
) -> NetworkModel:
    """Validate specs and assemble a :class:`NetworkModel`.

    ``node_specs`` are ``(id, type, p)`` triples with dense ids ``0..N-1``.
    ``edge_specs`` are unordered node pairs; a pair given twice is one edge.
    ``q`` is either a single probability applied to every directed pair on
    every edge, or a mapping from ordered pairs to probabilities (missing
    pairs default to 0); pairs off an edge are rejected.
    """
    nodes = list(node_specs)
    edges = list(edge_specs)
    ids = _int64([node[0] for node in nodes], "node ids")
    types = _int64([node[1] for node in nodes], "node types")
    p = _floats([node[2] for node in nodes])
    u, v = _int64(edges, "edge ends").reshape(len(edges), 2).T
    once = ~_repeats(u, v)
    u, v = u[once], v[once]
    if q is None or isinstance(q, (int, float)):
        every = 0.0 if q is None else _probability(q)
        return _network(ids, types, p, u, v, np.full(2 * u.size, every))
    # the nodes and edges are checked first; then each pair of the mapping,
    # in its order, is found among the sorted arcs
    net = _network(ids, types, p, u, v, np.zeros(2 * u.size))
    src, dst = _int64(list(q), "q pairs").reshape(len(q), 2).T
    values = _floats(list(q.values()))
    n = net.n_nodes
    keys, given = net.arc_dst * n + net.arc_src, dst * n + src
    at = keys.searchsorted(given)
    known = (src >= 0) & (src < n) & (dst >= 0) & (dst < n) & (at < keys.size)
    known[known] = keys[at[known]] == given[known]
    if not known.all():
        i, j = src[known.argmin()], dst[known.argmin()]
        raise ValueError(f"q given for ({i}, {j}) but {{{i}, {j}}} is not an edge")
    a = _first_outside_unit(values)
    if a is not None:
        raise ValueError(f"q for ({src[a]}, {dst[a]}) out of [0, 1]: {values[a]}")
    arc_q = np.zeros(keys.size)
    arc_q[at] = values
    return replace(net, arc_q=arc_q)


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
    inside = np.array([v in keep for v in net.node_ids], dtype=bool)
    arcs = inside[net.arc_src] & inside[net.arc_dst]
    # the kept nodes' new positions keep their order, so the arcs stay sorted
    position = np.cumsum(inside) - 1
    kept_ids = tuple(v for v in net.node_ids if v in keep)
    idx = net.index_of
    return NetworkModel(
        node_ids=kept_ids,
        types=tuple(net.types[idx[v]] for v in kept_ids),
        p=tuple(net.p[idx[v]] for v in kept_ids),
        num_types=net.num_types,
        arc_src=position[net.arc_src[arcs]],
        arc_dst=position[net.arc_dst[arcs]],
        arc_q=net.arc_q[arcs],
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
            edges.add((t, s))
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
    ranked = np.argsort(-np.bincount(net.arc_src, minlength=n), kind="stable")
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
    p = tuple(float(p_by_type[t]) for t in net.types)
    q = np.array(q_by_type, dtype=float)[np.array(net.types)[net.arc_src]]
    return replace(net, p=p, arc_q=q)


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
        # one entry at a time, so the first malformed one is named
        node_rows = [(node["id"], node["type"], node["p"]) for node in doc["nodes"]]
        edge_rows = [(edge["u"], edge["v"], edge.get("q_uv", 0.0), edge.get("q_vu", 0.0))
                     for edge in doc["edges"]]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path}: malformed entry: {exc}") from exc
    ids, types, p = zip(*node_rows) if node_rows else ((),) * 3
    u, v, q_uv, q_vu = zip(*edge_rows) if edge_rows else ((),) * 4
    if not (set(map(type, chain(ids, types, u, v))) <= _INTEGER
            and set(map(type, chain(p, q_uv, q_vu))) <= _NUMBER):
        _refuse_json_fields(path, doc)
    try:
        ints = np.array(ids + types + u + v, dtype=np.int64)
    except OverflowError:
        _refuse_json_fields(path, doc)
    n, m = len(ids), len(u)
    ids, types, u, v = np.split(ints, [n, 2 * n, 2 * n + m])
    repeat = _repeats(u, v)
    if repeat.any():
        # a second entry for an edge would replace the first one's q values
        e = repeat.argmax()
        raise ValueError(f"{path}: duplicate edge ({u[e]}, {v[e]})")
    # q of u -> v and of v -> u for each edge in turn
    q = _floats(q_uv + q_vu).reshape(2, m).T.reshape(-1)
    return _network(ids, types, _floats(p), u, v, q)


def _refuse_json_fields(path: str, doc: dict) -> None:
    """Raise for the first node or edge field of ``doc`` whose value is not
    of its JSON type, or is an integer outside the 64-bit range."""
    for group, keys in (("nodes", ("id", "type", "p")), ("edges", ("u", "v", "q_uv", "q_vu"))):
        for i, entry in enumerate(doc[group]):
            for key in keys:
                types, kind = _JSON_TYPES[key]
                value = entry.get(key, 0.0)
                if type(value) not in types:
                    raise ValueError(f"{path}: {group}[{i}]: {key!r} must be {kind}, got {value!r}")
                if types is _INTEGER and not -(1 << 63) <= value < 1 << 63:
                    raise ValueError(f"{path}: {group}[{i}]: {key!r} must fit in 64 bits, "
                                     f"got {value!r}")


def save_json(net: NetworkModel, path: str) -> str:
    """Write the JSON representation; requires dense ids 0..N-1. Returns the
    sha256 digest of the bytes written."""
    if net.node_ids != tuple(range(net.n_nodes)):
        raise ValueError("only networks with dense ids 0..N-1 can be saved")
    # the arcs v -> u with u < v come sorted by (u, v), one per edge in the
    # edge order written; the arcs u -> v are sorted into the same order
    up = net.arc_src < net.arc_dst
    down = ~up
    q_uv = net.arc_q[up][np.lexsort((net.arc_dst[up], net.arc_src[up]))]
    edges = zip(net.arc_dst[down].tolist(), net.arc_src[down].tolist(), q_uv.tolist(),
                net.arc_q[down].tolist())
    doc = {
        "nodes": [{"id": v, "type": t, "p": pv}
                  for v, t, pv in zip(net.node_ids, net.types, net.p)],
        "edges": [{"u": u, "v": v, "q_uv": quv, "q_vu": qvu} for u, v, quv, qvu in edges],
    }
    return _write_bytes(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])
