"""Typed undirected networks with direct and indirect compromise probabilities.

A network holds N nodes, each with a type index and a probability ``p`` of
being compromised directly (by an attack from outside the network). Each
undirected edge ``{u, v}`` carries two directed probabilities, ``q[(u, v)]``
and ``q[(v, u)]``: the chance that a compromised endpoint compromises the
other one in a single propagation attempt. Pairs without an edge have an
implicit q of zero.

The network is stored as read-only arrays: the node ids, types and p, and
the directed arcs, which are the one stored form of the graph. The
library's builders and :func:`load_json` hand arrays straight to one private
function, :func:`_network`, which checks them with numpy and sorts the arcs;
:func:`build_network`, the way in for node and edge specs given by a caller,
converts them to the same arrays. The mapping ``q``, the edge set ``edges``,
the per-target grouping ``arc_starts`` and the type matrix ``type_onehot``
are derived from the arcs and the node fields.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pmf import _write_bytes

__all__ = [
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the array fields of a network and their dtypes
_ARRAYS = {"node_ids": np.int64, "types": np.int64, "p": np.float64,
           "arc_src": np.int64, "arc_dst": np.int64, "arc_q": np.float64}


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
    ``q``, ``edges`` and ``arc_starts`` derive from them.
    The node fields are read-only arrays too: node i has id ``node_ids[i]``,
    type ``types[i]`` and direct probability ``p[i]``. Two networks are equal
    when their ``num_types`` and these six arrays are.
    """

    node_ids: np.ndarray
    types: np.ndarray
    p: np.ndarray
    num_types: int
    arc_src: np.ndarray
    arc_dst: np.ndarray
    arc_q: np.ndarray

    def __post_init__(self) -> None:
        # read-only copies, so the caller's arrays stay writeable and cannot
        # change this network
        for name, dtype in _ARRAYS.items():
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return self.num_types == other.num_types and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS)

    @property
    def n_nodes(self) -> int:
        return self.node_ids.size

    @cached_property
    def q(self) -> Mapping[Edge, float]:
        """Ordered pair of node ids -> q, for every arc, in arc order."""
        pairs = zip(self.node_ids[self.arc_src].tolist(), self.node_ids[self.arc_dst].tolist())
        return dict(zip(pairs, self.arc_q.tolist()))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The undirected edges, each as its ascending pair of node ids."""
        ids = self.node_ids
        up = self.arc_src < self.arc_dst
        return frozenset(zip(ids[self.arc_src[up]].tolist(), ids[self.arc_dst[up]].tolist()))

    @cached_property
    def index_of(self) -> dict[int, int]:
        """Node id -> position in ``node_ids`` (also the bitmask position)."""
        return {v: i for i, v in enumerate(self.node_ids.tolist())}

    @cached_property
    def type_sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.types, minlength=self.num_types).tolist())

    @cached_property
    def arc_starts(self) -> np.ndarray:
        """The arcs grouped by target: the arcs into node
        ``arc_dst[arc_starts[i]]`` run from ``arc_starts[i]`` up to
        ``arc_starts[i + 1]`` (the last ones to the end). Nodes without
        in-arcs have no group."""
        return _read_only(np.flatnonzero(np.diff(self.arc_dst, prepend=-1)))

    @cached_property
    def type_onehot(self) -> np.ndarray:
        """``type_onehot[i, t]`` is 1.0 when node position i has type t,
        else 0.0."""
        return _read_only(np.eye(self.num_types)[self.types])


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
    return NetworkModel(node_ids=dense, types=types, p=p, num_types=top + 1,
                        arc_src=src[by_arc], arc_dst=dst[by_arc], arc_q=q[by_arc])


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
    unknown = keep - net.index_of.keys()
    if unknown:
        raise ValueError(f"unknown node ids: {sorted(unknown)}")
    inside = np.isin(net.node_ids, list(keep))
    arcs = inside[net.arc_src] & inside[net.arc_dst]
    # the kept nodes' new positions keep their order, so the arcs stay sorted
    position = np.cumsum(inside) - 1
    return NetworkModel(node_ids=net.node_ids[inside], types=net.types[inside],
                        p=net.p[inside], num_types=net.num_types,
                        arc_src=position[net.arc_src[arcs]],
                        arc_dst=position[net.arc_dst[arcs]], arc_q=net.arc_q[arcs])


def _seed_edges(n_init: int, topology: str) -> tuple[np.ndarray, np.ndarray]:
    """The seed graph's edges, as the arrays of their two ends."""
    if topology == "complete":
        return np.triu_indices(n_init, 1)
    if topology == "star":
        return np.zeros(n_init - 1, dtype=np.int64), np.arange(1, n_init)
    if topology == "path":
        return np.arange(n_init - 1), np.arange(1, n_init)
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
    seed_u, seed_v = _seed_edges(n_init, seed_topology)
    degree = np.bincount(np.concatenate((seed_u, seed_v)), minlength=n).astype(float)
    # row s - n_init holds the nodes that node s attaches to
    targets = np.empty((n - n_init, m_attach), dtype=np.int64)
    for s, chosen in zip(range(n_init, n), targets):
        for j in range(m_attach):
            w = degree[:s].copy()
            w[chosen[:j]] = 0.0
            total = w.sum()
            if total > 0:
                probs = w / total
            else:
                # all remaining candidates isolated: fall back to uniform
                probs = np.ones(s)
                probs[chosen[:j]] = 0.0
                probs /= probs.sum()
            # the draw Generator.choice(s, p=probs) makes
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            chosen[j] = cdf.searchsorted(rng.random(), side="right")
        degree[chosen] += 1
        degree[s] += m_attach
    u = np.concatenate((seed_u, targets.ravel()))
    v = np.concatenate((seed_v, np.repeat(np.arange(n_init, n), m_attach)))
    return _network(np.arange(n), np.zeros(n, dtype=np.int64), np.zeros(n), u, v,
                    np.zeros(2 * u.size))


def assign_types_by_degree(net: NetworkModel, top_k: int) -> NetworkModel:
    """Mark the ``top_k`` highest-degree nodes as type 0, the rest as type 1.

    Degree ties break toward the smaller node id so the split is reproducible.
    """
    n = net.n_nodes
    if not 0 < top_k < n:
        raise ValueError(f"top_k must be in 1..{n - 1}")
    # a stable sort keeps tied nodes in ascending position, so ascending id
    ranked = np.argsort(-np.bincount(net.arc_src, minlength=n), kind="stable")
    types = np.ones(n, dtype=np.int64)
    types[ranked[:top_k]] = 0
    return replace(net, types=types, num_types=2)


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
    p = np.array(p_by_type, dtype=float)[net.types]
    q = np.array(q_by_type, dtype=float)[net.types[net.arc_src]]
    return replace(net, p=p, arc_q=q)


def complete_network(
    type_sizes: Sequence[int], p: float, q: float
) -> NetworkModel:
    """Complete graph with homogeneous probabilities; types laid out in blocks."""
    if any(size <= 0 for size in type_sizes):
        raise ValueError("type sizes must be positive")
    # operator.index refuses a size that is not an integer; np.repeat would
    # truncate it
    types = np.repeat(np.arange(len(type_sizes)), [operator.index(size) for size in type_sizes])
    n = types.size
    u, v = np.triu_indices(n, 1)
    p, q = _floats([p, q])
    return _network(np.arange(n), types, np.full(n, p), u, v, np.full(2 * u.size, q))


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
    n1, n2 = operator.index(n1), operator.index(n2)
    types = np.repeat([0, 1], [n1, n2])
    # edge e joins node e // n2 of side 1 to node n1 + e % n2 of side 2, and
    # its arc 2e runs from side 1 to side 2
    u, v = np.divmod(np.arange(n1 * n2), n2)
    return _network(np.arange(n1 + n2), types, _floats([p1, p2])[types], u, v + n1,
                    np.tile(_floats([q_1_to_2, q_2_to_1]), n1 * n2))


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
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{path}: {key!r} must be a list")
    try:
        # one entry at a time, so the first malformed one is named
        node_rows = [(node["id"], node["type"], node["p"]) for node in doc["nodes"]]
        edge_rows = [(edge["u"], edge["v"], edge.get("q_uv", 0.0), edge.get("q_vu", 0.0))
                     for edge in doc["edges"]]
    except KeyError as exc:
        raise ValueError(f"{path}: malformed entry: {exc}") from exc
    except TypeError as exc:
        # only an entry that is not an object raises it, and the entries
        # before the one that did were objects
        group, i, entry = next((group, i, entry) for group in ("nodes", "edges")
                               for i, entry in enumerate(doc[group]) if type(entry) is not dict)
        raise ValueError(f"{path}: {group}[{i}]: expected an object, got {entry!r}") from exc
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
    if not np.array_equal(net.node_ids, np.arange(net.n_nodes)):
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
                  for v, t, pv in zip(net.node_ids.tolist(), net.types.tolist(),
                                      net.p.tolist())],
        "edges": [{"u": u, "v": v, "q_uv": quv, "q_vu": qvu} for u, v, quv, qvu in edges],
    }
    return _write_bytes(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])
