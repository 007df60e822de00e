import json
from itertools import combinations

import numpy as np
import pytest

from hoprisk import (
    assign_types_by_degree,
    build_network,
    complete_network,
    generate_ba,
    induced_subnetwork,
    load_json,
    save_json,
    star_network,
    with_type_probabilities,
)


def test_build_k5_two_types():
    nodes = [(0, 0, 0.2), (1, 0, 0.2), (2, 1, 0.2), (3, 1, 0.2), (4, 1, 0.2)]
    net = build_network(nodes, combinations(range(5), 2), q=0.1)
    assert net.n_nodes == 5
    assert net.num_types == 2
    assert net.type_sizes == (2, 3)
    assert len(net.edges) == 10
    assert net.q[(0, 3)] == 0.1 and net.q[(3, 0)] == 0.1


def test_build_single_node():
    net = build_network([(0, 0, 0.3)], [])
    assert net.n_nodes == 1 and net.num_types == 1
    assert net.edges == frozenset()


def test_q_on_non_edge_rejected():
    nodes = [(i, 0, 0.1) for i in range(5)]
    edges = [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match="not an edge"):
        build_network(nodes, edges, q={(1, 4): 0.3})


def test_build_errors():
    with pytest.raises(ValueError, match="duplicate"):
        build_network([(0, 0, 0.1), (0, 0, 0.2)], [])
    with pytest.raises(ValueError, match="out of"):
        build_network([(0, 0, 1.3)], [])
    with pytest.raises(ValueError, match="no nodes"):
        build_network([(0, 0, 0.1), (1, 2, 0.1)], [])
    with pytest.raises(ValueError, match="dense"):
        build_network([(0, 0, 0.1), (2, 0, 0.1)], [])
    with pytest.raises(ValueError, match="self-loop"):
        build_network([(0, 0, 0.1), (1, 0, 0.1)], [(1, 1)])
    with pytest.raises(ValueError, match="out of"):
        build_network([(0, 0, 0.1), (1, 0, 0.1)], [(0, 1)], q=1.5)


def test_induced_subnetwork_of_complete():
    net = complete_network([2, 3], 0.2, 0.1)
    sub = induced_subnetwork(net, {3, 4, 2})
    assert sub.node_ids == (2, 3, 4)
    assert sub.edges == frozenset({(2, 3), (2, 4), (3, 4)})
    assert sub.p == (0.2, 0.2, 0.2)
    assert sub.q[(4, 2)] == 0.1
    # type 0 got emptied but the layout is preserved
    assert sub.num_types == 2
    assert sub.type_sizes == (0, 3)


def test_induced_subnetwork_identity_and_monotonicity():
    net = complete_network([2, 3], 0.2, 0.1)
    assert induced_subnetwork(net, net.node_ids) == net
    sub_small = induced_subnetwork(net, {0, 1})
    sub_big = induced_subnetwork(net, {0, 1, 2})
    assert sub_small.edges <= sub_big.edges


def test_induced_subnetwork_star_leaves():
    net = star_network(4, 0.1, 0.2, 0.3, 0.4)
    sub = induced_subnetwork(net, {1, 2, 3})
    assert sub.edges == frozenset()


def test_induced_subnetwork_with_sparse_ids_derives_edges_degree_and_csr_from_q():
    net = assign_types_by_degree(generate_ba(40, 2, 3, rng_seed=5), 8)
    net = with_type_probabilities(net, [0.1, 0.2], [0.3, 0.4])
    keep = set(range(3, 40, 3))
    sub = induced_subnetwork(net, keep)
    assert sub.node_ids == tuple(sorted(keep))
    arcs = {(u, v) for u, v in net.q if u in keep and v in keep}
    assert sub.q == {arc: net.q[arc] for arc in arcs}
    assert sub.edges == frozenset((min(arc), max(arc)) for arc in arcs)
    for v in sub.node_ids:
        assert sub.degree(v) == sum(v in edge for edge in sub.edges)
    csr = sub.csr
    dst = np.repeat(csr.targets, np.diff(np.append(csr.starts, len(csr.src))))
    assert list(zip(dst, csr.src)) == sorted(zip(dst, csr.src))
    ids = sub.node_ids
    assert {(ids[s], ids[t]): q for s, t, q in zip(csr.src, dst, csr.q)} == sub.q


def test_induced_subnetwork_unknown_id():
    net = complete_network([2], 0.2, 0.1)
    with pytest.raises(ValueError, match="unknown"):
        induced_subnetwork(net, {0, 7})


def test_generate_ba_edge_count():
    net = generate_ba(200, 2, 5, rng_seed=0)
    # complete 5-node seed contributes 10 edges, then 2 per new node
    assert net.n_nodes == 200
    assert len(net.edges) == 10 + 2 * 195
    assert sum(net.degree(v) for v in net.node_ids) == 2 * len(net.edges)


def test_generate_ba_seed_only():
    net = generate_ba(5, 2, 5, rng_seed=3)
    assert len(net.edges) == 10


def test_generate_ba_deterministic():
    a = generate_ba(60, 2, 5, rng_seed=42)
    b = generate_ba(60, 2, 5, rng_seed=42)
    assert a == b
    c = generate_ba(60, 2, 5, rng_seed=43)
    assert a != c


def test_generate_ba_connected():
    net = generate_ba(80, 1, 3, rng_seed=7)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in {b if a == v else a for a, b in net.edges if v in (a, b)}:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert len(seen) == net.n_nodes


def test_generate_ba_parameter_validation():
    with pytest.raises(ValueError):
        generate_ba(10, 0, 5, rng_seed=0)
    with pytest.raises(ValueError):
        generate_ba(10, 3, 2, rng_seed=0)
    with pytest.raises(ValueError):
        generate_ba(4, 2, 5, rng_seed=0)


def test_assign_types_by_degree_ba200():
    net = assign_types_by_degree(generate_ba(200, 2, 5, rng_seed=1), 20)
    assert net.type_sizes == (20, 180)
    top_degrees = sorted((net.degree(v) for v in net.node_ids), reverse=True)[:20]
    typed_degrees = sorted(
        (net.degree(v) for v in net.node_ids if net.types[net.index_of[v]] == 0),
        reverse=True,
    )
    assert typed_degrees == top_degrees


def test_assign_types_path_and_ties():
    path = build_network([(i, 0, 0.0) for i in range(3)], [(0, 1), (1, 2)])
    typed = assign_types_by_degree(path, 1)
    assert typed.types == (1, 0, 1)

    cycle = build_network([(i, 0, 0.0) for i in range(4)],
                          [(0, 1), (1, 2), (2, 3), (3, 0)])
    typed = assign_types_by_degree(cycle, 2)
    assert typed.types == (0, 0, 1, 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_assign_types_by_degree_matches_a_sort_by_degree_then_id(m):
    # BA graphs with m = 1..3 have many nodes of equal degree
    for seed in range(8):
        net = generate_ba(60, m, m + 1, rng_seed=seed)
        degree = dict.fromkeys(net.node_ids, 0)
        for u, v in net.edges:
            degree[u] += 1
            degree[v] += 1
        expected = set(sorted(net.node_ids, key=lambda v: (-degree[v], v))[:10])
        typed = assign_types_by_degree(net, 10)
        assert {v for v, t in zip(typed.node_ids, typed.types) if t == 0} == expected


def test_assign_types_range_check():
    net = complete_network([3], 0.1, 0.1)
    for bad in (0, 3, 5):
        with pytest.raises(ValueError):
            assign_types_by_degree(net, bad)


def test_with_type_probabilities_source_keyed():
    net = assign_types_by_degree(generate_ba(30, 2, 5, rng_seed=2), 5)
    net = with_type_probabilities(net, [0.05, 0.15], [0.2, 0.3])
    idx = net.index_of
    for (u, v), quv in net.q.items():
        assert quv == (0.2, 0.3)[net.types[idx[u]]]
    for v in net.node_ids:
        assert net.p[idx[v]] == (0.05, 0.15)[net.types[idx[v]]]
    with pytest.raises(ValueError):
        with_type_probabilities(net, [0.1], [0.2, 0.3])


def test_json_round_trip(tmp_path, example_net):
    path = tmp_path / "k5.json"
    save_json(example_net, str(path))
    assert load_json(str(path)) == example_net


def test_json_missing_nodes_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"edges": []}')
    with pytest.raises(ValueError, match="nodes"):
        load_json(str(path))


def test_json_invalid_probability(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [{"id": 0, "type": 0, "p": 1.3}], "edges": []}')
    with pytest.raises(ValueError, match="out of"):
        load_json(str(path))


def test_json_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ValueError, match="JSON"):
        load_json(str(path))


def test_json_nested_too_deeply_names_the_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value).startswith(f"{path}: not valid JSON: ")


@pytest.mark.parametrize("group, key, sign, message", [
    ("nodes", "p", 1, "p for node 1 out of [0, 1]: inf"),
    ("nodes", "p", -1, "p for node 1 out of [0, 1]: -inf"),
    ("edges", "q_uv", 1, "q for (0, 1) out of [0, 1]: inf"),
    ("edges", "q_vu", -1, "q for (1, 0) out of [0, 1]: -inf"),
])
def test_json_integers_too_large_for_a_float_are_out_of_range(tmp_path, group, key, sign,
                                                               message):
    doc = {"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 1, "p": 0.2}],
           "edges": [{"u": 0, "v": 1, "q_uv": 0.3, "q_vu": 0.4}]}
    doc[group][-1][key] = sign * 10**400
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == message


def test_save_rejects_sparse_ids(tmp_path, example_net):
    sub = induced_subnetwork(example_net, {2, 3, 4})
    with pytest.raises(ValueError, match="dense"):
        save_json(sub, str(tmp_path / "sub.json"))


def test_build_save_load_build_identical(tmp_path):
    rng = np.random.default_rng(1)
    nodes = [(i, int(i % 2), float(rng.random())) for i in range(6)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    q = {}
    for u, v in edges:
        q[(u, v)] = float(rng.random())
        q[(v, u)] = float(rng.random())
    net = build_network(nodes, edges, q=q)
    path = tmp_path / "net.json"
    save_json(net, str(path))
    assert load_json(str(path)) == net


@pytest.mark.parametrize("second", ['{"u": 1, "v": 0, "q_uv": 0.9, "q_vu": 0.8}',
                                    '{"u": 0, "v": 1, "q_uv": 0.1, "q_vu": 0.2}'])
def test_json_rejects_duplicate_edges(tmp_path, second):
    path = tmp_path / "dup.json"
    path.write_text('{"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 0, "p": 0.1}],'
                    ' "edges": [{"u": 0, "v": 1, "q_uv": 0.1, "q_vu": 0.2}, ' + second + "]}")
    pair = "(1, 0)" if '"u": 1' in second else "(0, 1)"
    with pytest.raises(ValueError, match="duplicate edge") as err:
        load_json(str(path))
    assert str(err.value) == f"{path}: duplicate edge {pair}"
    # in memory, a repeated pair is still one edge
    net = build_network([(0, 0, 0.1), (1, 0, 0.1)], [(0, 1), (1, 0)])
    assert net.edges == frozenset({(0, 1)})


def test_json_self_loop_is_not_a_duplicate(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text('{"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 0, "p": 0.1}],'
                    ' "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 1}]}')
    with pytest.raises(ValueError, match="self-loop on node 1"):
        load_json(str(path))


def test_range_errors_name_the_first_offending_node_or_pair():
    nodes = [(0, 0, 0.5), (1, 0, 1.5), (2, 0, -1.0)]
    with pytest.raises(ValueError, match=r"^p for node 1 out of \[0, 1\]: 1.5$"):
        build_network(nodes, [])
    with pytest.raises(ValueError, match=r"^p for node 0 out of \[0, 1\]: nan$"):
        build_network([(0, 0, float("nan"))], [])
    nodes = [(i, 0, 0.5) for i in range(3)]
    q = {(0, 1): 0.5, (2, 1): 2.0, (1, 0): -0.5}
    with pytest.raises(ValueError, match=r"^q for \(2, 1\) out of \[0, 1\]: 2.0$"):
        build_network(nodes, [(0, 1), (1, 2)], q=q)
    q = {(0, 1): 0.5, (0, 2): 0.3, (2, 0): 0.1}
    with pytest.raises(ValueError, match=r"^q given for \(0, 2\) but \{0, 2\} is not an edge$"):
        build_network(nodes, [(0, 1), (1, 2)], q=q)


@pytest.mark.parametrize(
    "where, key, value, kind",
    [
        ("nodes[1]", "id", "1.0", "an integer"),
        ("nodes[1]", "type", "1.7", "an integer"),
        ("nodes[1]", "type", "true", "an integer"),
        ("nodes[1]", "p", "true", "a number"),
        ("nodes[1]", "p", '"0.5"', "a number"),
        ("edges[0]", "u", "false", "an integer"),
        ("edges[0]", "v", '"1"', "an integer"),
        ("edges[0]", "q_uv", '"0.3"', "a number"),
        ("edges[0]", "q_vu", "false", "a number"),
        ("edges[0]", "q_vu", "null", "a number"),
    ],
)
def test_json_fields_must_have_their_json_types(tmp_path, where, key, value, kind):
    doc = {"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 1, "p": 0.2}],
           "edges": [{"u": 0, "v": 1, "q_uv": 0.3, "q_vu": 0.4}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert load_json(str(path)).types == (0, 1)
    group, i = where[:-3], int(where[-2])
    doc[group][i][key] = json.loads(value)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == f"{path}: {where}: {key!r} must be {kind}, got {json.loads(value)!r}"
    # in memory, numbers are converted as before
    assert build_network([(0, 0, True), (1, 1, "0.5")], [(0, 1)], q=0.3).p == (1.0, 0.5)
