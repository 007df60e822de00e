import hashlib
import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoprisk import (
    assign_types_by_degree,
    build_network,
    complete_bipartite_network,
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
    assert sub.node_ids.tolist() == [2, 3, 4]
    assert sub.edges == frozenset({(2, 3), (2, 4), (3, 4)})
    assert sub.p.tolist() == [0.2, 0.2, 0.2]
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


def test_induced_subnetwork_with_sparse_ids_derives_q_edges_degree_and_arc_starts():
    net = assign_types_by_degree(generate_ba(40, 2, 3, rng_seed=5), 8)
    net = with_type_probabilities(net, [0.1, 0.2], [0.3, 0.4])
    keep = set(range(3, 40, 3))
    sub = induced_subnetwork(net, keep)
    assert sub.node_ids.tolist() == sorted(keep)
    arcs = {(u, v) for u, v in net.q if u in keep and v in keep}
    assert sub.q == {arc: net.q[arc] for arc in arcs}
    assert sub.edges == frozenset((min(arc), max(arc)) for arc in arcs)
    degrees = np.bincount(sub.arc_src, minlength=sub.n_nodes)
    for v, degree in zip(sub.node_ids, degrees):
        assert degree == sum(v in edge for edge in sub.edges)
    starts = sub.arc_starts
    targets = sub.arc_dst[starts]
    dst = np.repeat(targets, np.diff(np.append(starts, len(sub.arc_src))))
    assert dst.tolist() == sub.arc_dst.tolist()
    assert targets.tolist() == sorted(set(targets.tolist()))
    assert list(zip(dst, sub.arc_src)) == sorted(zip(dst, sub.arc_src))
    ids = sub.node_ids
    assert {(ids[s], ids[t]): q for s, t, q in zip(sub.arc_src, dst, sub.arc_q)} == sub.q


def test_induced_subnetwork_unknown_id():
    net = complete_network([2], 0.2, 0.1)
    with pytest.raises(ValueError, match="unknown"):
        induced_subnetwork(net, {0, 7})


def test_generate_ba_edge_count():
    net = generate_ba(200, 2, 5, rng_seed=0)
    # complete 5-node seed contributes 10 edges, then 2 per new node
    assert net.n_nodes == 200
    assert len(net.edges) == 10 + 2 * 195
    assert np.bincount(net.arc_src, minlength=net.n_nodes).sum() == 2 * len(net.edges)


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
    degrees = np.bincount(net.arc_src, minlength=net.n_nodes)
    top_degrees = sorted(degrees.tolist(), reverse=True)[:20]
    typed_degrees = sorted(degrees[net.types == 0].tolist(), reverse=True)
    assert typed_degrees == top_degrees


def test_assign_types_path_and_ties():
    path = build_network([(i, 0, 0.0) for i in range(3)], [(0, 1), (1, 2)])
    typed = assign_types_by_degree(path, 1)
    assert typed.types.tolist() == [1, 0, 1]

    cycle = build_network([(i, 0, 0.0) for i in range(4)],
                          [(0, 1), (1, 2), (2, 3), (3, 0)])
    typed = assign_types_by_degree(cycle, 2)
    assert typed.types.tolist() == [0, 0, 1, 1]


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


@pytest.mark.parametrize("nodes, edges, missing", [
    ('[{"id": 0, "type": 0}, {"type": 0, "p": 0.1}]', "[]", "'p'"),
    ('[{"id": 0, "type": 0, "p": 0.1}]', '[{"u": 0}, {"v": 0}]', "'v'"),
    ('[{"id": 0, "p": 0.1}]', '[{"v": 0}]', "'type'"),
])
def test_json_malformed_entry_names_the_first_missing_key(tmp_path, nodes, edges, missing):
    path = tmp_path / "malformed.json"
    path.write_text(f'{{"nodes": {nodes}, "edges": {edges}}}')
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == f"{path}: malformed entry: {missing}"


@pytest.mark.parametrize("nodes, edges, key", [
    ('[{"id": 0, "type": 0, "p": 0.1}]', "{}", "edges"),
    ('[{"id": 0, "type": 0, "p": 0.1}]', '"uv"', "edges"),
    ('[{"id": 0, "type": 0, "p": 0.1}]', "null", "edges"),
    ("{}", "[]", "nodes"),
    ('"abc"', "[]", "nodes"),
])
def test_json_nodes_and_edges_must_be_lists(tmp_path, nodes, edges, key):
    # an object would be read as its keys and a string as its characters
    path = tmp_path / "not_a_list.json"
    path.write_text(f'{{"nodes": {nodes}, "edges": {edges}}}')
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == f"{path}: '{key}' must be a list"


def test_network_keeps_copies_of_the_arc_arrays(example_net):
    q = example_net.arc_q * 0.5
    halved = replace(example_net, arc_q=q)
    q[:] = 1.0
    assert halved.arc_q.tolist() == (example_net.arc_q * 0.5).tolist()
    assert not halved.arc_q.flags.writeable
    # the arrays derived from a network are read-only too
    assert not (halved.arc_starts.flags.writeable or halved.type_onehot.flags.writeable)


def test_network_keeps_read_only_copies_of_the_node_arrays(example_net):
    types, p = np.array(example_net.types), example_net.p * 0.5
    changed = replace(example_net, types=types, p=p)
    types[:], p[:] = -1, -1.0
    assert changed.types.tolist() == example_net.types.tolist()
    assert changed.p.tolist() == (example_net.p * 0.5).tolist()
    assert (changed.node_ids.dtype, changed.types.dtype, changed.p.dtype) == (
        np.int64, np.int64, np.float64)
    for name in ("node_ids", "types", "p", "arc_src", "arc_dst", "arc_q"):
        assert not getattr(changed, name).flags.writeable, name
    assert replace(example_net, p=list(example_net.p)) == example_net


@pytest.mark.parametrize("args, typed, digest", [
    ((200, 2, 5, 1), True, "d19455e7c3241d620ad8f9f6f84a87ae602d56eef3860009f02228e8af3da1d8"),
    ((300, 3, 3, 7, "star"), False,
     "f7df0cf37409f17db50867dc450036fdc7b58b1586f71ed800e9dac7b9638936"),
    ((120, 1, 1, 3, "path"), False,
     "12d7affe5dacdf6f6ef55617eec898f914b086585b007985e178eabf465c1137"),
    ((60, 2, 5, 42), False, "c4e38f8806eca0924bb1f27b9d75f61378080c52b43b9e5eb9c7f97179d7b2e5"),
    ((2000, 2, 5, 1), False, "5608f9daa71dad715fb49d95f728d84266b4eb43a6cea0e2de9308c1cb6a11fc"),
])
def test_the_seed_to_network_mapping_and_json_bytes_are_pinned(tmp_path, args, typed, digest):
    net = generate_ba(*args)
    if typed:
        net = with_type_probabilities(assign_types_by_degree(net, 20), [0.05, 0.15], [0.2, 0.3])
    path = tmp_path / "net.json"
    assert save_json(net, str(path)) == "sha256:" + digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("build, args, digest", [
    (complete_network, ([2, 3], 0.2, 0.1),
     "343b1abd515c399b38193da60b97b6e9948c89f3956e8e5dd89b3adb4da8267b"),
    (complete_network, ([20, 180], 0.05, 0.01),
     "1b06c30172c83c2c9fc2b4a800bbde6cea9adb8e59039083d6a4a4557ad0b7bd"),
    (complete_bipartite_network, (20, 180, 0.05, 0.15, 0.2, 0.3),
     "3523e9d81f4dec55d3851c6af52eeb322edcd8eb40b347cc5fd7b611478d097e"),
    (star_network, (50, 0.05, 0.15, 0.2, 0.3),
     "f21864c75cceaef6d4208568828ba8fab7ea12b73e42ecdbf7293e13abee446e"),
])
def test_the_paper_topologies_json_bytes_are_pinned(tmp_path, build, args, digest):
    assert save_json(build(*args), str(tmp_path / "net.json")) == "sha256:" + digest


@pytest.mark.parametrize("build, args, message", [
    (complete_network, ([], 0.1, 0.1), "network must have at least one node"),
    (complete_network, ([2, 0], 0.1, 0.1), "type sizes must be positive"),
    (complete_network, ([2, 3], 1.5, 0.1), "p for node 0 out of [0, 1]: 1.5"),
    (complete_network, ([2, 3], 0.1, -1), "q for (0, 1) out of [0, 1]: -1.0"),
    (complete_network, ([2, 3], None, 0.1), "p for node 0 out of [0, 1]: nan"),
    (complete_bipartite_network, (2, 3, 0.1, 2, 0.1, 0.1), "p for node 2 out of [0, 1]: 2.0"),
    (complete_bipartite_network, (2, 3, 0.1, 0.1, 0.1, 2), "q for (2, 0) out of [0, 1]: 2.0"),
    (star_network, (3, 0.1, 0.1, 0.1, float("nan")), "q for (1, 0) out of [0, 1]: nan"),
    (generate_ba, (10, 2, 3, 0, "ring"), "unknown seed topology: 'ring'"),
])
def test_builders_refuse_bad_arguments_naming_the_first_offender(build, args, message):
    with pytest.raises(ValueError) as exc:
        build(*args)
    assert str(exc.value) == message


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
    assert load_json(str(path)).types.tolist() == [0, 1]
    group, i = where[:-3], int(where[-2])
    doc[group][i][key] = json.loads(value)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == f"{path}: {where}: {key!r} must be {kind}, got {json.loads(value)!r}"
    # in memory, numbers are converted as before
    assert build_network([(0, 0, True), (1, 1, "0.5")], [(0, 1)], q=0.3).p.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("where, key", [("nodes[1]", "id"), ("nodes[1]", "type"),
                                        ("edges[0]", "u"), ("edges[0]", "v")])
@pytest.mark.parametrize("sign", [1, -1])
def test_json_integers_outside_64_bits_are_refused_naming_the_file(tmp_path, where, key, sign):
    doc = {"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 1, "p": 0.2}],
           "edges": [{"u": 0, "v": 1, "q_uv": 0.3, "q_vu": 0.4}]}
    group, i = where[:-3], int(where[-2])
    doc[group][i][key] = sign * 10**30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == f"{path}: {where}: {key!r} must fit in 64 bits, got {sign * 10**30}"


def test_json_edge_to_a_negative_id_names_the_unknown_node(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text('{"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 0, "p": 0.1}],'
                    ' "edges": [{"u": 0, "v": 1}, {"u": 1, "v": -3}]}')
    with pytest.raises(ValueError) as err:
        load_json(str(path))
    assert str(err.value) == "edge (1, -3) references unknown node"


def test_save_json_reproduces_a_generated_ba200_file_byte_for_byte(tmp_path):
    net = assign_types_by_degree(generate_ba(200, 2, 5, rng_seed=1), 20)
    net = with_type_probabilities(net, [0.05, 0.15], [0.2, 0.3])
    first, again = tmp_path / "ba200.json", tmp_path / "again.json"
    digest = save_json(net, str(first))
    assert save_json(load_json(str(first)), str(again)) == digest
    assert again.read_bytes() == first.read_bytes()
    assert digest == "sha256:" + hashlib.sha256(first.read_bytes()).hexdigest()


@st.composite
def network_specs(draw):
    """Node specs in a drawn order, edges in a drawn order and orientation,
    and a q for each arc."""
    n = draw(st.integers(1, 12))
    raw = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    types = [sorted(set(raw)).index(t) for t in raw]
    probs = st.floats(0.0, 1.0)
    nodes = draw(st.permutations([(i, types[i], draw(probs)) for i in range(n)]))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    q = {}
    for u, v in edges:
        q[(u, v)], q[(v, u)] = draw(probs), draw(probs)
    return nodes, edges, q


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(specs=network_specs())
def test_built_and_loaded_networks_store_the_arcs_of_their_specs(tmp_path_factory, specs):
    nodes, edges, q = specs
    net = build_network(nodes, edges, q=q)
    path = tmp_path_factory.mktemp("net") / "net.json"
    path.write_text(json.dumps({
        "nodes": [{"id": v, "type": t, "p": p} for v, t, p in nodes],
        "edges": [{"u": u, "v": v, "q_uv": q[(u, v)], "q_vu": q[(v, u)]} for u, v in edges]}))
    loaded = load_json(str(path))
    assert loaded == net
    assert net.q == q and loaded.q == q
    assert net.edges == loaded.edges == frozenset((min(e), max(e)) for e in edges)
    by_id = sorted(nodes)
    arcs = sorted(q, key=lambda arc: (arc[1], arc[0]))
    for model in (net, loaded):
        targets = model.arc_dst[model.arc_starts]
        dst = np.repeat(targets, np.diff(np.append(model.arc_starts, len(model.arc_src))))
        assert dst.tolist() == model.arc_dst.tolist()
        assert list(zip(model.arc_src.tolist(), dst.tolist())) == arcs
        assert targets.tolist() == sorted({t for _, t in arcs})
        assert model.arc_q.tolist() == [q[arc] for arc in arcs]
        assert list(model.p) == [p for _, _, p in by_id]
        onehot = np.eye(net.num_types)[[t for _, t, _ in by_id]]
        assert model.type_onehot.tolist() == onehot.tolist()
    resaved = tmp_path_factory.mktemp("net") / "resaved.json"
    save_json(net, str(resaved))
    assert load_json(str(resaved)) == net
