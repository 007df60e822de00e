import gc
import tracemalloc
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hoprisk.exact as exact_engine
from hoprisk import (
    CompleteHomogParams,
    ExactEngineCapError,
    TwoClassParams,
    assign_types_by_degree,
    bipartite_pmf,
    build_network,
    complete_homog_pmf,
    complete_network,
    event_prob,
    generate_ba,
    induced_subnetwork,
    joint_pmf,
    one_hop_prob,
    r_prob,
    save_json,
    with_type_probabilities,
)
from hoprisk.cli import _parser, main
from hoprisk.stats import check_orthant_monotone, correlations

from oracle import brute_force_joint_pmf, brute_force_set_probs, random_network
from tables import TABLE_GRIDS


def test_one_hop_single_attempt():
    net = build_network([(0, 0, 0.0), (1, 0, 0.0)], [(0, 1)], q=0.5)
    assert one_hop_prob(net, {0, 1}, {0, 1}, {0}) == 0.5


def test_one_hop_target_equals_sources():
    # no node to hit indirectly: only the misses on the outside count
    net = complete_network([3], 0.2, 0.0)
    assert one_hop_prob(net, {0, 1, 2}, {0, 1}, {0, 1}) == 1.0
    net2 = complete_network([3], 0.2, 0.4)
    # two sources each have one outside neighbor to miss
    assert one_hop_prob(net2, {0, 1, 2}, {0, 1}, {0, 1}) == pytest.approx(0.6**2)


def test_one_hop_k5_self_set(example_net):
    assert one_hop_prob(example_net, range(5), {0}, {0}) == pytest.approx(0.9**4)


def test_one_hop_empty_sources_cannot_spread():
    net = complete_network([2], 0.2, 0.7)
    assert one_hop_prob(net, {0, 1}, {0}, set()) == 0.0
    assert one_hop_prob(net, {0, 1}, set(), set()) == 1.0


def test_one_hop_containment_validation(example_net):
    with pytest.raises(ValueError):
        one_hop_prob(example_net, {0, 1}, {0, 2}, {0})
    with pytest.raises(ValueError):
        one_hop_prob(example_net, {0, 1}, {0}, {1})


def test_r_prob_k5_values(example_net):
    assert r_prob(example_net, range(5), {0}, {0}, 2) == pytest.approx(0.9**4)
    assert r_prob(example_net, range(5), {0, 1}, {0}, 2) == pytest.approx(0.1 * 0.9**6)
    assert r_prob(example_net, range(5), {0, 1}, {0, 1}, 2) == pytest.approx(0.9**6)


def test_r_prob_empty_sets(example_net):
    for depth in (1, 2, 5):
        assert r_prob(example_net, range(5), set(), set(), depth) == 1.0


def test_r_prob_depth_validation(example_net):
    with pytest.raises(ValueError):
        r_prob(example_net, range(5), {0}, {0}, 0)


def test_event_prob_empty_target(example_net):
    assert event_prob(example_net, set(), 2) == pytest.approx(0.8**5)


def test_event_prob_p_zero():
    net = complete_network([3], 0.0, 0.5)
    assert event_prob(net, {0}, 3) == 0.0
    assert event_prob(net, set(), 3) == 1.0


def test_event_prob_forced_path():
    # only the head can fall directly; q=1 then drags the whole path along
    net = build_network(
        [(0, 0, 0.5), (1, 0, 0.0), (2, 0, 0.0)], [(0, 1), (1, 2)], q=1.0
    )
    assert event_prob(net, {0, 1, 2}, 2) == pytest.approx(0.5)
    assert event_prob(net, {0, 1}, 2) == 0.0


def _nodes(net, mask):
    return {v for i, v in enumerate(net.node_ids) if mask >> i & 1}


def test_event_prob_matches_oracle_for_every_set():
    rng = np.random.default_rng(31)
    for _ in range(12):
        net = random_network(rng)
        depth = int(rng.integers(0, 4))
        want = brute_force_set_probs(net, depth)
        for mask in range(1 << net.n_nodes):
            assert abs(event_prob(net, _nodes(net, mask), depth) - want[mask]) < 1e-12


def test_r_prob_on_proper_subsets_matches_subnetwork_and_oracle():
    rng = np.random.default_rng(32)
    for _ in range(25):
        net = random_network(rng, max_nodes=6, max_edges=9)
        active = _nodes(net, int(rng.integers(0, (1 << net.n_nodes) - 1)))
        sub = induced_subnetwork(net, active)
        source_mask = int(rng.integers(0, 1 << sub.n_nodes))
        target_mask = source_mask | int(rng.integers(0, 1 << sub.n_nodes))
        target, sources = _nodes(sub, target_mask), _nodes(sub, source_mask)
        depth = int(rng.integers(1, 4))
        got = r_prob(net, active, target, sources, depth)
        assert got == r_prob(sub, active, target, sources, depth)
        assert one_hop_prob(net, active, target, sources) == r_prob(sub, active, target, sources, 1)
        # exactly ``sources`` compromised directly: p is their indicator
        forced = replace(sub, p=tuple(float(v in sources) for v in sub.node_ids))
        assert abs(got - brute_force_set_probs(forced, depth)[target_mask]) < 1e-12


def test_joint_pmf_reproduces_reference_grids(example_net):
    for depth, grid in TABLE_GRIDS.items():
        pmf = joint_pmf(example_net, depth)
        assert_allclose(pmf.probs, grid, atol=5e-5)
    pmf4 = joint_pmf(example_net, 4)
    assert pmf4.marginal(1)[3] == pytest.approx(0.0565, abs=5e-5)


def _typed_ba(n, seed):
    """The network ``hoprisk generate ba --nodes n --attach 2 --init 3
    --top-k 3 --p 0.05,0.15 --q 0.2,0.3 --seed seed`` writes."""
    net = assign_types_by_degree(generate_ba(n, 2, 3, seed), 3)
    return with_type_probabilities(net, [0.05, 0.15], [0.2, 0.3])


@pytest.mark.parametrize("build, depth, digest", [
    (lambda: _typed_ba(7, 9), 1, "5a33672f30c6c82405661b14e53a5640377c0e1f223817084811d9eb22b4f352"),
    (lambda: _typed_ba(7, 9), 2, "4f70c3a3d63e5ef7f79d1ab7fe795a6ac7ac3fa045554b43aa6954a0e29a53d4"),
    (lambda: _typed_ba(7, 9), 3, "7a95aba6b075495bc014c10130a80e1c5ba6c0c9fcb178311fca883f6e9a98be"),
    (lambda: complete_network([2, 3], 0.2, 0.1), 4,
     "5997e1a623acd70be86512ebb4a73723a038a1201ede0d59080862c5a3683478"),
    (lambda: _typed_ba(12, 4), 2, "ebbc9f371bf08248150c7dc8d702a6ccddeb3b6535f54d37a49ebee33b6300ee"),
    # 13 nodes: the factors of some chunks are computed in each round
    (lambda: _typed_ba(13, 5), 2, "9f7a42937201602b1753c1bf5ea91eafb80dfeda0f5ef75ff8b5d441d7069261"),
])
def test_joint_pmf_csv_bytes_are_pinned(tmp_path, build, depth, digest):
    assert joint_pmf(build(), depth).to_csv(str(tmp_path / "pmf.csv")) == "sha256:" + digest


def test_joint_pmf_no_propagation_is_binomial_product():
    net = complete_network([2, 3], 0.3, 0.0)
    pmf = joint_pmf(net, 4)
    from math import comb

    for (x1, x2), prob in np.ndenumerate(pmf.probs):
        expected = (
            comb(2, x1) * 0.3**x1 * 0.7 ** (2 - x1)
            * comb(3, x2) * 0.3**x2 * 0.7 ** (3 - x2)
        )
        assert prob == pytest.approx(expected, abs=1e-12)


def test_joint_pmf_depth_zero_is_direct_only():
    net = complete_network([2, 2], 0.4, 0.9)
    pmf = joint_pmf(net, 0)
    from math import comb

    for (x1, x2), prob in np.ndenumerate(pmf.probs):
        expected = (
            comb(2, x1) * 0.4**x1 * 0.6 ** (2 - x1)
            * comb(2, x2) * 0.4**x2 * 0.6 ** (2 - x2)
        )
        assert prob == pytest.approx(expected, abs=1e-12)


def test_joint_pmf_normalization_random_instances():
    rng = np.random.default_rng(500)
    for _ in range(20):
        net = random_network(rng, max_nodes=6, max_edges=9)
        pmf = joint_pmf(net, int(rng.integers(0, 4)))
        assert abs(pmf.probs.sum() - 1.0) < 1e-9


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(25):
        net = random_network(rng)
        depth = int(rng.integers(1, 4))
        got = joint_pmf(net, depth).probs
        want = brute_force_joint_pmf(net, depth).probs
        assert_allclose(got, want, atol=1e-12)


def test_label_symmetry_within_types():
    # homogeneous complete graph: which ids carry which type cannot matter
    base = None
    for perm in list(permutations([0, 0, 1, 1, 1]))[:6]:
        nodes = [(i, perm[i], 0.35) for i in range(5)]
        net = build_network(nodes, combinations(range(5), 2), q=0.15)
        probs = joint_pmf(net, 2).probs
        if base is None:
            base = probs
        else:
            assert_allclose(probs, base, atol=1e-15)


def test_saturation_beyond_node_count():
    net = build_network(
        [(0, 0, 0.4), (1, 1, 0.2), (2, 1, 0.7), (3, 0, 0.1)],
        [(0, 1), (1, 2), (2, 3)],
        q={(0, 1): 0.3, (1, 0): 0.9, (1, 2): 0.5, (2, 1): 0.1, (2, 3): 0.8, (3, 2): 0.2},
    )
    saturated = joint_pmf(net, net.n_nodes).probs
    for depth in (5, 7, 11):
        assert np.array_equal(joint_pmf(net, depth).probs, saturated)


def test_upper_orthants_monotone_in_depth(example_net):
    pmfs = [joint_pmf(example_net, depth) for depth in range(1, 5)]
    for lo, hi in zip(pmfs, pmfs[1:]):
        report = check_orthant_monotone(lo, hi, tol=1e-12)
        assert report.passed, report.summary()


def test_node_cap_refusal():
    net = complete_network([30], 0.1, 0.1)
    with pytest.raises(ExactEngineCapError, match="simulate"):
        joint_pmf(net, 2)


def test_oversized_network_refused_before_allocating(tmp_path, capsys):
    path = build_network([(i, 0, 0.1) for i in range(20)], [(i, i + 1) for i in range(19)], q=0.2)
    network = str(tmp_path / "path20.json")
    save_json(path, network)
    _parser()  # built once per process, not by the refused request
    tracemalloc.start()
    try:
        peaks = []
        for request in (lambda: joint_pmf(path, 2), lambda: exact_engine._joint_pmfs(path, [1, 2])):
            tracemalloc.reset_peak()
            with pytest.raises(ExactEngineCapError, match="simulate"):
                request()
            peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        status = main(["order-check", "--network", network, "--depths", "1", "2"])
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert status == 1 and "simulate" in capsys.readouterr().err
    # the state alone would be 3^20 doubles, about 26 GiB
    assert max(peaks) < 1 << 16


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("n", range(1, 10))
def test_layout_targets_every_cell_once_and_where_counting_puts_it(monkeypatch, n, chunk):
    if chunk is not None:  # split each size of C over several chunks
        monkeypatch.setattr(exact_engine, "_chunk_size", lambda size: (chunk, 0))
    layout = exact_engine._layout(n)
    # C's block follows the blocks of every C' before it, by size and then
    # by mask; F's bits are renumbered by their rank in C
    order = sorted(range(1 << n), key=lambda c: (bin(c).count("1"), c))
    firsts, total = {}, 0
    for c in order:
        firsts[c], total = total, total + (1 << bin(c).count("1"))

    def cell(c, f):
        members = [v for v in range(n) if c >> v & 1]
        return firsts[c] + sum(1 << r for r, v in enumerate(members) if f >> v & 1)

    assert layout.order.tolist() == order
    assert layout.starts.tolist() == [firsts[c] for c in order]
    assert layout.full.tolist() == [cell(c, c) for c in range(1 << n)]
    seen = np.zeros(3**n, dtype=np.int64)
    cells = 0
    for lo, hi, target, inside, outside in layout.chunks:
        k = inside.shape[1]
        assert lo == cells and hi - lo == len(target) << k
        cells = hi
        for b, (ins, outs) in enumerate(zip(inside[:, :, 0].tolist(), outside[:, 0, :].tolist())):
            c = sum(1 << v for v in ins)
            assert firsts[c] == lo + (b << k)
            assert ins == [v for v in range(n) if c >> v & 1]
            assert outs == [v for v in range(n) if not c >> v & 1]
            # bit t of s stands for the t-th intact node
            want = []
            for s in range(1 << len(outs)):
                hit = sum(1 << o for t, o in enumerate(outs) if s >> t & 1)
                want.append(cell(c | hit, hit))
            assert target[b].tolist() == want
        np.add.at(seen, target.ravel(), 1)
    assert cells == 3**n and (seen == 1).all()


def test_joint_pmfs_match_joint_pmf_bit_for_bit():
    rng = np.random.default_rng(77)
    for _ in range(12):
        net = random_network(rng)
        n = net.n_nodes
        depths = [3, 0, 1, 3, n, n + 1, 10**12]
        got = exact_engine._joint_pmfs(net, depths)
        assert sorted(got) == sorted(set(depths))
        for depth, pmf in got.items():
            want = joint_pmf(net, depth)
            assert pmf.dims == want.dims and pmf.probs.tobytes() == want.probs.tobytes()


@pytest.fixture
def rounds(monkeypatch):
    """``rounds(solve)``: the kernel calls that ``solve()`` makes."""
    calls = [0]
    kernel = exact_engine._round

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(exact_engine, "_round", counted)

    def count(solve):
        calls[0] = 0
        solve()
        return calls[0]

    return count


def test_joint_pmfs_play_each_round_once(rounds):
    net = complete_network([3, 4], 0.2, 0.1)
    deepest = rounds(lambda: joint_pmf(net, 5))
    assert deepest > 0
    assert rounds(lambda: exact_engine._joint_pmfs(net, range(1, 6))) == deepest
    # nothing moves after the N-th round: once there, deeper depths play none
    assert rounds(lambda: joint_pmf(net, 7)) > 0
    for depth in (7, 8, 10**12):
        assert rounds(lambda: joint_pmf(net, depth)) == 0


def test_separate_calls_at_rising_depths_continue_one_pass(rounds):
    net = complete_network([3, 4], 0.2, 0.1)
    depths = range(9)
    # an equal copy is another network: it is solved from the direct attack
    whole, two = {}, {}
    one_pass = rounds(lambda: whole.update(exact_engine._joint_pmfs(replace(net), depths)))
    from_start = rounds(lambda: two.update(exact_engine._joint_pmfs(replace(net), [2])))
    sweep = {}
    assert rounds(lambda: sweep.update({d: joint_pmf(net, d) for d in depths})) == one_pass
    for depth in depths:
        assert sweep[depth].probs.tobytes() == whole[depth].probs.tobytes()
    assert exact_engine._last[4] == net.n_nodes
    # a shallower call starts again from the direct attack, to the same bytes
    again = []
    assert rounds(lambda: again.append(joint_pmf(net, 2))) == from_start
    assert again[0].probs.tobytes() == two[2].probs.tobytes()
    assert exact_engine._last[4] == 2


def test_a_copy_with_other_p_never_resumes_the_held_pass(rounds):
    net = complete_network([2, 3], 0.2, 0.1)
    p = np.linspace(0.1, 0.5, net.n_nodes)
    cold, got = [], []
    from_start = rounds(lambda: cold.append(joint_pmf(replace(net, p=p), 4)))
    joint_pmf(net, 3)
    copy = replace(net, p=p)
    assert rounds(lambda: got.append(joint_pmf(copy, 4))) == from_start
    assert got[0].probs.tobytes() == cold[0].probs.tobytes()
    assert exact_engine._last[0]() is copy


def test_every_over_budget_request_is_refused_as_a_cap_and_value_error():
    path = build_network([(i, 0, 0.1) for i in range(20)], [(i, i + 1) for i in range(19)], q=0.2)
    x = np.arange(3000.0)  # a 3000 x 3000 table and its copy: 1.8e7 cells
    requests = [
        (lambda: joint_pmf(path, 2), True),
        (lambda: bipartite_pmf(TwoClassParams(0.1, 0.1, 0.1, 0.1), 200, 200, depth=2), True),
        # a table is not an engine: simulating would not shrink it
        (lambda: correlations(x, x[::-1].copy()), False),
    ]
    for request, names_simulate in requests:
        with pytest.raises(ExactEngineCapError) as err:
            request()
        assert isinstance(err.value, ValueError)
        assert ("simulate" in str(err.value)) == names_simulate


def test_refusal_of_a_request_past_2_53_cells_names_a_power_of_two():
    # 3^9000 has 4295 digits, about Python's limit for printing an int
    with pytest.raises(ExactEngineCapError, match=r"^9000 nodes need over 2\^14264 cells, "):
        exact_engine._reserve(3**9000, "9000 nodes")


def test_plan_is_dropped_with_its_network():
    net = complete_network([2, 3], 0.2, 0.1)
    joint_pmf(net, 2)
    ref, _, _, mass, played = exact_engine._last
    assert ref() is net and mass.size == 3**5 and played == 2
    exact_engine._reserve(1, "one cell")
    assert exact_engine._last is None
    joint_pmf(net, 2)
    del net, ref, mass
    gc.collect()
    assert exact_engine._last is None


def test_thirteen_nodes_with_factors_over_budget_match_lumped_engine():
    net = complete_network([6, 7], 0.15, 0.1)
    got = joint_pmf(net, 1).probs
    # the factors of some chunks are stored and the rest computed in each round
    stored = [isinstance(f, tuple) for f in exact_engine._last[2]]
    assert any(stored) and not all(stored)
    want = complete_homog_pmf(CompleteHomogParams((6, 7), 0.15, 0.1, 1)).probs
    assert_allclose(got, want, atol=1e-12)


def test_thirteen_node_plan_stays_in_the_shared_budget():
    budget = 8 * exact_engine._MAX_CELLS
    net = complete_network([6, 7], 0.15, 0.1)
    exact_engine._last = None
    gc.collect()
    tracemalloc.start()
    try:
        peaks = []
        # a cold solve, then a warm one beside the plan the first one holds
        for depth in (1, 2):
            tracemalloc.reset_peak()
            joint_pmf(net, depth)
            peaks.append(tracemalloc.get_traced_memory()[1])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    _, layout, factors, mass, _ = exact_engine._last
    arrays = [layout.order, layout.starts, layout.full, mass]
    for chunk, factor in zip(layout.chunks, factors):
        arrays += chunk[2:] + (factor if isinstance(factor, tuple) else (factor,))
    cells = sum(a.size for a in arrays)
    assert max(peaks) <= budget
    # what stays is the plan and the pass: their cells and a few array headers
    # per chunk
    assert 0 <= held - 8 * cells < (1 << 16) + (len(layout.chunks) << 10)
    stored = sum(a.size for f in factors if isinstance(f, tuple) for a in f)
    n = net.n_nodes
    assert cells - stored <= 2 * 3**n + (n * (n - 1) // 4 + n + 3) * 2**n
    # the lumped engine and the contingency table drop the plan, even where
    # both would fit in the budget, and the next solve plans anew to the
    # same bytes
    want = joint_pmf(net, 2).probs.tobytes()
    complete_homog_pmf(CompleteHomogParams((150,), 0.1, 0.01, 1))
    assert 151**2 + 151**3 <= exact_engine._MAX_CELLS - cells and exact_engine._last is None
    assert joint_pmf(net, 2).probs.tobytes() == want
    x = np.arange(1500.0)
    correlations(x, x)
    assert 2 * 1500**2 <= exact_engine._MAX_CELLS - cells and exact_engine._last is None
    assert joint_pmf(net, 2).probs.tobytes() == want
    assert exact_engine._last[0]() is net


def test_unknown_node_in_target(example_net):
    with pytest.raises(ValueError, match="unknown"):
        event_prob(example_net, {0, 9}, 1)
