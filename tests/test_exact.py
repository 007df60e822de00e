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
    bipartite_pmf,
    build_network,
    complete_homog_pmf,
    complete_network,
    event_prob,
    induced_subnetwork,
    joint_pmf,
    one_hop_prob,
    r_prob,
)
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


def test_joint_pmf_no_propagation_is_binomial_product():
    net = complete_network([2, 3], 0.3, 0.0)
    pmf = joint_pmf(net, 4)
    from math import comb

    for (x1, x2), prob in pmf.cells():
        expected = (
            comb(2, x1) * 0.3**x1 * 0.7 ** (2 - x1)
            * comb(3, x2) * 0.3**x2 * 0.7 ** (3 - x2)
        )
        assert prob == pytest.approx(expected, abs=1e-12)


def test_joint_pmf_depth_zero_is_direct_only():
    net = complete_network([2, 2], 0.4, 0.9)
    pmf = joint_pmf(net, 0)
    from math import comb

    for (x1, x2), prob in pmf.cells():
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


def test_oversized_network_refused_before_allocating():
    path = build_network([(i, 0, 0.1) for i in range(20)], [(i, i + 1) for i in range(19)], q=0.2)
    tracemalloc.start()
    try:
        with pytest.raises(ExactEngineCapError, match="simulate"):
            joint_pmf(path, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state alone would be 3^20 doubles, about 26 GiB
    assert peak < 1 << 16


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
    assert exact_engine._last[0]() is net
    del net
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
        cells = exact_engine._last[3]
    finally:
        tracemalloc.stop()
    assert max(peaks) <= budget
    # what stays is the plan: its cells and a few array headers per chunk
    assert 0 <= held - 8 * cells < (1 << 16) + (len(exact_engine._last[1].chunks) << 10)
    stored = sum(a.size for f in exact_engine._last[2] if isinstance(f, tuple) for a in f)
    n = net.n_nodes
    assert cells - stored <= 3**n + (n * (n - 1) // 4 + n + 3) * 2**n
    # the lumped engine and the contingency table keep the plan while both
    # fit and drop it otherwise
    room, plan = exact_engine._MAX_CELLS - cells, exact_engine._last
    complete_homog_pmf(CompleteHomogParams((200,), 0.1, 0.01, 1))
    assert 201**2 + 201**3 <= room and exact_engine._last is plan
    complete_homog_pmf(CompleteHomogParams((214,), 0.1, 0.01, 1))
    assert 215**2 + 215**3 > room and exact_engine._last is None
    exact_engine._last = plan
    x = np.arange(2100.0)
    correlations(x[:2000], x[:2000])
    assert 2 * 2000**2 <= room and exact_engine._last is plan
    correlations(x, x)
    assert 2 * 2100**2 > room and exact_engine._last is None


def test_unknown_node_in_target(example_net):
    with pytest.raises(ValueError, match="unknown"):
        event_prob(example_net, {0, 9}, 1)
