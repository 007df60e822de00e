import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import binom

from hoprisk import (
    CompleteHomogParams,
    ExactEngineCapError,
    TwoClassParams,
    bipartite_pmf,
    build_network,
    check_orthant_monotone,
    complete_bipartite_network,
    complete_homog_pmf,
    complete_network,
    joint_pmf,
    r_complete,
    star_network,
    star_pmf,
)

import hoprisk.closedform as closedform
from hoprisk.closedform import _binom_start, _chain_binomial

from oracle import brute_force_joint_pmf


def test_r_complete_single_round_values():
    assert r_complete(5, 1, 1, 2, q=0.1) == pytest.approx(0.9**4)
    assert r_complete(5, 2, 1, 2, q=0.1) == pytest.approx(0.1 * 0.9**6)
    for u, depth in [(1, 1), (4, 3), (9, 2)]:
        assert r_complete(u, 0, 0, depth, q=0.42) == 1.0


def test_r_complete_validation():
    with pytest.raises(ValueError):
        r_complete(3, 2, 3, 1, q=0.1)
    with pytest.raises(ValueError):
        r_complete(3, 1, 0, 0, q=0.1)
    with pytest.raises(ValueError):
        r_complete(3, 1, 0, 1, q=1.2)


def test_r_complete_degenerate_q():
    # q=0: nothing spreads; q=1: one source floods the whole graph
    assert r_complete(6, 3, 3, 2, q=0.0) == 1.0
    assert r_complete(6, 4, 3, 2, q=0.0) == 0.0
    assert r_complete(6, 6, 1, 1, q=1.0) == 1.0
    assert r_complete(6, 5, 1, 1, q=1.0) == 0.0


def test_complete_homog_example_cell():
    pmf = complete_homog_pmf(CompleteHomogParams((2, 3), 0.2, 0.1, 2))
    p, pb, q, qb = 0.2, 0.8, 0.1, 0.9
    expected = 6 * (2 * p * pb**4 * q * qb**6 + p**2 * pb**3 * qb**6)
    assert pmf.probs[1, 1] == pytest.approx(expected)
    assert pmf.probs[1, 1] == pytest.approx(0.1175, abs=5e-5)


def test_complete_homog_depth3_cell():
    pmf = complete_homog_pmf(CompleteHomogParams((2, 3), 0.2, 0.1, 3))
    assert pmf.probs[2, 3] == pytest.approx(0.0181, abs=5e-5)


def test_complete_homog_p_zero():
    pmf = complete_homog_pmf(CompleteHomogParams((2, 2, 1), 0.0, 0.9, 3))
    assert pmf.probs[0, 0, 0] == 1.0


def test_complete_homog_matches_engine():
    rng = np.random.default_rng(77)
    for _ in range(8):
        sizes = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(1, 4))))
        if sum(sizes) > 8:
            continue
        p, q = float(rng.random()), float(rng.random())
        depth = int(rng.integers(1, 5))
        fast = complete_homog_pmf(CompleteHomogParams(sizes, p, q, depth))
        slow = joint_pmf(complete_network(sizes, p, q), depth)
        assert_allclose(fast.probs, slow.probs, atol=1e-12)


def test_star_two_nodes_half_params():
    pmf = star_pmf(TwoClassParams(0.5, 0.5, 0.5, 0.5), 2, 1)
    assert pmf.probs[1, 0] == pytest.approx(0.125)


def test_star_hub_intact_row_same_at_both_depths():
    params = TwoClassParams(0.3, 0.6, 0.4, 0.7)
    one = star_pmf(params, 6, 1)
    two = star_pmf(params, 6, 2)
    assert_allclose(one.probs[0], two.probs[0], atol=1e-15)


def test_star_p_zero():
    pmf = star_pmf(TwoClassParams(0.0, 0.0, 0.9, 0.9), 5, 2)
    assert pmf.probs[0, 0] == 1.0


def test_star_matches_engine_and_saturates():
    rng = np.random.default_rng(88)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        params = TwoClassParams(*(float(rng.random()) for _ in range(4)))
        net = star_network(n, params.p1, params.p2, params.q12, params.q21)
        for depth in (1, 2):
            assert_allclose(
                star_pmf(params, n, depth).probs,
                joint_pmf(net, depth).probs,
                atol=1e-12,
            )
        # star propagation cannot go deeper than two rounds
        for depth in (3, 6):
            assert_allclose(
                star_pmf(params, n, depth).probs,
                joint_pmf(net, depth).probs,
                atol=1e-12,
            )


def test_star_depth_validation():
    with pytest.raises(ValueError):
        star_pmf(TwoClassParams(0.1, 0.1, 0.1, 0.1), 4, 0)


def test_bipartite_empty_cell():
    params = TwoClassParams(0.3, 0.7, 0.2, 0.9)
    pmf = bipartite_pmf(params, 3, 2)
    assert pmf.probs[0, 0] == pytest.approx(0.7**3 * 0.3**2)


def test_bipartite_single_pair_half_params():
    pmf = bipartite_pmf(TwoClassParams(0.5, 0.5, 0.5, 0.5), 1, 1)
    assert pmf.probs[1, 1] == pytest.approx(0.5)


def test_bipartite_certain_compromise():
    pmf = bipartite_pmf(TwoClassParams(1.0, 0.0, 1.0, 0.0), 2, 2)
    assert pmf.probs[2, 2] == 1.0


def test_bipartite_matches_engine():
    rng = np.random.default_rng(99)
    for _ in range(8):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = TwoClassParams(*(float(rng.random()) for _ in range(4)))
        net = complete_bipartite_network(
            n1, n2, params.p1, params.p2, params.q12, params.q21
        )
        for depth in (1, 2, 3):
            assert_allclose(
                bipartite_pmf(params, n1, n2, depth).probs,
                joint_pmf(net, depth).probs,
                atol=1e-12,
            )


def test_closed_forms_match_brute_force():
    # spot-check against the enumeration oracle, not just the engine
    params = TwoClassParams(0.4, 0.3, 0.6, 0.2)
    star = star_network(4, params.p1, params.p2, params.q12, params.q21)
    assert_allclose(
        star_pmf(params, 4, 2).probs, brute_force_joint_pmf(star, 2).probs, atol=1e-12
    )
    bip = complete_bipartite_network(2, 2, params.p1, params.p2, params.q12, params.q21)
    assert_allclose(
        bipartite_pmf(params, 2, 2).probs, brute_force_joint_pmf(bip, 1).probs, atol=1e-12
    )
    assert_allclose(
        bipartite_pmf(params, 2, 2, 2).probs, brute_force_joint_pmf(bip, 2).probs, atol=1e-12
    )


def test_no_propagation_is_independent_binomials_at_large_n():
    # 200 nodes: binomial coefficients far beyond 2^53 and up to 1e59
    p = 0.3
    homog = complete_homog_pmf(CompleteHomogParams((20, 180), p, 0.0, 2))
    expected = np.outer(binom.pmf(np.arange(21), 20, p), binom.pmf(np.arange(181), 180, p))
    assert_allclose(homog.probs, expected, atol=1e-12)
    bip = bipartite_pmf(TwoClassParams(0.2, 0.7, 0.0, 0.0), 5, 45, depth=3)
    expected = np.outer(binom.pmf(np.arange(6), 5, 0.2), binom.pmf(np.arange(46), 45, 0.7))
    assert_allclose(bip.probs, expected, atol=1e-12)


def test_paper_size_bipartite_at_depth_one_needs_no_front_axes():
    # the paper's 20 servers and 180 workstations: after one round each side
    # holds its direct hits d and Binomial(N - d, h) new nodes, with h set by
    # the other side's direct hits
    params = TwoClassParams(0.05, 0.15, 0.2, 0.3)
    tracemalloc.start()
    try:
        got = bipartite_pmf(params, 20, 180).probs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d1, d2 = np.arange(21)[:, None, None], np.arange(181)[None, :, None]
    x1, x2 = np.arange(21)[None, None, :], np.arange(181)[None, None, :]
    first = binom.pmf(x1 - d1, 20 - d1, 1 - (1 - params.q21) ** d2)
    second = binom.pmf(x2 - d2, 180 - d2, 1 - (1 - params.q12) ** d1)
    direct = np.outer(binom.pmf(np.arange(21), 20, params.p1),
                      binom.pmf(np.arange(181), 180, params.p2))
    want = np.einsum("ab,abx,aby->xy", direct, first, second)
    assert_allclose(got, want, rtol=0, atol=1e-12)
    # a dense (compromised, front) state would be 21^2 * 181^2 doubles, 115 MB
    assert peak < 32 << 20


def test_paper_size_bipartite_at_depth_two_holds_one_state():
    params = TwoClassParams(0.05, 0.15, 0.2, 0.3)
    tracemalloc.start()
    try:
        deeper = bipartite_pmf(params, 20, 180, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(deeper.probs.sum() - 1) < 1e-9
    assert check_orthant_monotone(bipartite_pmf(params, 20, 180), deeper).passed
    # the budget holds one (compromised, front) state of 21^2 * 181^2
    # doubles, 110 MiB, which the next round reads a slab at a time
    assert peak < 8 << 24


def _pqd_gap(probs):
    """P(X1 >= a, X2 >= b) - P(X1 >= a) P(X2 >= b) at every corner (a, b)."""
    joint = probs[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    return joint - np.outer(joint[:, 0], joint[0, :])


@pytest.mark.parametrize("topology, depth", [
    ("bipartite", 1), ("bipartite", 2), *(("complete", depth) for depth in range(1, 7)),
])
def test_paper_size_counts_are_positively_quadrant_dependent(topology, depth):
    # compromise only spreads, so the counts of the two types rise together:
    # a necessary condition, and one the oracle cannot check at this size
    if topology == "bipartite":
        pmf = bipartite_pmf(TwoClassParams(0.05, 0.15, 0.2, 0.3), 20, 180, depth)
    else:
        pmf = complete_homog_pmf(CompleteHomogParams((20, 180), 0.05, 0.01, depth))
    assert _pqd_gap(pmf.probs).min() >= -1e-14


def test_paper_size_bipartite_middle_round_is_over_budget():
    # a middle round also holds its intermediate, 21^3 * 181 cells, which
    # takes the state and the tables over the budget
    tracemalloc.start()
    try:
        with pytest.raises(ExactEngineCapError, match=r"class sizes \(20, 180\)"):
            bipartite_pmf(TwoClassParams(0.05, 0.15, 0.2, 0.3), 20, 180, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _three_classes():
    """Sizes (2, 3, 2): class 0 hits itself and both ways with class 1,
    class 1 hits class 2 one way, and classes 0 and 2 never meet."""
    sizes = (2, 3, 2)
    q = ((0.3, 0.4, 0.0), (0.2, 0.0, 0.5), (0.0, 0.0, 0.0))
    p = (0.25, 0.1, 0.35)
    return sizes, q, p


def test_three_classes_match_the_exact_engine():
    sizes, q, p = _three_classes()
    types = [t for t, n in enumerate(sizes) for _ in range(n)]
    pairs = {(u, v): q[types[u]][types[v]]
             for u in range(len(types)) for v in range(len(types))
             if u != v and q[types[u]][types[v]] > 0.0}
    net = build_network([(v, t, p[t]) for v, t in enumerate(types)], list(pairs), pairs)
    starts = [_binom_start(n, pt) for n, pt in zip(sizes, p)]
    for depth in range(1, 5):
        assert_allclose(_chain_binomial(sizes, starts, q, depth),
                        joint_pmf(net, depth).probs, rtol=0, atol=1e-12)


def _dense_readout_table(n, h, own=None):
    """Every cell of the read-out table, by the engine's row recurrence,
    whatever ``own`` says: the reference for the cells a chain reaches."""
    h = np.asarray(h, dtype=float)[..., None]
    miss = 1.0 - h
    out = np.zeros((n + 1,) + h.shape[:-1] + (n + 1,))
    out[n, ..., n] = 1.0
    for c in range(n - 1, -1, -1):
        np.multiply(h, out[c + 1], out=out[c])
        out[c, ..., :-1] += miss * out[c + 1, ..., 1:]
    return out


@pytest.mark.parametrize("hitters", [1, 2, 3])
def test_readout_table_of_a_self_hitting_class_fills_its_triangle(hitters):
    rng = np.random.default_rng(hitters)
    for n in range(13):
        for own in range(hitters):
            shape = [int(rng.integers(1, 5)) for _ in range(hitters)]
            shape[own] = n + 1
            # exact 0s and 1s among the hit probabilities
            h = rng.choice([0.0, 1.0, *rng.random(6)], size=shape)
            got = closedform._readout_table(n, h, own)
            want = _dense_readout_table(n, h)
            index = np.indices(got.shape, sparse=True)
            c, f, x = index[0], index[1 + own], index[-1]
            reach = np.broadcast_to((f <= c) & (c <= x), got.shape)
            assert got[reach].tobytes() == want[reach].tobytes()
            assert not got[~reach].any()


def test_chain_binomial_gives_the_bytes_of_the_dense_tables(monkeypatch):
    rng = np.random.default_rng(2026)
    cases, positions = [], set()
    for _ in range(200):
        k = int(rng.integers(1, 4))
        sizes = tuple(int(n) for n in rng.integers(1, 6 if k < 3 else 4, size=k))
        q = (rng.uniform(0.05, 0.6, size=(k, k)) * (rng.random((k, k)) < 0.6)).tolist()
        positions |= {[s for s in range(k) if q[s][t] > 0].index(t)
                      for t in range(k) if q[t][t] > 0}
        starts = [np.eye(n + 1)[rng.integers(n + 1)] if rng.random() < 0.3
                  else _binom_start(n, rng.random()) for n in sizes]
        cases.append((sizes, starts, q, int(rng.integers(1, 6))))
    # a class hits itself as the first, the middle and the last of its hitters
    assert positions == {0, 1, 2}
    got = [_chain_binomial(*case) for case in cases]
    monkeypatch.setattr(closedform, "_readout_table", _dense_readout_table)
    for case, probs in zip(cases, got):
        assert probs.tobytes() == _chain_binomial(*case).tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_paper_size_complete_graph_gives_the_bytes_of_the_dense_table(monkeypatch, depth):
    params = CompleteHomogParams((20, 180), 0.05, 0.01, depth)
    got = complete_homog_pmf(params).probs
    monkeypatch.setattr(closedform, "_readout_table", _dense_readout_table)
    assert got.tobytes() == complete_homog_pmf(params).probs.tobytes()


def test_nothing_is_allocated_past_the_reserved_cells(monkeypatch):
    reserved = []
    reserve = closedform._reserve

    def recording_reserve(cells, what, **kwargs):
        reserved.append(cells)
        reserve(cells, what, **kwargs)

    monkeypatch.setattr(closedform, "_reserve", recording_reserve)
    sizes, q, p = _three_classes()
    two = TwoClassParams(0.05, 0.15, 0.2, 0.3)
    calls = [
        lambda depth: _chain_binomial(sizes, [_binom_start(n, pt) for n, pt in zip(sizes, p)],
                                      q, depth),
        lambda depth: bipartite_pmf(two, 5, 45, depth),
        lambda depth: bipartite_pmf(two, 45, 5, depth),
        lambda depth: star_pmf(two, 50, depth),
        lambda depth: complete_homog_pmf(CompleteHomogParams((5, 45), 0.05, 0.01, depth)),
    ]
    # the paper's size at depth 2 is accepted: its (compromised, front) state
    # is read a slab at a time, never copied whole
    runs = [(call, depth) for call in calls for depth in range(1, 5)]
    runs.append((lambda depth: bipartite_pmf(two, 20, 180, depth), 2))
    for call, depth in runs:
        reserved.clear()
        tracemalloc.start()
        try:
            call(depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reserved) == 1
        assert peak <= 8 * reserved[0] + (1 << 16)


def test_contractions_read_one_row_per_slab_to_the_same_counts(monkeypatch):
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(60):
        k = int(rng.integers(1, 4))
        sizes = tuple(int(n) for n in rng.integers(1, 6 if k < 3 else 4, size=k))
        q = (rng.uniform(0.05, 0.6, size=(k, k)) * (rng.random((k, k)) < 0.6)).tolist()
        starts = [_binom_start(n, rng.random()) for n in sizes]
        cases.append((sizes, starts, q, int(rng.integers(1, 5))))
    whole = [_chain_binomial(*case) for case in cases]
    # every slab one row: slabs along kept axes fill the result piece by
    # piece, slabs along summed axes accumulate
    monkeypatch.setattr(closedform, "_SLAB_CELLS", 1)
    for case, probs in zip(cases, whole):
        assert_allclose(_chain_binomial(*case), probs, rtol=0, atol=1e-15)


def test_oversized_classes_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ExactEngineCapError, match="simulate"):
            bipartite_pmf(TwoClassParams(0.1, 0.1, 0.1, 0.1), 200, 200, depth=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense state alone would be 201^4 doubles, about 12 GiB
    assert peak < 1 << 16


def test_all_closed_forms_normalize():
    rng = np.random.default_rng(111)
    for _ in range(10):
        params = TwoClassParams(*(float(rng.random()) for _ in range(4)))
        assert abs(star_pmf(params, int(rng.integers(2, 9)), 2).probs.sum() - 1) < 1e-9
        assert abs(bipartite_pmf(params, 3, 4).probs.sum() - 1) < 1e-9
        homog = CompleteHomogParams((2, 3), float(rng.random()), float(rng.random()), 3)
        assert abs(complete_homog_pmf(homog).probs.sum() - 1) < 1e-9


def test_params_validation():
    with pytest.raises(ValueError):
        CompleteHomogParams((0, 2), 0.1, 0.1, 1)
    with pytest.raises(ValueError):
        CompleteHomogParams((2,), 1.2, 0.1, 1)
    with pytest.raises(ValueError):
        CompleteHomogParams((2,), 0.1, 0.1, 0)
    with pytest.raises(ValueError):
        TwoClassParams(0.1, 0.1, 0.1, -0.2)


def _binom_by_trials(n, p):
    """Binomial(n, p) PMF adding one trial at a time."""
    out = np.ones(1)
    for _ in range(n):
        out = np.append((1.0 - p) * out, 0.0) + np.append(0.0, p * out)
    return out


@pytest.mark.parametrize("n", [*range(65), 127, 128, 255, 511, 1000, 2047])
def test_binom_start_matches_the_trial_recurrence(n):
    # the two differ by rounding alone, which grows with the number of
    # convolutions (about 2 log2 n): at most 5.6e-16 up to n = 64 and 3.0e-15
    # at n = 2047 (the trial recurrence is itself 1.9e-15 off the exact values
    # at n = 511, p = 0.05)
    tol = max(1e-15, 2 * np.finfo(float).eps * n.bit_length())
    for p in (0.5, 0.05, 0.15, 0.99, 0.003, 0.3141, 0.8571):
        assert_allclose(_binom_start(n, p), _binom_by_trials(n, p), rtol=0, atol=tol)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 45, 1000])
def test_binom_start_point_masses(n):
    assert np.array_equal(_binom_start(n, 0.0), np.eye(n + 1)[0])
    assert np.array_equal(_binom_start(n, 1.0), np.eye(n + 1)[n])


_TWO = TwoClassParams(0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize("call", [
    lambda: bipartite_pmf(_TWO, 2.5, 3),
    lambda: star_pmf(_TWO, 5.0, 1),
    lambda: complete_homog_pmf(CompleteHomogParams((2.5, 3), 0.1, 0.2, 1)),
    lambda: r_complete(5.0, 3, 1, 2, q=0.3),
])
def test_sizes_that_are_not_integers_are_refused(call):
    # as the network builders refuse them, not deep inside the engine
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call()
