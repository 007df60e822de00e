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
    complete_bipartite_network,
    complete_homog_pmf,
    complete_network,
    joint_pmf,
    r_complete,
    star_network,
    star_pmf,
)

from hoprisk.closedform import _binom_start

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
