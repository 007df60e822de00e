import numpy as np
import pytest
from numpy.testing import assert_allclose

from hoprisk import (
    JointPmf,
    check_orthant_monotone,
    complete_network,
    correlations,
    joint_pmf,
    lower_orthant_cdf,
    marginal_moments,
    pairwise_correlations,
    simulate_runs,
    upper_orthant_survival,
)
import hoprisk.exact as exact_engine
import hoprisk.stats
from hoprisk.exact import ExactEngineCapError
from hoprisk.stats import _depth_correlations

from oracle import random_network
from tables import TABLE_GRIDS


@pytest.fixture(scope="module")
def table_pmf():
    """The depth-2 reference grid as a PMF (it sums to 1 at 4 decimals)."""
    return JointPmf((3, 4), TABLE_GRIDS[2])


def test_moments_from_reference_grid(table_pmf):
    summary = marginal_moments(table_pmf)
    # E[X1] from the printed marginals: 0.3283 + 2 * 0.1109
    assert summary.per_type[0].mean == pytest.approx(0.5501, abs=1e-12)
    assert summary.per_type[0].mean_prop == pytest.approx(0.5501 / 2, abs=1e-12)
    assert summary.per_type[0].sd > 0


def test_moments_point_mass():
    probs = np.zeros((3, 4))
    probs[0, 0] = 1.0
    summary = marginal_moments(JointPmf((3, 4), probs))
    for tm in summary.per_type:
        assert tm.mean == 0.0 and tm.sd == 0.0


def test_moments_two_point():
    probs = np.zeros((3, 1))
    probs[0, 0] = 0.5
    probs[2, 0] = 0.5
    summary = marginal_moments(JointPmf((3, 1), probs))
    assert summary.per_type[0].mean == pytest.approx(1.0)
    assert summary.per_type[0].sd == pytest.approx(1.0)


def test_moments_from_samples(example_net):
    sm = simulate_runs(example_net, 2, 400, master_seed=21)
    summary = marginal_moments(sm, depth=2)
    block = sm.at_depth(2)
    assert summary.per_type[0].mean == pytest.approx(block[:, 0].mean())
    assert summary.per_type[0].sd == pytest.approx(block[:, 0].std(ddof=1))
    with pytest.raises(ValueError):
        marginal_moments(sm)


def test_correlations_comonotone():
    dep = correlations([0, 1, 2], [0, 1, 2])
    assert dep.pearson == pytest.approx(1.0)
    assert dep.kendall == pytest.approx(1.0)
    assert dep.spearman == pytest.approx(1.0)


def test_correlations_antitone():
    dep = correlations([0, 1], [1, 0])
    assert dep.pearson == pytest.approx(-1.0)
    assert dep.kendall == pytest.approx(-1.0)
    assert dep.spearman == pytest.approx(-1.0)


def test_correlations_constant_margin_undefined():
    dep = correlations([1, 1, 1], [0, 2, 1])
    assert dep.undefined
    assert dep.pearson is None and dep.kendall is None and dep.spearman is None


def test_correlations_validation():
    with pytest.raises(ValueError):
        correlations([1], [2])
    with pytest.raises(ValueError):
        correlations([1, 2], [1, 2, 3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correlations_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        correlations([0, bad, 1, 2], [0, 1, 2, 2])
    with pytest.raises(ValueError, match="finite"):
        correlations([0, 1, 2, 2], [0, 1, bad, 2])


def test_correlations_independent_when_no_propagation():
    net = complete_network([2, 3], 0.2, 0.0)
    sm = simulate_runs(net, 1, 100_000, master_seed=5)
    dep = correlations(sm.counts[:, 0, 0], sm.counts[:, 0, 1])
    assert abs(dep.pearson) < 0.02
    assert abs(dep.kendall) < 0.02
    assert abs(dep.spearman) < 0.02


def test_rank_measures_invariant_under_increasing_transform():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 4, size=60)
    y = rng.integers(0, 5, size=60)
    base = correlations(x, y)
    squashed = correlations(x**2, 3 * y + 2)
    assert squashed.kendall == pytest.approx(base.kendall, abs=1e-12)
    assert squashed.spearman == pytest.approx(base.spearman, abs=1e-12)


def test_pairwise_correlations_keys(example_net):
    sm = simulate_runs(example_net, 2, 200, master_seed=6)
    out = pairwise_correlations(sm, 2)
    assert set(out) == {(0, 1)}


def _assert_same_as_per_depth(counts, by_pair):
    """Kendall and Spearman equal to one `correlations` call per depth and
    pair, Pearson within 1e-15: the depth pass has the same tables, on value
    axes that may hold values absent at that depth."""
    m = counts.shape[2]
    assert list(by_pair) == [(i, j) for i in range(m) for j in range(i + 1, m)]
    for (i, j), summaries in by_pair.items():
        assert len(summaries) == counts.shape[1]
        for l, got in enumerate(summaries):
            want = correlations(counts[:, l, i], counts[:, l, j])
            assert got.undefined == want.undefined
            if not want.undefined:
                assert (got.kendall, got.spearman) == (want.kendall, want.spearman)
                assert abs(got.pearson - want.pearson) <= 1e-15


def test_depth_correlations_match_per_depth_calls():
    rng = np.random.default_rng(11)
    for case in range(12):
        net = random_network(rng, max_nodes=7, max_edges=12)
        counts = simulate_runs(net, 4, int(rng.integers(2, 300)), master_seed=case).counts
        if counts.shape[2] > 1:
            _assert_same_as_per_depth(counts, _depth_correlations(counts))
    for runs in (2, 3, 40):
        counts = rng.integers(0, 6, size=(runs, 5, 3))
        _assert_same_as_per_depth(counts, _depth_correlations(counts))


def test_depth_correlations_with_constant_depths_and_huge_counts():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 10**12, size=(30, 4, 2))
    counts[:, 1, 0] = 7  # a constant x at depth 2
    counts[:, 3, 1] = 10**12  # a constant y at depth 4
    by_pair = _depth_correlations(counts)
    assert [d.undefined for d in by_pair[(0, 1)]] == [False, True, False, True]
    _assert_same_as_per_depth(counts, by_pair)
    # two runs: every defined depth is perfectly concordant or discordant
    pair = np.array([[[0, 5], [1, 1], [3, 4]], [[2, 9], [1, 1], [0, 8]]])
    by_pair = _depth_correlations(pair)
    assert [d.kendall for d in by_pair[(0, 1)]] == [1.0, None, -1.0]
    _assert_same_as_per_depth(pair, by_pair)
    # one run: no pair of samples, so nothing is defined
    assert all(d.undefined for d in _depth_correlations(pair[:1])[(0, 1)])


def _spread_counts():
    """50 runs at 4 depths: 10 distinct values per type and depth, 40 over
    all depths, so one depth's table and its copy take 2 * 10 * 10 cells and
    the stack of all depths on the shared values 2 * 4 * 40 * 40."""
    rng = np.random.default_rng(8)
    x = np.arange(50) % 10 + 10 * np.arange(4)[:, None]
    y = rng.permuted(np.broadcast_to(x, (2, 4, 50)), axis=2)
    return np.stack((y[0], y[1]), axis=2).transpose(1, 0, 2)


def test_depth_correlations_code_the_depths_in_groups(monkeypatch):
    # 100 entries a type: the depths are coded two at a time
    counts = _spread_counts()
    monkeypatch.setattr(hoprisk.stats, "_BLOCK_CELLS", 100)
    _assert_same_as_per_depth(counts, _depth_correlations(counts))


def test_depth_correlations_split_a_stack_above_the_budget(monkeypatch):
    # the stack of all depths, 12800 cells, would be refused; one depth at a
    # time, 200 cells, fits
    counts = _spread_counts()
    monkeypatch.setattr(exact_engine, "_MAX_CELLS", 1000)
    _assert_same_as_per_depth(counts, _depth_correlations(counts))


def test_depth_correlations_refuse_a_depth_above_the_budget(monkeypatch):
    monkeypatch.setattr(exact_engine, "_MAX_CELLS", 150)
    with pytest.raises(ExactEngineCapError, match="depth 1, types 1 and 2: x has 10 distinct"):
        _depth_correlations(_spread_counts())


def test_survival_examples(table_pmf):
    assert upper_orthant_survival(table_pmf, (2, 3)) == 0.0
    assert upper_orthant_survival(table_pmf, (-1, -1)) == pytest.approx(1.0)
    assert upper_orthant_survival(table_pmf, (1, 2)) == pytest.approx(0.0152)
    assert lower_orthant_cdf(table_pmf, (2, 3)) == pytest.approx(1.0)
    assert lower_orthant_cdf(table_pmf, (-1, 2)) == 0.0
    assert lower_orthant_cdf(table_pmf, (0, 0)) == pytest.approx(0.3277)


@pytest.mark.parametrize("query, point", [
    # read with int(), -0.5 became 0: 0.5477 and 0.4392 where the answers are 0 and 1
    (lower_orthant_cdf, (-0.5, 2)),
    (upper_orthant_survival, (-0.5, -1)),
    (lower_orthant_cdf, ("1", 1)),
])
def test_orthant_queries_refuse_a_coordinate_that_is_not_an_integer(query, point):
    pmf = joint_pmf(complete_network([2, 3], 0.2, 0.1), 2)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        query(pmf, point)
    # a numpy integer is an integer
    assert query(pmf, (np.int64(-1), 3)) == query(pmf, (-1, 3))


def test_survival_monotone_in_threshold(table_pmf):
    for x1 in range(-1, 3):
        for x2 in range(-1, 4):
            here = upper_orthant_survival(table_pmf, (x1, x2))
            assert upper_orthant_survival(table_pmf, (x1 + 1, x2)) <= here + 1e-15
            assert upper_orthant_survival(table_pmf, (x1, x2 + 1)) <= here + 1e-15


def test_order_check_depth_pair(example_net):
    lo = joint_pmf(example_net, 2)
    hi = joint_pmf(example_net, 3)
    report = check_orthant_monotone(lo, hi, tol=1e-12)
    assert report.passed
    assert not report.violations


def test_order_check_self(example_net):
    pmf = joint_pmf(example_net, 2)
    report = check_orthant_monotone(pmf, pmf)
    assert report.passed
    assert report.max_violation == 0.0


def test_order_check_detects_reversal():
    lo = joint_pmf(complete_network([2, 3], 0.2, 0.1), 2)
    hi = joint_pmf(complete_network([2, 3], 0.1, 0.1), 2)
    report = check_orthant_monotone(lo, hi, tol=1e-12)
    assert not report.passed
    assert report.max_violation > 1e-3
    assert report.violations
    assert "FAIL" in report.summary()


def test_order_check_dimension_mismatch(example_net):
    a = joint_pmf(example_net, 1)
    b = joint_pmf(complete_network([3, 2], 0.2, 0.1), 1)
    with pytest.raises(ValueError, match="mismatch"):
        check_orthant_monotone(a, b)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_order_check_refuses_a_tolerance_that_is_not_finite_and_nonnegative(example_net, tol):
    pmf = joint_pmf(example_net, 1)
    with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol}"):
        check_orthant_monotone(pmf, pmf, tol=tol)


def test_order_check_accepts_a_zero_tolerance(example_net):
    pmf = joint_pmf(example_net, 1)
    report = check_orthant_monotone(pmf, pmf, tol=0.0)
    assert report.passed and report.tolerance == 0.0


def _bump_p(net, delta, rng):
    from dataclasses import replace

    p = tuple(min(1.0, pi + float(rng.random()) * delta) for pi in net.p)
    return replace(net, p=p)


def _bump_q(net, delta, rng):
    from dataclasses import replace

    q = np.minimum(1.0, net.arc_q + rng.random(net.arc_q.size) * delta)
    return replace(net, arc_q=q)


def test_orthant_monotonicity_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        net = random_network(rng, max_nodes=5, max_edges=8)
        depth = int(rng.integers(1, 4))
        base = joint_pmf(net, depth)
        deeper = joint_pmf(net, depth + 1)
        assert check_orthant_monotone(base, deeper, tol=1e-12).passed
        more_direct = joint_pmf(_bump_p(net, 0.5, rng), depth)
        assert check_orthant_monotone(base, more_direct, tol=1e-12).passed
        more_contagious = joint_pmf(_bump_q(net, 0.5, rng), depth)
        assert check_orthant_monotone(base, more_contagious, tol=1e-12).passed
