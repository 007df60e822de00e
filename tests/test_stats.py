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


def test_survival_examples(table_pmf):
    assert upper_orthant_survival(table_pmf, (2, 3)) == 0.0
    assert upper_orthant_survival(table_pmf, (-1, -1)) == pytest.approx(1.0)
    assert upper_orthant_survival(table_pmf, (1, 2)) == pytest.approx(0.0152)
    assert lower_orthant_cdf(table_pmf, (2, 3)) == pytest.approx(1.0)
    assert lower_orthant_cdf(table_pmf, (-1, 2)) == 0.0
    assert lower_orthant_cdf(table_pmf, (0, 0)) == pytest.approx(0.3277)


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


def _bump_p(net, delta, rng):
    from dataclasses import replace

    p = tuple(min(1.0, pi + float(rng.random()) * delta) for pi in net.p)
    return replace(net, p=p)


def _bump_q(net, delta, rng):
    from dataclasses import replace

    q = {k: min(1.0, v + float(rng.random()) * delta) for k, v in net.q.items()}
    return replace(net, q=q)


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
