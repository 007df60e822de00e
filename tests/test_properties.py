"""Property tests: the exact engine against the brute-force oracle and the
lumped engine on generated networks, the coupling of Monte Carlo runs, the
rank correlations against scipy, CSV round-trips, and the bytes of the
sample and moments CSVs against plain per-row and per-column references.

Examples are derandomized and capped, so every run checks the same cases.
"""

import math
import tracemalloc
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as sps

from hoprisk import (
    CompleteHomogParams,
    JointPmf,
    SampleMatrix,
    TwoClassParams,
    assign_types_by_degree,
    bipartite_pmf,
    build_network,
    complete_bipartite_network,
    complete_homog_pmf,
    complete_network,
    correlations,
    event_prob,
    generate_ba,
    joint_pmf,
    marginal_moments,
    pairwise_correlations,
    r_prob,
    simulate_runs,
    star_network,
    star_pmf,
    with_type_probabilities,
)
import hoprisk.exact
import hoprisk.pmf
from hoprisk.cli import main
from hoprisk.exact import _MAX_CELLS

from oracle import brute_force_joint_pmf

probs = st.floats(0.0, 1.0)


@st.composite
def networks(draw, max_nodes=6, max_edges=8):
    n = draw(st.integers(1, max_nodes))
    raw_types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    types = [sorted(set(raw_types)).index(t) for t in raw_types]
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    q = {}
    for u, v in edges:
        q[(u, v)], q[(v, u)] = draw(probs), draw(probs)
    nodes = [(i, types[i], draw(probs)) for i in range(n)]
    return build_network(nodes, edges, q=q)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(net=networks(), depth=st.integers(0, 4))
def test_joint_pmf_matches_brute_force(net, depth):
    assert_allclose(
        joint_pmf(net, depth).probs, brute_force_joint_pmf(net, depth).probs, atol=1e-12
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(["complete", "star", "bipartite"]),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    params=st.tuples(probs, probs, probs, probs),
    depth=st.integers(1, 4),
)
def test_joint_pmf_matches_lumped_engine(shape, sizes, params, depth):
    two = TwoClassParams(*params)
    if shape == "complete":
        lumped = complete_homog_pmf(CompleteHomogParams(sizes, two.p1, two.q12, depth))
        net = complete_network(sizes, two.p1, two.q12)
    elif shape == "star":
        lumped = star_pmf(two, sum(sizes), depth)
        net = star_network(sum(sizes), *params)
    else:
        lumped = bipartite_pmf(two, *sizes, depth)
        net = complete_bipartite_network(*sizes, *params)
    assert_allclose(joint_pmf(net, depth).probs, lumped.probs, atol=1e-12)


def _solve(net, kind, depth, mask):
    """Bytes of one exact answer: the PMF, one set's probability, or one
    set's probability from a set of sources (over the whole network, which
    r_prob solves on an induced copy: it takes the slot and keeps the layout)."""
    nodes = [v for v in net.node_ids if mask >> v & 1]
    if kind == "pmf":
        return joint_pmf(net, depth).probs.tobytes()
    if kind == "event":
        return event_prob(net, nodes, depth).hex()
    return r_prob(net, net.node_ids, nodes, nodes[::2], max(depth, 1)).hex()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    nets=st.lists(networks(), min_size=1, max_size=3),
    runs=st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.tuples(
            st.sampled_from(["pmf", "event", "r"]), st.integers(0, 7), st.integers(0, 63)),
            min_size=1, max_size=4)),
        min_size=1, max_size=5),
)
def test_warm_plans_match_cold_plans(nets, runs):
    # runs of solves on one network, switching networks between runs: the
    # first solve of a run builds its plan, the others reuse it
    solves = [(nets[i % len(nets)], kind, depth % (nets[i % len(nets)].n_nodes + 2), mask)
              for i, run in runs for kind, depth, mask in run]
    cold = []
    for net, *solve in solves:
        hoprisk.exact._last = None
        cold.append(_solve(replace(net), *solve))
    assert [_solve(*solve) for solve in solves] == cold


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(net=networks(), depth=st.integers(1, 4), seed=st.integers(0, 2**32), data=st.data())
def test_raising_p_or_q_raises_every_run_at_the_same_seed(net, depth, seed, data):
    # common random numbers: each run reads the same slots whatever p and q are
    p_hi = tuple(data.draw(st.floats(pi, 1.0)) for pi in net.p)
    q_hi = {pair: data.draw(st.floats(qv, 1.0)) for pair, qv in sorted(net.q.items())}
    base = simulate_runs(net, depth, 64, seed).counts
    for raised in (replace(net, p=p_hi), replace(net, q=q_hi), replace(net, p=p_hi, q=q_hi)):
        assert (simulate_runs(raised, depth, 64, seed).counts >= base).all()


def _assert_matches_scipy(dep, x, y):
    if len(set(x)) == 1 or len(set(y)) == 1:
        assert dep.undefined
        return
    assert dep.pearson == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
    assert dep.kendall == pytest.approx(sps.kendalltau(x, y).statistic, abs=1e-12)
    assert dep.spearman == pytest.approx(sps.spearmanr(x, y).statistic, abs=1e-12)


@st.composite
def column_pairs(draw, values):
    n = draw(st.integers(2, 300))
    return tuple(draw(st.lists(values, min_size=n, max_size=n)) for _ in range(2))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(xy=column_pairs(st.integers(0, 30)))
def test_correlations_match_scipy_on_tied_counts(xy):
    _assert_matches_scipy(correlations(*xy), *xy)


# rounded to 9 decimals so that no squared deviation underflows
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(xy=column_pairs(st.floats(-1e3, 1e3).map(lambda v: round(v, 9))))
def test_correlations_match_scipy_on_floats(xy):
    _assert_matches_scipy(correlations(*xy), *xy)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), top_k=st.integers(2, 12),
       p=st.tuples(probs, probs), q=st.tuples(probs, probs))
def test_pairwise_correlations_match_scipy_on_a_ba_sample(seed, top_k, p, q):
    net = with_type_probabilities(assign_types_by_degree(generate_ba(40, 2, 3, seed), top_k), p, q)
    samples = simulate_runs(net, 5, 200, seed)
    for depth in range(1, 6):
        block = samples.at_depth(depth)
        _assert_matches_scipy(pairwise_correlations(samples, depth)[(0, 1)],
                              block[:, 0].tolist(), block[:, 1].tolist())


def test_oversized_contingency_table_refused_before_allocating():
    # the fewest samples whose table (plus its working copy) is over budget
    n = math.isqrt(_MAX_CELLS // 2) + 1
    x = np.arange(n, dtype=float)
    y = x[::-1].copy()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"x has {n} distinct values and y has {n}"):
            correlations(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table and its working copy would be about 128 MiB
    assert peak < 1 << 16


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4)), data=st.data())
def test_sample_csv_round_trip(tmp_path_factory, shape, data):
    counts = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=math.prod(shape),
                                         max_size=math.prod(shape)))).reshape(shape)
    path = str(tmp_path_factory.mktemp("samples") / "s.csv")
    SampleMatrix(counts, shape[1], 7, None).to_csv(path)
    back = SampleMatrix.from_csv(path)
    assert back.counts.dtype == np.int64 and back.depth == shape[1]
    assert np.array_equal(back.counts, counts)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=3), data=st.data())
def test_pmf_csv_round_trip(tmp_path_factory, dims, data):
    weights = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(dims),
                                          max_size=math.prod(dims))))
    weights[data.draw(st.integers(0, weights.size - 1))] = 1.0
    pmf = JointPmf(tuple(dims), (weights / weights.sum()).reshape(dims))
    path = str(tmp_path_factory.mktemp("pmf") / "p.csv")
    pmf.to_csv(path)
    back = JointPmf.from_csv(path)
    assert back.dims == pmf.dims
    assert np.array_equal(back.probs, pmf.probs)


# run counts: the edge cases 1 and 2, the benchmark's 25, 1000 (several
# pairwise-summation blocks), and anything up to 400
_RUNS = st.sampled_from([1, 2, 25, 1000]) | st.integers(1, 400)


def _random_counts(runs, depth, types, high, seed):
    return np.random.default_rng(seed).integers(0, high, (runs, depth, types), endpoint=True)


def _row_by_row_sample_csv(samples: SampleMatrix) -> bytes:
    lines = ["run,depth," + ",".join(f"x_{t + 1}" for t in range(samples.num_types))]
    for k in range(samples.runs):
        for l in range(samples.depth):
            row = [k + 1, l + 1] + [int(v) for v in samples.counts[k, l]]
            lines.append(",".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(runs=_RUNS, depth=st.integers(1, 6), types=st.integers(1, 4),
       high=st.sampled_from([1, 30, 10**12]), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 7, 1 << 16]))
def test_sample_csv_bytes_match_a_row_by_row_writer(tmp_path_factory, runs, depth, types,
                                                    high, seed, chunk):
    samples = SampleMatrix(_random_counts(runs, depth, types, high, seed), depth, None, None)
    path = tmp_path_factory.mktemp("samples") / "s.csv"
    with mock.patch.object(hoprisk.pmf, "_CSV_ROWS", chunk):
        samples.to_csv(str(path))
    assert path.read_bytes() == _row_by_row_sample_csv(samples)


def _cell_by_cell_pmf_csv(pmf: JointPmf) -> bytes:
    lines = [",".join(f"x_{i + 1}" for i in range(pmf.num_types)) + ",prob"]
    for idx in np.ndindex(*pmf.dims):
        lines.append(",".join(str(v) for v in idx) + f",{float(pmf.probs[idx]):.17g}")
    return ("\n".join(lines) + "\n").encode()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 7, 1 << 16]))
def test_pmf_csv_bytes_match_a_cell_by_cell_writer(tmp_path_factory, dims, seed, chunk):
    # exact zeros, and probabilities over many decades (exponent notation)
    weights = np.random.default_rng(seed).random(dims) ** 8
    weights.flat[-1] = 1.0
    weights[weights < 1e-3] = 0.0
    pmf = JointPmf(tuple(dims), weights / weights.sum())
    path = tmp_path_factory.mktemp("pmf") / "p.csv"
    with mock.patch.object(hoprisk.pmf, "_CSV_ROWS", chunk):
        pmf.to_csv(str(path))
    assert path.read_bytes() == _cell_by_cell_pmf_csv(pmf)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(runs=_RUNS, depth=st.integers(1, 4), types=st.integers(1, 3),
       high=st.sampled_from([1, 30, 10**12]), seed=st.integers(0, 2**32 - 1))
def test_moments_csv_matches_per_column_moments(tmp_path_factory, runs, depth, types,
                                                high, seed):
    counts = _random_counts(runs, depth, types, high, seed)
    samples = SampleMatrix(counts, depth, None, None)
    folder = tmp_path_factory.mktemp("stats")
    samples.to_csv(str(folder / "s.csv"))
    assert main(["stats", "--in", str(folder / "s.csv"), "--out", str(folder / "st")]) == 0
    expected = []
    for l in range(1, depth + 1):
        block = counts[:, l - 1].astype(float)
        for t, tm in enumerate(marginal_moments(samples, l).per_type):
            col = block[:, t]
            sd = col.std(ddof=1) if runs > 1 else 0.0
            assert (f"{tm.mean:.17g}", f"{tm.sd:.17g}") == (f"{col.mean():.17g}", f"{sd:.17g}")
            expected.append(f"{l},{t + 1},{tm.mean:.17g},{tm.sd:.17g}")
    assert (folder / "st.moments.csv").read_text().splitlines()[1:] == expected


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(runs=st.integers(1, 30), depth=st.integers(1, 5), types=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_sample_csv_row_order_does_not_matter(tmp_path_factory, runs, depth, types, seed):
    folder = tmp_path_factory.mktemp("shuffled")
    SampleMatrix(_random_counts(runs, depth, types, 50, seed), depth, None, None).to_csv(
        str(folder / "sorted.csv"))
    header, *rows = (folder / "sorted.csv").read_text().splitlines()
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    (folder / "shuffled.csv").write_text("\n".join([header] + rows) + "\n")
    a = SampleMatrix.from_csv(str(folder / "sorted.csv"))
    b = SampleMatrix.from_csv(str(folder / "shuffled.csv"))
    assert b.depth == a.depth and b.counts.dtype == np.int64
    assert np.array_equal(b.counts, a.counts)
