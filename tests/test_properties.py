"""Property tests: the exact engine against the brute-force oracle and the
lumped engine on generated networks, and the coupling of Monte Carlo runs.

Examples are derandomized and capped, so every run checks the same cases.
"""

from dataclasses import replace
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hoprisk import (
    CompleteHomogParams,
    TwoClassParams,
    bipartite_pmf,
    build_network,
    complete_bipartite_network,
    complete_homog_pmf,
    complete_network,
    joint_pmf,
    simulate_runs,
    star_network,
    star_pmf,
)

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


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(net=networks(), depth=st.integers(1, 4), seed=st.integers(0, 2**32), data=st.data())
def test_raising_p_or_q_raises_every_run_at_the_same_seed(net, depth, seed, data):
    # common random numbers: each run reads the same slots whatever p and q are
    p_hi = tuple(data.draw(st.floats(pi, 1.0)) for pi in net.p)
    q_hi = {pair: data.draw(st.floats(qv, 1.0)) for pair, qv in sorted(net.q.items())}
    base = simulate_runs(net, depth, 64, seed).counts
    for raised in (replace(net, p=p_hi), replace(net, q=q_hi), replace(net, p=p_hi, q=q_hi)):
        assert (simulate_runs(raised, depth, 64, seed).counts >= base).all()
