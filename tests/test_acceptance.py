"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a line only prints after its assertions all held).
"""

import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hoprisk import (
    CompleteHomogParams,
    TwoClassParams,
    assign_types_by_degree,
    bipartite_pmf,
    check_orthant_monotone,
    complete_bipartite_network,
    complete_homog_pmf,
    complete_network,
    correlations,
    empirical_pmf,
    generate_ba,
    joint_pmf,
    parse_rules,
    save_json,
    score_distribution,
    score_vector,
    simulate_runs,
    single_run,
    star_network,
    star_pmf,
    with_type_probabilities,
)
from hoprisk.cli import main
from hoprisk.simulate import run_rng

from oracle import brute_force_joint_pmf, random_network
from tables import SCORE_ASSIGNMENTS, SCORE_RULES_JSON, TABLE_GRIDS


def test_criterion_1_reference_grid_reproduction(example_net):
    start = time.perf_counter()
    pmfs = {depth: joint_pmf(example_net, depth) for depth in (2, 3, 4)}
    elapsed = time.perf_counter() - start
    for depth, grid in TABLE_GRIDS.items():
        assert_allclose(pmfs[depth].probs, grid, atol=5e-5)
    assert pmfs[2].probs[1, 1] == pytest.approx(0.1175, abs=5e-5)
    for depth, expected in ((2, 0.0152), (3, 0.0181), (4, 0.0186)):
        assert pmfs[depth].probs[2, 3] == pytest.approx(expected, abs=5e-5)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: exact engine reproduces the reference depth-2/3/4 "
          f"grids to 5e-5 in {elapsed * 1000:.0f} ms")


def test_criterion_2_brute_force_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 50:
        net = random_network(rng, max_nodes=5, max_edges=6)
        depth = int(rng.integers(1, 4))
        got = joint_pmf(net, depth).probs
        want = brute_force_joint_pmf(net, depth).probs
        worst = max(worst, float(np.abs(got - want).max()))
        assert_allclose(got, want, atol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: {checked} random graphs match the enumeration "
          f"oracle (worst gap {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_3_closed_forms_match_engine():
    rng = np.random.default_rng(31)
    done = 0
    while done < 20:
        m = int(rng.integers(1, 4))
        sizes = tuple(int(v) for v in rng.integers(1, 5, size=m))
        if sum(sizes) > 8:
            continue
        p, q = float(rng.random()), float(rng.random())
        depth = int(rng.integers(1, 5))
        fast = complete_homog_pmf(CompleteHomogParams(sizes, p, q, depth))
        slow = joint_pmf(complete_network(sizes, p, q), depth)
        assert_allclose(fast.probs, slow.probs, atol=1e-12)
        done += 1
    for _ in range(20):
        n = int(rng.integers(2, 9))
        params = TwoClassParams(*(float(rng.random()) for _ in range(4)))
        net = star_network(n, params.p1, params.p2, params.q12, params.q21)
        for depth in (1, 2):
            assert_allclose(
                star_pmf(params, n, depth).probs, joint_pmf(net, depth).probs,
                atol=1e-12,
            )
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = TwoClassParams(*(float(rng.random()) for _ in range(4)))
        net = complete_bipartite_network(
            n1, n2, params.p1, params.p2, params.q12, params.q21
        )
        assert_allclose(
            bipartite_pmf(params, n1, n2).probs, joint_pmf(net, 1).probs, atol=1e-12
        )
    print("\nACCEPTANCE 3 PASS: complete/star/bipartite closed forms equal the "
          "exact engine to 1e-12 across 20+ random parameterizations each")


def test_criterion_4_normalization():
    rng = np.random.default_rng(41)
    for _ in range(15):
        net = random_network(rng, max_nodes=8, max_edges=12)
        pmf = joint_pmf(net, int(rng.integers(0, 4)))
        assert abs(pmf.probs.sum() - 1.0) <= 1e-9
    for _ in range(10):
        params = TwoClassParams(*(float(rng.random()) for _ in range(4)))
        assert abs(star_pmf(params, int(rng.integers(2, 9)), 2).probs.sum() - 1.0) <= 1e-9
        assert abs(bipartite_pmf(params, 4, 4).probs.sum() - 1.0) <= 1e-9
        homog = CompleteHomogParams(
            (int(rng.integers(1, 5)), int(rng.integers(1, 4))),
            float(rng.random()), float(rng.random()), int(rng.integers(1, 5)),
        )
        assert abs(complete_homog_pmf(homog).probs.sum() - 1.0) <= 1e-9
    for _ in range(3):
        net = random_network(rng, max_nodes=6, max_edges=9)
        samples = simulate_runs(net, 2, 500, master_seed=int(rng.integers(1 << 30)))
        assert abs(empirical_pmf(samples, 2).probs.sum() - 1.0) <= 1e-9
    print("\nACCEPTANCE 4 PASS: every produced PMF (exact, closed-form, empirical) "
          "sums to 1 within 1e-9")


def test_criterion_5_monte_carlo_consistency(example_net):
    runs = 100_000
    depth = 2
    table = TABLE_GRIDS[2]
    counts = np.zeros(table.shape)
    for k in range(runs):
        trace = single_run(example_net, depth, run_rng(1905, k, example_net))
        for l in range(depth):
            assert trace.cumulative_set(l) <= trace.cumulative_set(l + 1)
        x1, x2 = trace.cumulative_counts[depth]
        counts[x1, x2] += 1
    emp = counts / runs
    se = np.sqrt(table * (1.0 - table) / runs)
    gaps = np.abs(emp - table) / se
    assert gaps.max() <= 4.0, f"worst cell at {gaps.max():.2f} standard errors"
    print(f"\nACCEPTANCE 5 PASS: {runs} runs land within 4 standard errors of the "
          f"reference depth-2 grid (worst {gaps.max():.2f} SE); depth nesting held "
          f"in 100% of runs")


def test_criterion_6_stochastic_order_properties():
    from dataclasses import replace

    rng = np.random.default_rng(61)
    instances = 0
    while instances < 30:
        net = random_network(rng, max_nodes=7, max_edges=10)
        depth = int(rng.integers(1, 4))
        base = joint_pmf(net, depth)

        deeper = joint_pmf(net, depth + 1)
        report = check_orthant_monotone(base, deeper, tol=1e-12)
        assert report.passed, f"depth: {report.summary()}"

        p_hi = tuple(pi + float(rng.random()) * (1.0 - pi) for pi in net.p)
        report = check_orthant_monotone(
            base, joint_pmf(replace(net, p=p_hi), depth), tol=1e-12
        )
        assert report.passed, f"p: {report.summary()}"

        q_hi = {k: v + float(rng.random()) * (1.0 - v) for k, v in net.q.items()}
        report = check_orthant_monotone(
            base, joint_pmf(replace(net, q=q_hi), depth), tol=1e-12
        )
        assert report.passed, f"q: {report.summary()}"
        instances += 1
    print("\nACCEPTANCE 6 PASS: upper-orthant survival and lower-orthant CDF "
          "inequalities held (tol 1e-12) for 30 random instances under deeper "
          "propagation, larger p, and larger q")


def test_criterion_7_scale_free_trends():
    start = time.perf_counter()
    net = generate_ba(200, 2, 5, rng_seed=1)
    net = assign_types_by_degree(net, 20)
    net = with_type_probabilities(net, [0.05, 0.15], [0.2, 0.3])
    samples = simulate_runs(net, 10, 10_000, master_seed=2)
    sizes = np.asarray(net.type_sizes, dtype=float)
    mean_props = samples.counts.mean(axis=0) / sizes  # (depth, type)
    assert (np.diff(mean_props, axis=0) >= -1e-12).all(), "means must not decrease"
    jump = (mean_props[1] - mean_props[0]) / mean_props[0]
    assert (jump > 0.20).all(), f"depth 1->2 jump too small: {jump}"
    dep_shallow = correlations(samples.counts[:, 1, 0], samples.counts[:, 1, 1])
    dep_deep = correlations(samples.counts[:, 9, 0], samples.counts[:, 9, 1])
    assert dep_deep.pearson < dep_shallow.pearson
    assert dep_deep.kendall < dep_shallow.kendall
    assert dep_deep.spearman < dep_shallow.spearman
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 7 PASS: scale-free experiment shows monotone means "
          f"(jump {jump[0] * 100:.0f}%/{jump[1] * 100:.0f}% from depth 1 to 2) and "
          f"correlations shrinking from depth 2 to 10, in {elapsed:.0f}s")


def test_criterion_8_scoring_table():
    rules = parse_rules(SCORE_RULES_JSON, type_sizes=(5, 2, 1))
    for vector, score in SCORE_ASSIGNMENTS:
        assert score_vector(rules, vector) == score, vector
    net = complete_network([5, 2, 1], 0.3, 0.2)
    dist = score_distribution(rules, joint_pmf(net, 2))
    assert abs(sum(dist.values()) - 1.0) <= 1e-9
    print("\nACCEPTANCE 8 PASS: the sample scoring table reproduces all listed "
          "vector->score assignments and score masses sum to 1")


def test_criterion_9_byte_identical_reruns(tmp_path, example_net):
    net_path = tmp_path / "k5.json"
    save_json(example_net, str(net_path))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text('{"default": 1, "rules": [{"pattern": ["==0", "==0"], "score": 0}]}')

    d = tmp_path / "out"
    d.mkdir()

    def run_all() -> dict[str, bytes]:
        # identical invocations, identical paths: files must not change
        gen = d / "ba.json"
        assert main(["generate", "ba", "--nodes", "60", "--attach", "2", "--init", "5",
                     "--top-k", "10", "--p", "0.05,0.15", "--q", "0.2,0.3",
                     "--seed", "77", "--out", str(gen)]) == 0
        pmf = d / "pmf.csv"
        assert main(["exact", "--network", str(net_path), "-L", "3", "--out", str(pmf)]) == 0
        samples = d / "samples.csv"
        assert main(["simulate", "--network", str(net_path), "-L", "3", "-K", "200",
                     "--seed", "9", "--out", str(samples)]) == 0
        stats_prefix = d / "st"
        assert main(["stats", "--in", str(samples), "--out", str(stats_prefix)]) == 0
        scores = d / "scores.csv"
        assert main(["score", "--pmf", str(pmf), "--rules", str(rules_path),
                     "--out", str(scores)]) == 0
        return {
            f.name: f.read_bytes()
            for f in sorted(d.iterdir())
            if f.is_file()
        }

    first = run_all()
    second = run_all()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    # manifests are valid JSON and carry the seed
    manifest = json.loads(first["samples.csv.manifest.json"])
    assert manifest["parameters"]["seed"] == 9
    print(f"\nACCEPTANCE 9 PASS: {len(first)} output files (data + manifests) are "
          f"byte-identical across reruns of every command")
