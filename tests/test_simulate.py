import tracemalloc

import numpy as np
import pytest

import hoprisk.simulate
from hoprisk import (
    JointPmf,
    assign_types_by_degree,
    build_network,
    complete_network,
    empirical_pmf,
    generate_ba,
    joint_pmf,
    simulate_runs,
    single_run,
    with_type_probabilities,
)
from hoprisk.simulate import SampleMatrix, run_rng

from oracle import brute_force_joint_pmf, random_network


def test_single_run_nothing_happens():
    net = complete_network([2, 3], 0.0, 0.9)
    trace = single_run(net, 3, run_rng(0, 0, net))
    assert all(s == frozenset() for s in trace.newly_by_depth)
    assert trace.cumulative_counts.sum() == 0


def test_single_run_everything_direct():
    net = complete_network([2, 3], 1.0, 0.1)
    trace = single_run(net, 2, run_rng(0, 0, net))
    assert trace.newly_by_depth[0] == frozenset(range(5))
    assert tuple(trace.cumulative_counts[0]) == (2, 3)
    assert trace.newly_by_depth[1] == frozenset()


def test_single_run_deterministic_cascade():
    net = build_network(
        [(0, 0, 1.0), (1, 0, 0.0), (2, 0, 0.0)], [(0, 1), (1, 2)], q=1.0
    )
    trace = single_run(net, 2, run_rng(1, 0, net))
    assert trace.newly_by_depth[0] == frozenset({0})
    assert trace.newly_by_depth[1] == frozenset({1})
    assert trace.newly_by_depth[2] == frozenset({2})
    assert trace.cumulative_set(1) == frozenset({0, 1})


def test_single_run_depth_validation(example_net):
    with pytest.raises(ValueError):
        single_run(example_net, 0, run_rng(0, 0, example_net))


def test_trace_invariants_random(example_net):
    for k in range(200):
        trace = single_run(example_net, 4, run_rng(42, k, example_net))
        seen: set[int] = set()
        for newly in trace.newly_by_depth:
            assert not (newly & seen)  # a node falls at most once
            seen |= newly
        diffs = np.diff(trace.cumulative_counts, axis=0)
        assert (diffs >= 0).all()
        for depth in range(4):
            assert trace.cumulative_set(depth) <= trace.cumulative_set(depth + 1)


def test_simulate_runs_shape_and_determinism(example_net):
    a = simulate_runs(example_net, 3, 50, master_seed=9)
    b = simulate_runs(example_net, 3, 50, master_seed=9)
    assert a.counts.shape == (50, 3, 2)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_runs(example_net, 3, 50, master_seed=10)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_single_row(example_net):
    sm = simulate_runs(example_net, 2, 1, master_seed=0)
    assert sm.counts.shape == (1, 2, 2)


def _ba30():
    net = assign_types_by_degree(generate_ba(30, 2, 3, rng_seed=4), 5)
    return with_type_probabilities(net, [0.1, 0.2], [0.4, 0.3])


@pytest.mark.parametrize("make_net", [lambda: complete_network([2, 3], 0.2, 0.1), _ba30])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, make_net):
    net = make_net()
    runs = 300
    default = simulate_runs(net, 4, runs, master_seed=3).counts
    slots = hoprisk.simulate._slots(net)
    for block_runs in (1, 7, runs):
        monkeypatch.setattr(hoprisk.simulate, "_BLOCK_CELLS", block_runs * slots)
        assert np.array_equal(simulate_runs(net, 4, runs, master_seed=3).counts, default)


@pytest.mark.parametrize("make_net", [lambda: complete_network([2, 3], 0.2, 0.1), _ba30])
def test_run_k_is_single_run_on_run_rng(monkeypatch, make_net):
    net = make_net()
    monkeypatch.setattr(hoprisk.simulate, "_BLOCK_CELLS", 16 * hoprisk.simulate._slots(net))
    samples = simulate_runs(net, 5, 100, master_seed=21)
    types = np.asarray(net.types)
    for k in (0, 1, 15, 16, 57, 99):
        trace = single_run(net, 5, run_rng(21, k, net))
        assert np.array_equal(trace.cumulative_counts[1:], samples.counts[k])
        for depth in range(6):
            down = sorted(trace.cumulative_set(depth))
            expected = np.bincount(types[down], minlength=net.num_types)
            assert np.array_equal(trace.cumulative_counts[depth], expected)


def _round_by_round(net, depth, u):
    """Reference: play the rounds one at a time over one run's slots; each
    front node attempts every intact neighbour once, with edge (s, t)'s slot."""
    n = net.n_nodes
    arcs = sorted((t, s) for a, b in net.edges for s, t in ((a, b), (b, a)))
    slot = {arc: n + e for e, arc in enumerate(arcs)}
    front = {i for i in range(n) if u[i] < net.p[i]}
    down = set(front)
    newly = [frozenset(front)]
    for _ in range(depth):
        front = {t for t, s in arcs
                 if s in front and t not in down and u[slot[(t, s)]] < net.q[(s, t)]}
        down |= front
        newly.append(frozenset(front))
    return tuple(newly)


def test_kernel_matches_round_by_round_play():
    rng = np.random.default_rng(7)
    for case in range(200):
        net = random_network(rng, max_nodes=7, max_edges=12)
        depth = int(rng.integers(1, 6))
        u = run_rng(case, 3, net).random(hoprisk.simulate._slots(net))
        trace = single_run(net, depth, run_rng(case, 3, net))
        assert trace.newly_by_depth == _round_by_round(net, depth, u)


def test_shallower_runs_are_a_prefix_of_deeper_ones():
    net = _ba30()
    for depth in (1, 3):
        shallow = simulate_runs(net, depth, 200, master_seed=8).counts
        deep = simulate_runs(net, depth + 2, 200, master_seed=8).counts
        assert np.array_equal(shallow, deep[:, :depth])


def test_memory_does_not_grow_with_the_run_count():
    # the working set is a fixed number of blocks; only the output grows with K
    net = build_network(
        [(0, 0, 0.3), (1, 0, 0.5), (2, 1, 0.4)], [(0, 1), (1, 2)], q=0.6
    )
    tracemalloc.start()
    try:
        samples = simulate_runs(net, 2, 1_000_000, master_seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - samples.counts.nbytes < 16 * 2**20


def test_network_without_edges_has_only_direct_hits():
    net = build_network([(0, 0, 0.5), (1, 1, 0.5)], [])
    counts = simulate_runs(net, 3, 50, master_seed=2).counts
    assert (counts == counts[:, :1]).all()
    assert 0 < counts.sum() < 50 * 3 * 2


def test_empirical_pmf_point_mass():
    net = complete_network([2, 3], 0.0, 0.5)
    sm = simulate_runs(net, 2, 100, master_seed=1)
    pmf = empirical_pmf(sm, 2)
    assert pmf.probs[0, 0] == 1.0
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_empirical_pmf_hand_built_uniform():
    counts = np.zeros((4, 1, 2), dtype=np.int64)
    counts[0, 0] = counts[1, 0] = (0, 0)
    counts[2, 0] = counts[3, 0] = (2, 3)
    sm = SampleMatrix(counts=counts, depth=1, master_seed=None, type_sizes=(2, 3))
    pmf = empirical_pmf(sm, 1)
    assert pmf.probs[0, 0] == 0.5
    assert pmf.probs[2, 3] == 0.5


@pytest.mark.parametrize("shape, depth", [((3, 2, 2), 5), ((3, 2, 2), 1), ((3, 2), 2)])
def test_sample_matrix_refuses_a_depth_that_does_not_match_counts(shape, depth):
    with pytest.raises(ValueError, match=rf"counts of shape \({shape[0]}, "):
        SampleMatrix(counts=np.zeros(shape, dtype=np.int64), depth=depth, master_seed=None,
                     type_sizes=None)


def test_empirical_pmf_requires_sizes():
    counts = np.zeros((2, 1, 2), dtype=np.int64)
    sm = SampleMatrix(counts=counts, depth=1, master_seed=None, type_sizes=None)
    with pytest.raises(ValueError, match="type sizes"):
        empirical_pmf(sm, 1)
    assert empirical_pmf(sm, 1, type_sizes=(2, 3)).probs[0, 0] == 1.0


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((2, 2), "run 2, depth 1: count 3 of type 2 exceeds its size 2"),
        ((2,), "1 type sizes for 2 types"),
        ((2, 3, 4), "3 type sizes for 2 types"),
    ],
)
def test_empirical_pmf_names_a_type_size_mismatch(sizes, message):
    counts = np.array([[[0, 0]], [[2, 3]]], dtype=np.int64)
    sm = SampleMatrix(counts=counts, depth=1, master_seed=None, type_sizes=None)
    with pytest.raises(ValueError) as err:
        empirical_pmf(sm, 1, type_sizes=sizes)
    assert str(err.value) == message


def test_empirical_matches_exact_on_tiny_net():
    # million-run agreement with the exact distribution, cell by cell
    net = build_network(
        [(0, 0, 0.3), (1, 0, 0.5), (2, 1, 0.4)], [(0, 1), (1, 2)], q=0.6
    )
    runs = 1_000_000
    sm = simulate_runs(net, 2, runs, master_seed=11)
    emp = empirical_pmf(sm, 2).probs
    exact = joint_pmf(net, 2).probs
    se = np.sqrt(exact * (1.0 - exact) / runs)
    gap = np.abs(emp - exact)
    assert (gap <= 5.0 * se + 1e-12).all()


def test_sample_csv_round_trip(tmp_path, example_net):
    sm = simulate_runs(example_net, 3, 20, master_seed=4)
    path = tmp_path / "samples.csv"
    sm.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "run,depth,x_1,x_2"
    assert len(lines) == 1 + 20 * 3
    loaded = SampleMatrix.from_csv(str(path))
    assert np.array_equal(loaded.counts, sm.counts)
    assert loaded.depth == 3


def test_sample_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,nope\n")
    with pytest.raises(ValueError, match="header"):
        SampleMatrix.from_csv(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("run,depth,x_1\n")
    with pytest.raises(ValueError, match="no sample rows"):
        SampleMatrix.from_csv(str(empty))


@pytest.mark.parametrize(
    "body, match",
    [
        ("1,1,0\n1,1,5\n", "duplicate"),
        ("1,1,3\n0,1,7\n", ">= 1"),
        ("1,0,3\n1,1,7\n", ">= 1"),
        ("1,1,-4\n", "negative"),
        ("1,1,2\n1,2,3\n2,1,2\n", "missing"),
    ],
)
def test_sample_csv_rejects_bad_rows(tmp_path, body, match):
    path = tmp_path / "samples.csv"
    path.write_text("run,depth,x_1\n" + body)
    with pytest.raises(ValueError, match=match):
        SampleMatrix.from_csv(str(path))


@pytest.mark.parametrize(
    "body, match",
    [
        # (1, 0) is missing, so the row count still matches the 2 x 2 table
        ("0,0,0.25\n0,0,0.25\n0,1,0.25\n1,1,0.25\n", "duplicate"),
        # -1 would index the last cell, again with the row count matching
        ("0,0,0.25\n0,1,0.25\n1,0,0.25\n-1,1,0.25\n", "negative"),
    ],
)
def test_pmf_csv_rejects_bad_cells(tmp_path, body, match):
    path = tmp_path / "pmf.csv"
    path.write_text("x_1,x_2,prob\n" + body)
    with pytest.raises(ValueError, match=match):
        JointPmf.from_csv(str(path))


@pytest.mark.parametrize("sizes, match", [((3,), "exceeds"), ((9, 9), "type sizes")])
def test_sample_csv_checks_counts_against_type_sizes(tmp_path, sizes, match):
    path = tmp_path / "samples.csv"
    path.write_text("run,depth,x_1\n1,1,9\n")
    with pytest.raises(ValueError, match=match) as err:
        SampleMatrix.from_csv(str(path), type_sizes=sizes)
    assert str(path) in str(err.value)
    # a count equal to its type size fits
    assert SampleMatrix.from_csv(str(path), type_sizes=(9,)).type_sizes == (9,)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_pmf_rejects_non_finite_probabilities(tmp_path, bad):
    with pytest.raises(ValueError, match="finite"):
        JointPmf((2,), np.array([float(bad), 1.0]))
    path = tmp_path / "pmf.csv"
    path.write_text(f"x_1,prob\n0,{bad}\n1,1.0\n")
    with pytest.raises(ValueError, match="finite"):
        JointPmf.from_csv(str(path))


@pytest.mark.parametrize("field", ["2.5", "abc", ""])
def test_sample_csv_names_the_file_and_line_of_a_non_integer(tmp_path, field):
    path = tmp_path / "samples.csv"
    path.write_text(f"run,depth,x_1\n1,1,3\n1,2,{field}\n")
    with pytest.raises(ValueError) as err:
        SampleMatrix.from_csv(str(path))
    assert str(err.value) == (f"{path}: line 3: expected 3 comma-separated base-10 "
                              f"integers, got '1,2,{field}'")


@pytest.mark.parametrize("body", ["1,1,3\n1,2\n", "1,1,3,4\n", "1,1,3\n# note\n", "1,1,3\n \n"])
def test_sample_csv_rejects_ragged_rows_comments_and_blank_fields(tmp_path, body):
    path = tmp_path / "samples.csv"
    path.write_text("run,depth,x_1\n" + body)
    with pytest.raises(ValueError, match=r"line \d: expected 3 comma-separated") as err:
        SampleMatrix.from_csv(str(path))
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("line", ["1.0,0,0.5", "abc,0,0.5", ",0,0.5", "1,0,", "1,0",
                                  "1,0,0.5,7", "# note", " "])
def test_pmf_csv_names_the_file_and_line_of_a_malformed_row(tmp_path, line):
    path = tmp_path / "pmf.csv"
    path.write_text(f"x_1,x_2,prob\n0,0,0.5\n\n{line}\n")
    with pytest.raises(ValueError) as err:
        JointPmf.from_csv(str(path))
    assert str(err.value) == (f"{path}: line 4: expected 2 comma-separated base-10 integers "
                              f"and 1 number, got {line!r}")


@pytest.mark.parametrize(
    "reader, header, body, message",
    [
        (SampleMatrix.from_csv, "run,depth,x_1", "1,1,0\n1,2,0\n\n1,1,5\n",
         "line 5: duplicate cell (run, depth), first given on line 2"),
        (SampleMatrix.from_csv, "run,depth,x_1,x_2", "1,1,0,0\n1,2,0,-3\n",
         "line 3: run, depth must be >= 1 and x_1, x_2 non-negative, got '1,2,0,-3'"),
        (JointPmf.from_csv, "x_1,prob", "0,0.5\n1,-0.5\n",
         "line 3: x_1 must be >= 0 and prob non-negative, got '1,-0.5'"),
        (JointPmf.from_csv, "x_1,x_2,prob", "0,0,0.5\n1,1,0.5\n",
         "missing cells: 2 rows for the 2 x 2 grid of (x_1, x_2)"),
        (JointPmf.from_csv, "x_1,prob", "\n\n", "no PMF rows"),
    ],
)
def test_grid_csv_errors_name_the_file_and_line(tmp_path, reader, header, body, message):
    path = tmp_path / "grid.csv"
    path.write_text(f"{header}\n{body}")
    with pytest.raises(ValueError) as err:
        reader(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_sample_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("run,depth,x_1\n1,1,3\n\n1,2,4\n\n")
    assert SampleMatrix.from_csv(str(path)).counts.tolist() == [[[3], [4]]]


def test_sample_csv_read_peaks_within_six_times_its_result(tmp_path):
    path = tmp_path / "samples.csv"
    counts = np.random.default_rng(5).integers(0, 50, size=(25000, 4, 2))
    SampleMatrix(counts=counts, depth=4, master_seed=None, type_sizes=None).to_csv(str(path))
    tracemalloc.start()
    try:
        loaded = SampleMatrix.from_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10^5 rows: the lines of the file are never all held as strings
    assert np.array_equal(loaded.counts, counts)
    assert peak <= 6 * counts.nbytes


def test_monte_carlo_matches_the_oracle():
    rng = np.random.default_rng(77)
    runs = 10**5
    for i in range(20):
        net = random_network(rng, max_nodes=6, max_edges=8)
        samples = simulate_runs(net, 3, runs, 500 + i)
        for depth in (1, 2, 3):
            want = brute_force_joint_pmf(net, depth).probs
            got = empirical_pmf(samples, depth).probs
            assert np.array_equal(got[want == 0], want[want == 0])
            # every cell within 4 binomial standard errors of the exact value
            assert (np.abs(got - want) <= 4 * np.sqrt(want * (1 - want) / runs)).all()
