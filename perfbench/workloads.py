"""The benchmark's jobs and workloads: inputs from a seed, work, output checks.

Each of the four jobs is a ``(setup, job, check)`` triple: ``setup`` builds
the inputs, ``job`` is the work being measured, ``check`` returns named
pass/fail results. A job times its work as a fixed sequence of short named
units (one or a few library calls each) on the :class:`Clock` it is given;
``run.py`` adds up, unit by unit, the fastest time seen in a run. A workload
runs its jobs in turn.
Jobs call the library through attribute lookups on ``hoprisk`` and
``hoprisk.cli`` at call time, so the trace wrappers see them. Checks compute
their expected values with numpy or from frozen references; where they call
the library for a reference value, the worker has paused tracing.

Why each job and workload exists, and which layers it loads or leaves idle,
is in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np

import hoprisk as hp
import hoprisk.cli

NORM_TOL = 1e-9
REFERENCE_TOL = 1e-12
GRID_TOL = 5e-5
MC_SIGMAS = 4.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Job sizes. Every unit takes about 60 ms or less on a 2-core Xeon, so that
# a run times each unit dozens of times, and short samples catch the host's
# fast moments (see README.md). QUICK shrinks every job for smoke tests
# (``run.py --quick``).
FULL = {"ba7_depths": (1, 2, 3), "servers": 5, "workstations": 45,
        "ba200_depth": 10, "ba200_calls": 6, "ba200_runs": 25,
        "k5_chunks": 40, "k5_runs": 250}
QUICK = {"ba7_depths": (1, 2), "servers": 4, "workstations": 36,
         "ba200_depth": 3, "ba200_calls": 2, "ba200_runs": 10,
         "k5_chunks": 2, "k5_runs": 1000}

# exact-ba7: three fixed preferential-attachment draws. The workload seed only
# relabels their nodes, so every seed does the same work and has the same PMFs.
BA7_NODES = 7
BA7_TOPOLOGY_SEEDS = (9, 10, 11)
P_BY_TYPE = (0.05, 0.15)
Q_BY_TYPE = (0.2, 0.3)
BA7_RULES = {
    "default": 4,
    "rules": [
        {"pattern": ["==0", "==0"], "score": 0},
        {"pattern": ["==0", "<=2"], "score": 1},
        {"pattern": ["==0", "*"], "score": 2},
        {"pattern": ["==1", "<=3"], "score": 3},
        {"pattern": [">=2", "*"], "score": 5},
    ],
}

# closed-5x45: the paper's 1:9 split of servers and workstations, at 5 and 45
# rather than 20 and 180 (7 s for one homogeneous PMF there), for three
# parameter sets. The seed scales each probability by a factor in
# [0.99, 1.01]; the closed forms' loop counts do not depend on it.
CLOSED_CASES = 3
CLOSED_HOMOG_P, CLOSED_HOMOG_Q = 0.05, 0.01
CLOSED_DEPTH = 2
K5_SIZES, K5_P, K5_Q = (2, 3), 0.2, 0.1
K5_DEPTHS = (2, 3, 4)
CLOSED_RULES = {
    "default": 4,
    "rules": [
        {"pattern": ["==0", "==0"], "score": 0},
        {"pattern": ["==0", "<=4"], "score": 1},
        {"pattern": ["==0", "*"], "score": 2},
        {"pattern": ["<=1", "<=9"], "score": 3},
        {"pattern": [">=3", "*"], "score": 5},
    ],
}

# Reference grids for K5 = complete_network([2, 3], p=0.2, q=0.1), 4 decimals;
# rows x_1 = 0..2, columns x_2 = 0..3.
K5_GRIDS = {
    2: [[0.3277, 0.1612, 0.0588, 0.0131],
        [0.1075, 0.1175, 0.0788, 0.0245],
        [0.0196, 0.0394, 0.0367, 0.0152]],
    3: [[0.3277, 0.1612, 0.0588, 0.0126],
        [0.1075, 0.1175, 0.0755, 0.0255],
        [0.0196, 0.0377, 0.0383, 0.0181]],
    4: [[0.3277, 0.1612, 0.0588, 0.0126],
        [0.1075, 0.1175, 0.0755, 0.0253],
        [0.0196, 0.0377, 0.0380, 0.0186]],
}

# mc-ba200: the paper's scale-free experiment through the CLI. The graph is
# one fixed draw, because a run's cost depends on how far the attack spreads
# on it; the workload seed drives the Monte Carlo stream.
BA200_ARGS = ["--nodes", "200", "--attach", "2", "--init", "5", "--top-k", "20",
              "--p", "0.05,0.15", "--q", "0.2,0.3", "--seed", "1"]

# mc-k5: the 5-node example at depth 2, many cheap runs in short batches.
K5_MC_DEPTH = 2


class Clock:
    """The time of each named unit of one repetition of a job."""

    def __init__(self) -> None:
        self.units: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.units[name] = time.perf_counter() - start


class Checks:
    """Named pass/fail results; a check that raises counts as failed."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, fn, *args) -> None:
        try:
            ok = bool(fn(*args))
        except Exception:  # a raising check is a failed check, not a crash
            ok = False
        self.results.append((name, ok))

    def merge(self, tag: str, other: "Checks") -> None:
        """Add ``other``'s results, each name prefixed with ``tag``."""
        self.results += [(f"{tag} {name}", ok) for name, ok in other.results]

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def _normalised(probs) -> bool:
    probs = np.asarray(probs)
    return probs.min() >= 0.0 and abs(float(probs.sum()) - 1.0) <= NORM_TOL


def _close(got, want, tol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and float(np.abs(got - want).max()) <= tol


def _marginal_means(probs) -> list[float]:
    probs = np.asarray(probs)
    means = []
    for axis, dim in enumerate(probs.shape):
        other = tuple(a for a in range(probs.ndim) if a != axis)
        means.append(float((np.arange(dim) * probs.sum(axis=other)).sum()))
    return means


def _scores_sum_to_one(scores: dict) -> bool:
    return abs(sum(scores.values()) - 1.0) <= NORM_TOL


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _manifest_outputs(anchor: str) -> dict:
    with open(anchor + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- exact-ba7

def ba7_base_network(topology_seed: int):
    """One fixed BA draw, typed by degree, before relabelling."""
    net = hp.generate_ba(BA7_NODES, 2, 3, topology_seed)
    net = hp.assign_types_by_degree(net, 3)
    return hp.with_type_probabilities(net, P_BY_TYPE, Q_BY_TYPE)


def relabel(net, perm):
    """Copy of ``net`` with node i renamed ``perm[i]``; types, p and q follow."""
    perm = [int(v) for v in perm]
    nodes = [(perm[i], net.types[i], net.p[i]) for i in range(net.n_nodes)]
    edges = [(perm[u], perm[v]) for u, v in net.edges]
    q = {(perm[u], perm[v]): quv for (u, v), quv in net.q.items()}
    return hp.build_network(nodes, edges, q=q)


def setup_exact(seed: int, workdir: str, sizes: dict) -> dict:
    rng = np.random.default_rng(seed)
    graphs = {}
    for topology_seed in BA7_TOPOLOGY_SEEDS:
        path = os.path.join(workdir, f"ba7-g{topology_seed}.json")
        hp.save_json(relabel(ba7_base_network(topology_seed), rng.permutation(BA7_NODES)),
                     path)
        net = hp.load_json(path)
        graphs[f"g{topology_seed}"] = {
            "net": net, "rules": hp.parse_rules(json.dumps(BA7_RULES), net.type_sizes)}
    return {"graphs": graphs, "workdir": workdir, "depths": sizes["ba7_depths"]}


def job_exact(inp: dict, clock: Clock | None = None) -> dict:
    clock = clock or Clock()
    depths = inp["depths"]
    out = {}
    for graph, case in inp["graphs"].items():
        pmfs = {}
        for depth in depths:
            with clock(f"{graph} joint_pmf L={depth}"):
                pmfs[depth] = hp.joint_pmf(case["net"], depth)
        with clock(f"{graph} orthant checks"):
            orders = [hp.check_orthant_monotone(pmfs[lo], pmfs[hi],
                                                claim=f"depth {lo} <= {hi}")
                      for lo, hi in zip(depths, depths[1:])]
        deepest = pmfs[depths[-1]]
        with clock(f"{graph} score_distribution"):
            scores = hp.score_distribution(case["rules"], deepest)
        path = os.path.join(inp["workdir"], f"pmf-{graph}.csv")
        with clock(f"{graph} PMF CSV round-trip"):
            deepest.to_csv(path)
            reloaded = hp.JointPmf.from_csv(path)
        out[graph] = {"pmfs": pmfs, "orders": orders, "scores": scores, "reloaded": reloaded}
    return out


def check_exact(inp: dict, out: dict, ref: dict) -> Checks:
    checks = Checks()
    for graph, graph_out in out.items():
        checks.merge(graph, check_exact_graph(graph_out, ref["exact-ba7"][graph]))
    return checks


def check_exact_graph(out: dict, ref: dict) -> Checks:
    checks = Checks()
    for depth, pmf in out["pmfs"].items():
        checks.add(f"L={depth} normalised", _normalised, pmf.probs)
        checks.add(f"L={depth} matches reference", _close, pmf.probs,
                   ref["pmf"][str(depth)], REFERENCE_TOL)
    for report in out["orders"]:
        checks.add(f"orthant order {report.claim}", lambda r: r.passed, report)
    scores = out["scores"]
    checks.add("scores sum to 1", _scores_sum_to_one, scores)
    deepest = max(out["pmfs"])
    if deepest == max(int(depth) for depth in ref["pmf"]):  # scores are frozen there
        checks.add("scores match reference", lambda: sorted(scores) == sorted(
            int(k) for k in ref["scores"]) and all(
            abs(scores[int(k)] - v) <= REFERENCE_TOL for k, v in ref["scores"].items()))
    checks.add("PMF CSV round-trip is exact", lambda: np.array_equal(
        out["reloaded"].probs, out["pmfs"][deepest].probs))
    return checks


# -------------------------------------------------------------- closed-5x45

def setup_closed(seed: int, workdir: str, sizes: dict) -> dict:
    shape = (sizes["servers"], sizes["workstations"])
    params = []
    for scale in np.random.default_rng(seed).uniform(0.99, 1.01, size=(CLOSED_CASES, 6)):
        homog = hp.CompleteHomogParams(shape, CLOSED_HOMOG_P * scale[0],
                                       CLOSED_HOMOG_Q * scale[1], CLOSED_DEPTH)
        two = hp.TwoClassParams(P_BY_TYPE[0] * scale[2], P_BY_TYPE[1] * scale[3],
                                Q_BY_TYPE[0] * scale[4], Q_BY_TYPE[1] * scale[5])
        params.append({"homog": homog, "two": two})
    path = os.path.join(workdir, "k5.json")
    hp.save_json(hp.complete_network(list(K5_SIZES), K5_P, K5_Q), path)
    k5 = hp.load_json(path)
    rules = hp.parse_rules(json.dumps(CLOSED_RULES), shape)
    return {"params": params, "k5": k5, "rules": rules, "shape": shape}


def job_closed(inp: dict, clock: Clock | None = None) -> dict:
    clock = clock or Clock()
    servers, workstations = inp["shape"]
    cases = []
    for i, case in enumerate(inp["params"]):
        with clock(f"#{i} complete_homog_pmf"):
            homog = hp.complete_homog_pmf(case["homog"])
        with clock(f"#{i} bipartite_pmf"):
            bipartite = hp.bipartite_pmf(case["two"], servers, workstations)
        with clock(f"#{i} star_pmf"):
            star = hp.star_pmf(case["two"], servers + workstations, CLOSED_DEPTH)
        cases.append({"homog": homog, "bipartite": bipartite, "star": star})
    with clock("score_distribution"):
        scores = hp.score_distribution(inp["rules"], cases[0]["homog"])
    with clock("K5 joint_pmf"):
        k5 = {depth: hp.joint_pmf(inp["k5"], depth) for depth in K5_DEPTHS}
    return {"cases": cases, "scores": scores, "k5": k5}


def check_closed(inp: dict, out: dict, ref: dict) -> Checks:
    checks = Checks()
    for i, (case, case_out) in enumerate(zip(inp["params"], out["cases"])):
        checks.merge(f"#{i}", check_closed_case(case, case_out, inp["shape"]))
    checks.add("scores sum to 1", _scores_sum_to_one, out["scores"])
    for depth, pmf in out["k5"].items():
        checks.add(f"K5 L={depth} normalised", _normalised, pmf.probs)
        checks.add(f"K5 L={depth} reproduces the reference grid", _close, pmf.probs,
                   K5_GRIDS[depth], GRID_TOL)
    return checks


def check_closed_case(params: dict, out: dict, shape) -> Checks:
    checks = Checks()
    homog, two = params["homog"], params["two"]
    servers, workstations = shape
    for name in ("homog", "bipartite", "star"):
        checks.add(f"{name} normalised", _normalised, out[name].probs)
    # propagation only adds compromises: each type's mean is at least N_t * p_t
    checks.add("homog means >= direct", lambda: all(
        m >= n * homog.p - NORM_TOL for m, n in
        zip(_marginal_means(out["homog"].probs), homog.type_sizes)))
    checks.add("bipartite means >= direct", lambda: all(
        m >= d - NORM_TOL for m, d in zip(_marginal_means(out["bipartite"].probs),
                                          (servers * two.p1, workstations * two.p2))))
    checks.add("star depth 1 <= depth 2", lambda: hp.check_orthant_monotone(
        hp.star_pmf(two, servers + workstations, 1), out["star"]).passed)
    # the same closed forms at small sizes against the exact engine
    small = hp.CompleteHomogParams(K5_SIZES, homog.p, homog.q, CLOSED_DEPTH)
    checks.add("homog formula matches exact engine", lambda: _close(
        hp.complete_homog_pmf(small).probs,
        hp.joint_pmf(hp.complete_network(list(K5_SIZES), homog.p, homog.q),
                     CLOSED_DEPTH).probs, REFERENCE_TOL))
    checks.add("bipartite formula matches exact engine", lambda: _close(
        hp.bipartite_pmf(two, 2, 3).probs,
        hp.joint_pmf(hp.complete_bipartite_network(2, 3, two.p1, two.p2, two.q12,
                                                   two.q21), 1).probs, REFERENCE_TOL))
    checks.add("star formula matches exact engine", lambda: _close(
        hp.star_pmf(two, 5, CLOSED_DEPTH).probs,
        hp.joint_pmf(hp.star_network(5, two.p1, two.p2, two.q12, two.q21),
                     CLOSED_DEPTH).probs, REFERENCE_TOL))
    return checks


# ----------------------------------------------------------------- mc-ba200

def setup_mc_ba200(seed: int, workdir: str, sizes: dict) -> dict:
    network = os.path.join(workdir, "ba200.json")
    _cli(["generate", "ba", *BA200_ARGS, "--out", network])
    calls = sizes["ba200_calls"]
    return {"network": network, "seeds": [seed * calls + i for i in range(calls)],
            "workdir": workdir, "calls_runs": sizes["ba200_runs"],
            "runs": calls * sizes["ba200_runs"], "depth": sizes["ba200_depth"]}


def _cli(argv: list[str]) -> None:
    status = hoprisk.cli.main(argv)
    if status != 0:
        raise RuntimeError(f"hoprisk {argv[0]} exited with {status}")


def _simulate_ba200(inp: dict, seed: int, out_path: str) -> None:
    _cli(["simulate", "--network", inp["network"], "-L", str(inp["depth"]),
          "-K", str(inp["calls_runs"]), "--seed", str(seed), "--out", out_path])


def job_mc_ba200(inp: dict, clock: Clock | None = None) -> dict:
    """``simulate`` then ``stats`` through the CLI, once per Monte Carlo seed."""
    clock = clock or Clock()
    files = []
    for i, seed in enumerate(inp["seeds"]):
        samples = os.path.join(inp["workdir"], f"samples-{i}.csv")
        stats = os.path.join(inp["workdir"], f"stats-{i}")
        with clock(f"#{i} simulate"):
            _simulate_ba200(inp, seed, samples)
        with clock(f"#{i} stats"):
            _cli(["stats", "--in", samples, "--out", stats])
        files.append({"samples": samples, "stats": stats})
    return {"files": files}


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[0], rows[1:]


def sample_counts(path: str, runs: int, depth: int) -> np.ndarray:
    """counts[k, l, t] from a sample CSV, checking the row layout on the way."""
    header, rows = _read_csv(path)
    table = np.array(rows, dtype=np.int64)
    layout = np.stack([np.repeat(np.arange(1, runs + 1), depth),
                       np.tile(np.arange(1, depth + 1), runs)], axis=1)
    if table.shape != (runs * depth, len(header)) or not np.array_equal(table[:, :2], layout):
        raise ValueError("sample rows are not (run, depth) in order")
    return table[:, 2:].reshape(runs, depth, len(header) - 2)


def check_counts(checks: Checks, counts: np.ndarray, sizes) -> None:
    checks.add("counts nondecreasing in depth", lambda: bool(
        (np.diff(counts, axis=1) >= 0).all()))
    checks.add("counts within type sizes", lambda: bool(
        (counts >= 0).all() and (counts <= np.asarray(sizes)).all()))


def check_mc_ba200(inp: dict, out: dict, ref: dict) -> Checks:
    checks = Checks()
    with open(inp["network"], encoding="utf-8") as fh:
        types = [node["type"] for node in json.load(fh)["nodes"]]
    sizes = np.bincount(types)
    for i, files in enumerate(out["files"]):
        checks.merge(f"#{i}", check_ba200_files(files, inp["calls_runs"], inp["depth"], sizes))
    return checks


def check_ba200_files(out: dict, runs: int, depth: int, sizes) -> Checks:
    checks = Checks()
    try:
        counts = sample_counts(out["samples"], runs, depth)
    except ValueError:
        counts = None
    checks.add("sample CSV layout", lambda: counts is not None)
    if counts is None:
        return checks
    check_counts(checks, counts, sizes)
    header, rows = _read_csv(out["stats"] + ".moments.csv")
    moments = {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows}
    checks.add("moments match samples", lambda: len(rows) == depth * len(sizes) and all(
        abs(moments[(l, t + 1)][0] - counts[:, l - 1, t].mean()) <= NORM_TOL
        and abs(moments[(l, t + 1)][1] - counts[:, l - 1, t].std(ddof=1)) <= NORM_TOL
        for l in range(1, depth + 1) for t in range(len(sizes))))
    header, rows = _read_csv(out["stats"] + ".correlations.csv")
    checks.add("pearson matches samples", lambda: len(rows) == depth and all(
        abs(float(r[2]) - np.corrcoef(counts[:, int(r[0]) - 1, 0],
                                      counts[:, int(r[0]) - 1, 1])[0, 1]) <= NORM_TOL
        for r in rows))
    for name, outputs in (("simulate", [out["samples"]]),
                          ("stats", [out["stats"] + ".moments.csv",
                                     out["stats"] + ".correlations.csv"])):
        anchor = out["samples"] if name == "simulate" else out["stats"]
        checks.add(f"{name} manifest digests", lambda anchor=anchor, outputs=outputs:
                   _manifest_outputs(anchor) == {path: _sha256(path) for path in outputs})
    return checks


def rerun_mc_ba200(inp: dict, out: dict) -> Checks:
    """The first call again, same network and seed: the sample file must be
    byte-identical."""
    checks = Checks()
    again = os.path.join(inp["workdir"], "samples-rerun.csv")
    _simulate_ba200(inp, inp["seeds"][0], again)
    checks.add("same-seed rerun is byte-identical",
               lambda: _sha256(again) == _sha256(out["files"][0]["samples"]))
    return checks


# -------------------------------------------------------------------- mc-k5

def setup_mc_k5(seed: int, workdir: str, sizes: dict) -> dict:
    path = os.path.join(workdir, "k5.json")
    hp.save_json(hp.complete_network(list(K5_SIZES), K5_P, K5_Q), path)
    chunks = sizes["k5_chunks"]
    return {"net": hp.load_json(path), "seeds": [seed * chunks + i for i in range(chunks)],
            "chunk_runs": sizes["k5_runs"], "runs": chunks * sizes["k5_runs"]}


def job_mc_k5(inp: dict, clock: Clock | None = None) -> dict:
    """``simulate_runs`` in equal batches; the empirical PMF is their mean."""
    clock = clock or Clock()
    net = inp["net"]
    counts, probs = [], []
    for i, seed in enumerate(inp["seeds"]):
        with clock(f"simulate_runs #{i}"):
            samples = hp.simulate_runs(net, K5_MC_DEPTH, inp["chunk_runs"], seed)
        with clock(f"empirical_pmf #{i}"):
            empirical = hp.empirical_pmf(samples, K5_MC_DEPTH)
        counts.append(samples.counts)
        probs.append(empirical.probs)
    with clock("joint_pmf"):
        exact = hp.joint_pmf(net, K5_MC_DEPTH)
    return {"counts": np.concatenate(counts),
            "empirical": hp.JointPmf(exact.dims, np.mean(probs, axis=0)), "exact": exact}


def within_sigmas(empirical, exact, runs: int) -> bool:
    """Every cell within MC_SIGMAS binomial standard errors of the exact PMF."""
    se = np.sqrt(exact * (1.0 - exact) / runs)
    return bool((np.abs(empirical - exact) <= MC_SIGMAS * se).all())


def check_mc_k5(inp: dict, out: dict, ref: dict) -> Checks:
    checks = Checks()
    check_counts(checks, out["counts"], K5_SIZES)
    checks.add("empirical normalised", _normalised, out["empirical"].probs)
    checks.add("exact normalised", _normalised, out["exact"].probs)
    checks.add("exact reproduces the reference grid", _close, out["exact"].probs,
               K5_GRIDS[K5_MC_DEPTH], GRID_TOL)
    checks.add(f"every cell within {MC_SIGMAS:g} standard errors", within_sigmas,
               out["empirical"].probs, out["exact"].probs, inp["runs"])
    return checks


JOBS = {
    "exact-ba7": (setup_exact, job_exact, check_exact),
    "closed-5x45": (setup_closed, job_closed, check_closed),
    "mc-ba200": (setup_mc_ba200, job_mc_ba200, check_mc_ba200),
    "mc-k5": (setup_mc_k5, job_mc_k5, check_mc_k5),
}

RERUNS = {"mc-ba200": rerun_mc_ba200}

# Two workloads of two jobs each, not four of one: on a host whose speed
# changes for seconds to minutes at a time a run has to measure for about a
# minute to be steady, and the benchmark's time budget allows that for two
# workloads (README.md). Each workload leaves the other's engines idle.
WORKLOADS = {
    "analytic": ("exact-ba7", "closed-5x45"),
    "mc": ("mc-ba200", "mc-k5"),
}
