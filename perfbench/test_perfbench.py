"""Tests of the benchmark itself: every metric is emitted, and the output
checks fail on perturbed outputs, so they are not vacuous.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hoprisk as hp
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def quick_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_quick_run_emits_every_metric(workload):
    lines, result = quick_run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(run.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.PER_LAYER[name]
        assert isinstance(metric["value"], (int, float))
    assert result["metrics"]["trace.spans"]["value"] > 0
    # the untraced repetitions of a traced run still print end-to-end lines
    for name in (*run.END_TO_END, "check_fail_ratio"):
        assert any(line.startswith(f"{workload} {name} = ") for line in lines), name


def test_untraced_quick_run_emits_end_to_end_metrics():
    lines, result = quick_run("mc", trace=0)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("mc runs_per_s = ") for line in lines)
    provenance = json.loads(next(l for l in lines if l.startswith("# provenance "))
                            .removeprefix("# provenance "))
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "commit", "seed", "samples",
                "rel_iqr"):
        assert key in provenance


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, RUN, "--workload", "mc-k5", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, stdout=subprocess.PIPE,
                          text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    trace = tracer.Tracer(job="0")
    trace.spans = [("a", 0.0, 10.0, -1, "0/x"), ("b", 1.0, 4.0, 0, "0/x"),
                   ("c", 2.0, 3.0, 1, "0/x"), ("c", 5.0, 6.0, 0, "0/x")]
    assert trace.self_times() == {"a": 6.0, "b": 2.0, "c": 2.0}
    assert trace.total_time("c") == 2.0
    assert trace.span_count("c") == 2


def test_raising_check_counts_as_failed():
    checks = workloads.Checks()
    checks.add("fine", lambda: True)
    checks.add("raises", lambda: 1 / 0)
    assert checks.failed == ["raises"]


def _moved(pmf, amount: float):
    """Same PMF with ``amount`` of mass moved from its largest to its smallest cell."""
    probs = np.array(pmf.probs)
    probs.flat[int(np.argmax(probs))] -= amount
    probs.flat[int(np.argmin(probs))] += amount
    return hp.JointPmf(pmf.dims, probs)


def test_exact_checks_catch_a_perturbed_pmf():
    ref = workloads.load_reference()
    out = {}
    for graph, graph_ref in ref["exact-ba7"].items():
        pmfs = {int(depth): hp.JointPmf(np.shape(probs), np.array(probs))
                for depth, probs in graph_ref["pmf"].items()}
        depths = sorted(pmfs)
        out[graph] = {
            "pmfs": pmfs,
            "orders": [hp.check_orthant_monotone(pmfs[lo], pmfs[hi])
                       for lo, hi in zip(depths, depths[1:])],
            "scores": {int(k): v for k, v in graph_ref["scores"].items()},
            "reloaded": pmfs[depths[-1]],
        }
    assert workloads.check_exact({}, out, ref).failed == []
    pmfs = out["g10"]["pmfs"]
    out["g10"]["pmfs"] = {**pmfs, 1: _moved(pmfs[1], 1e-11)}
    assert workloads.check_exact({}, out, ref).failed == ["g10 L=1 matches reference"]


def test_relabelled_ba7_keeps_the_reference_pmfs(tmp_path):
    inputs = workloads.setup_exact(77, str(tmp_path), workloads.QUICK)
    out = workloads.job_exact(inputs)
    assert workloads.check_exact(inputs, out, workloads.load_reference()).failed == []


def test_closed_checks_catch_a_perturbed_grid(tmp_path):
    inputs = workloads.setup_closed(5, str(tmp_path), workloads.QUICK)
    out = workloads.job_closed(inputs)
    assert workloads.check_closed(inputs, out, {}).failed == []
    out["k5"][3] = _moved(out["k5"][3], 1e-3)
    dims = out["cases"][1]["bipartite"].dims
    nothing = np.zeros(dims)
    nothing[0, 0] = 1.0  # no node compromised: below every type's direct mean
    out["cases"][1]["bipartite"] = hp.JointPmf(dims, nothing)
    assert workloads.check_closed(inputs, out, {}).failed == [
        "#1 bipartite means >= direct", "K5 L=3 reproduces the reference grid"]


def test_mc_k5_checks_catch_perturbed_samples(tmp_path):
    inputs = workloads.setup_mc_k5(5, str(tmp_path), workloads.QUICK)
    out = workloads.job_mc_k5(inputs)
    assert workloads.check_mc_k5(inputs, out, {}).failed == []
    counts = out["counts"].copy()
    counts[0, 0], counts[0, 1] = workloads.K5_SIZES, 0
    failed = workloads.check_mc_k5(inputs, dict(out, counts=counts), {}).failed
    assert failed == ["counts nondecreasing in depth"]
    shifted = _moved(out["empirical"], 0.05)
    failed = workloads.check_mc_k5(inputs, dict(out, empirical=shifted), {}).failed
    assert failed == ["every cell within 4 standard errors"]


def test_mc_ba200_checks_catch_a_perturbed_sample_file(tmp_path):
    inputs = workloads.setup_mc_ba200(5, str(tmp_path), workloads.QUICK)
    out = workloads.job_mc_ba200(inputs)
    assert workloads.check_mc_ba200(inputs, out, {}).failed == []
    assert workloads.rerun_mc_ba200(inputs, out).failed == []
    samples = out["files"][0]["samples"]
    with open(samples, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[-1].split(",")
    lines[-1] = ",".join(row[:-1] + ["999"])
    with open(samples, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    failed = workloads.check_mc_ba200(inputs, out, {}).failed
    assert "#0 counts within type sizes" in failed
    assert "#0 simulate manifest digests" in failed
    assert not [name for name in failed if name.startswith("#1 ")]
    assert workloads.rerun_mc_ba200(inputs, out).failed == ["same-seed rerun is byte-identical"]
