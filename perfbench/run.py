"""hoprisk benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from the repository root. A run starts ``WORKERS`` fresh single-threaded
interpreters (``worker.py``) one after another and shares ``--seconds``
between them. Each sets up the workload's inputs once, then runs repetitions
of its jobs one at a time, each in a forked child, so no cache, memo or RSS
high-water mark carries over from one repetition to the next. The load is
closed-loop: one client, one repetition at a time.

A job is a fixed sequence of short named units (``workloads.Clock``).
``solve_s`` adds up, unit by unit, the fastest time the run saw for it;
``setup_s`` and ``peak_rss_mib`` are medians over workers and repetitions.
README.md says why.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced workers and reports the per-layer metrics of the traced ones,
with the tracing overhead (traced minus untraced solve time).
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload, untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analytic", "mc")
OUT_DIR = ".perfbench-out"
WORKERS = 5
# A run must end within 180 s: after MIN_WORKERS, no worker starts after
# LAST_START_S, and none may run past WORKER_DEADLINE_S.
MIN_WORKERS = 2
LAST_START_S = 110.0
WORKER_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
# How each metric is drawn from its samples, for the printed lines.
STATISTIC = {"setup_s": "median", "solve_s": "sum of unit minima",
             "peak_rss_mib": "median", "runs_per_s": "max"}
PER_LAYER = {
    "setup.import_s": "s",
    "network.generate_s": "s",
    "network.json_io_s": "s",
    "exact.joint_pmf_s": "s",
    "exact.joint_pmf_calls": "count",
    "exact.rss_growth_mib": "MiB",
    "closedform.complete_homog_pmf_s": "s",
    "closedform.bipartite_pmf_s": "s",
    "closedform.star_pmf_s": "s",
    "closedform.rss_growth_mib": "MiB",
    "simulate.simulate_runs_s": "s",
    "simulate.single_run_s": "s",
    "simulate.run_rng_s": "s",
    "simulate.run_rng_calls": "count",
    "simulate.rng_share": "ratio",
    "simulate.rng_share.mc-ba200": "ratio",
    "simulate.rng_share.mc-k5": "ratio",
    "simulate.runs_per_s": "runs/s",
    "simulate.empirical_pmf_s": "s",
    "simulate.samples_csv_s": "s",
    "stats.moments_s": "s",
    "stats.correlations_s": "s",
    "stats.orthant_check_s": "s",
    "scoring.score_distribution_s": "s",
    "scoring.cells_scored": "count",
    "pmf.csv_io_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, worker: int, trace: int, budget: float,
          deadline: float, extra: list[str]) -> dict:
    """One fresh worker process: its result, or ``{"error": ...}``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--worker", str(worker), "--trace", str(trace),
           "--budget", f"{budget:.3f}", "--workdir", OUT_DIR, *extra]
    timeout = max(1.0, deadline - time.perf_counter())
    # its own process group, so that a timeout also ends its forked repetition
    with subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"worker {worker} timed out after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker {worker} exited with {proc.returncode}"}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run every worker of one run and return their raw results.

    With ``trace`` the even-numbered workers are traced and the odd ones not.
    """
    start = time.perf_counter()
    deadline = start + WORKER_DEADLINE_S
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    workers: list[tuple[bool, dict]] = []
    for worker in range(WORKERS):
        elapsed = time.perf_counter() - start
        if worker >= MIN_WORKERS and elapsed > LAST_START_S:
            break
        budget = max(0.0, (seconds - elapsed) / (WORKERS - worker))
        traced = bool(trace) and worker % 2 == 0
        extra = ["--quick"] if quick else []
        if worker == 0:
            extra.append("--rerun-check")
        if traced:
            extra += ["--spans", os.path.join(OUT_DIR, "spans",
                                              f"{workload}-seed{seed}-worker{worker}")]
        workers.append((traced, spawn(workload, seed, worker, int(traced), budget,
                                      deadline, extra)))
    return {"workers": workers, "elapsed_s": time.perf_counter() - start}


def unit_minima(reps: list[dict]) -> dict[str, float]:
    """Each unit's fastest time over ``reps``."""
    minima: dict[str, float] = {}
    for r in reps:
        for unit, t in r["units"].items():
            minima[unit] = min(t, minima.get(unit, t))
    return minima


def tail_summary(values: list[float]) -> dict | None:
    """Median and the highest percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    pct = int(100 * (1 - 10 / len(values)))
    return {"median": statistics.median(values), "pct": pct,
            "value": statistics.quantiles(values, n=100)[pct - 1], "n": len(values)}


def rel_iqr(values: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_job(units: dict[str, float]) -> dict[str, float]:
    """Unit times ("<job>: <unit>") summed per job."""
    jobs: dict[str, float] = {}
    for unit, t in units.items():
        job = unit.split(": ", 1)[0]
        jobs[job] = jobs.get(job, 0.0) + t
    return jobs


def summarise(workload: str, seed: int, trace: int, raw: dict) -> dict:
    """Metrics, check counts and provenance of one run."""
    ok_workers = [(t, w) for t, w in raw["workers"] if "error" not in w]
    errors = [w["error"] for _, w in raw["workers"] if "error" in w]
    errors += [r["error"] for _, w in ok_workers for r in w["reps"] if "error" in r]
    untraced = [r for t, w in ok_workers if not t for r in w["reps"] if "error" not in r]
    traced = [r for t, w in ok_workers if t for r in w["reps"] if "error" not in r]
    checks = [c for r in untraced + traced for c in r["checks"]]
    failed_names = sorted({name for name, ok in checks if not ok})

    minima = unit_minima(untraced)
    samples = {
        "setup_s": [w["setup_s"] for t, w in ok_workers if not t],
        "solve_s": [sum(r["units"].values()) for r in untraced],
        "peak_rss_mib": [r["peak_rss_mib"] for r in untraced],
    }
    if any(r["runs"] for r in untraced):
        samples["runs_per_s"] = [r["runs"] / r["simulate_runs_s"] for r in untraced]
    metrics = {name: statistics.median(samples[name])
               for name in ("setup_s", "peak_rss_mib") if samples[name]}
    if minima:
        metrics["solve_s"] = sum(minima.values())
    if "runs_per_s" in samples:
        metrics["runs_per_s"] = max(samples["runs_per_s"])

    job_s = by_job(minima)
    layers, traced_job_s = {}, {}
    if trace and traced and untraced:
        # every layer number comes from the fastest traced repetition, so they add up
        fastest = min(traced, key=lambda r: sum(r["units"].values()))
        layers = {name: fastest["layers"].get(name, 0.0) for name in PER_LAYER}
        layers["setup.import_s"] = min(w["import_s"] for _, w in ok_workers)
        layers["trace.solve_s"] = sum(unit_minima(traced).values())
        layers["trace.overhead_s"] = layers["trace.solve_s"] - metrics["solve_s"]
        sim = layers["simulate.simulate_runs_s"]
        layers["simulate.runs_per_s"] = fastest["runs"] / sim if sim else 0.0
        traced_job_s = {job: (t, fastest["job_layers"][job])
                        for job, t in by_job(fastest["units"]).items()}

    first = ok_workers[0][1] if ok_workers else {}
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "commit": git_commit(),
        "samples": {name: len(vals) for name, vals in samples.items()},
        "workers": len(raw["workers"]),
        "traced_reps": len(traced),
        "rel_iqr": {name: rel_iqr(vals) for name, vals in samples.items()},
        "unit_minima": minima,
        "solve_s_per_rep": tail_summary(samples["solve_s"]),
        "range": {name: [min(vals), max(vals)] for name, vals in samples.items() if vals},
        "elapsed_s": raw["elapsed_s"],
        "errors": errors,
        "failed_checks": failed_names,
    }
    complete = bool(untraced) and (bool(traced) or not trace)
    return {
        "metrics": metrics,
        "job_s": job_s,
        "layers": layers,
        "traced_job_s": traced_job_s,
        "attempted": len(checks) + len(errors),
        "failed": sum(not ok for _, ok in checks) + len(errors),
        "correct": complete and not errors and not failed_names,
        "provenance": provenance,
    }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# The engine each analytic job is meant to load, for the traced share lines.
ENGINE_OF_JOB = {
    "exact-ba7": ("exact.joint_pmf_s",),
    "closed-5x45": ("closedform.complete_homog_pmf_s", "closedform.bipartite_pmf_s",
                      "closedform.star_pmf_s"),
}


def print_run(summary: dict) -> None:
    prov = summary["provenance"]
    name = prov["workload"]
    print("# provenance " + json.dumps(prov))
    units = dict(END_TO_END, runs_per_s="runs/s")
    for metric, value in summary["metrics"].items():
        n = prov["samples"][metric]
        iqr = prov["rel_iqr"][metric]
        spread = f", rel IQR {iqr:.1%}" if iqr is not None else ""
        print(f"{name} {metric} = {value:.6g} {units[metric]} "
              f"({STATISTIC[metric]} of {n}{spread})")
    tail = prov["solve_s_per_rep"]
    if tail:
        print(f"{name} solve_s per whole repetition: median {tail['median']:.6g} s, "
              f"p{tail['pct']} {tail['value']:.6g} s of {tail['n']}")
    print(f"{name} check_fail_ratio = {summary['failed']}/{summary['attempted']} "
          "failed/attempted")
    for job, value in summary["job_s"].items():
        print(f"{name} job {job} = {value:.6g} s (sum of unit minima, without its checks)")
    layers = summary["layers"]
    for metric, value in layers.items():
        print(f"{name} {metric} = {value:.6g} {PER_LAYER[metric]} "
              f"(fastest of {prov['traced_reps']} traced repetitions)")
    for job, engine in ENGINE_OF_JOB.items():
        if job in summary["traced_job_s"]:
            job_time, job_layers = summary["traced_job_s"][job]
            share = sum(job_layers[metric] for metric in engine) / job_time
            print(f"{name} share of job {job} spent in {'+'.join(engine)} = {share:.3f}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny jobs: a smoke test, not a measurement")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "hoprisk", "__init__.py")):
        print("run.py: no src/hoprisk here; run from the repository root",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    summaries = []
    for workload, trace in plan:
        summary = summarise(workload, args.seed, trace,
                            measure(workload, args.seed, args.seconds, trace, args.quick))
        print_run(summary)
        summaries.append((workload, trace, summary))

    if args.workload == "all":
        metrics = {}
        for workload, trace, s in summaries:
            units = dict(END_TO_END, runs_per_s="runs/s") if not trace else PER_LAYER
            values = s["layers"] if trace else s["metrics"]
            for name, value in values.items():
                metrics[f"{workload}/{name}"] = {"value": value, "unit": units[name]}
    else:
        _, trace, s = summaries[0]
        values = s["layers"] if trace else s["metrics"]
        wanted = PER_LAYER if trace else END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wanted.items() if name in values}
    correct = all(s["correct"] for _, _, s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for _, _, s in summaries),
        "failed": sum(s["failed"] for _, _, s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
