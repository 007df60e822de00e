"""One worker of a run: a fresh interpreter that sets up once, then forks repetitions.

Times ``import hoprisk`` plus building the inputs of the workload's jobs
(set-up). Then, until ``--budget`` seconds after its own start, it runs one
repetition at a time in a forked child: the child runs the jobs, which time
each of their named units, records its peak RSS, checks the outputs and sends
its result back through a pipe. A child starts from the worker's imports and
inputs, never from an earlier repetition's caches, memos or RSS growth. The
worker prints one JSON line on stdout: its set-up times and the results of
its repetitions.

With ``--trace 1`` every public function in ``tracer.TARGETS`` is wrapped
before set-up and each repetition also reports its per-layer metrics and
writes its spans to ``<--spans>-<rep>.jsonl``. Without it only
``simulate_runs`` is wrapped, one span per call, to give ``runs_per_s``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="start no repetition that would end later than this many "
                         "seconds after the worker started; at least one runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rerun-check", action="store_true",
                    help="also rerun the jobs' same-seed reproducibility checks once")
    ap.add_argument("--spans", default=None, help="span file prefix (trace mode)")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--quick", action="store_true", help="tiny job sizes, for smoke tests")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import hoprisk

    import_s = time.perf_counter() - t_import
    src = os.path.realpath(os.path.join("src", "hoprisk"))
    if os.path.dirname(os.path.realpath(hoprisk.__file__)) != src:
        raise SystemExit(f"imported hoprisk from {hoprisk.__file__}, not from {src}")

    import numpy
    import scipy

    import tracer
    import workloads

    names = workloads.WORKLOADS[args.workload]
    if args.trace:
        trace = tracer.Tracer(f"{args.worker}")
    else:
        sim = [t for t in tracer.TARGETS if t[2] == "simulate.simulate_runs"]
        trace = tracer.Tracer(f"{args.worker}", targets=tuple(sim), counted=())
    trace.install()

    result = {"import_s": import_s, "numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": sys.version.split()[0], "reps": []}
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    sizes = workloads.QUICK if args.quick else workloads.FULL
    try:
        inputs = {}
        for name in names:
            trace.job = f"{args.worker}/{name}"
            inputs[name] = workloads.JOBS[name][0](args.seed, workdir, sizes)
        result["setup_s"] = time.perf_counter() - _T0
        reference = workloads.load_reference()
        longest = 0.0
        while not result["reps"] or time.perf_counter() - _T0 + longest <= args.budget:
            rep = len(result["reps"])
            t_rep = time.perf_counter()
            result["reps"].append(fork(lambda: repetition(
                args, rep, names, inputs, reference, trace, workloads)))
            longest = max(longest, time.perf_counter() - t_rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def fork(work) -> dict:
    """``work()`` in a forked child; its result, or ``{"error": ...}``.

    Forked, not spawned: a spawned child would import hoprisk and build the
    inputs again (about 1 s), so a run would hold far fewer repetitions. The
    worker starts no threads (BLAS/OpenMP threads are pinned to 1).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            try:
                data = json.dumps(work())
                status = 0
            except Exception:  # a failed repetition is reported, not raised
                data = json.dumps({"error": traceback.format_exc(limit=3)})
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(data)
        finally:
            os._exit(status)  # never return into the worker's own code
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"repetition exited with status {status} and no result"}
    return json.loads(data)


def repetition(args, rep: int, names, inputs: dict, reference: dict, trace,
               workloads) -> dict:
    """Run, time and check the workload's jobs once (in a forked child)."""
    units, outputs, checks = {}, {}, []
    for name in names:
        trace.job = f"{args.worker}.{rep}/{name}"
        clock = workloads.Clock()
        outputs[name] = workloads.JOBS[name][1](inputs[name], clock)
        units.update({f"{name}: {unit}": t for unit, t in clock.units.items()})
    trace.active = False
    out = {"units": units,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "simulate_runs_s": trace.total_time("simulate.simulate_runs"),
           "runs": sum(inputs[name].get("runs", 0) for name in names)}
    for name in names:
        checks += prefixed(name, workloads.JOBS[name][2](inputs[name], outputs[name],
                                                         reference))
    if args.rerun_check and rep == 0:
        for name in names:
            if name in workloads.RERUNS:
                checks += prefixed(name, workloads.RERUNS[name](inputs[name], outputs[name]))
    out["checks"] = checks
    if args.trace:
        out["layers"] = trace.layer_metrics(names)
        out["job_layers"] = {name: trace.layer_times(name) for name in names}
        if args.spans:
            trace.write_spans(f"{args.spans}-{rep}.jsonl")
    return out


def prefixed(job: str, checks) -> list[tuple[str, bool]]:
    return [(f"{job}: {name}", ok) for name, ok in checks.results]


if __name__ == "__main__":
    sys.exit(main())
