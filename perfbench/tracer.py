"""Spans around calls into hoprisk's public functions, recorded from outside.

A :class:`Tracer` wraps each target function and rebinds every name that
points at it in the ``hoprisk`` package and its modules, so callers inside
the library (``hoprisk.cli`` calling ``joint_pmf``, ``simulate_runs`` calling
``run_rng``) go through the wrapper too. Spans are kept in memory as
``(name, start, end, parent, job)`` tuples and written out once at the end.
The library itself is not modified.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import defaultdict

# (module, attribute, span name). A class attribute is written "Class.method".
TARGETS = (
    ("hoprisk.network", "generate_ba", "network.generate_ba"),
    ("hoprisk.network", "assign_types_by_degree", "network.assign_types_by_degree"),
    ("hoprisk.network", "with_type_probabilities", "network.with_type_probabilities"),
    ("hoprisk.network", "complete_network", "network.complete_network"),
    ("hoprisk.network", "load_json", "network.load_json"),
    ("hoprisk.network", "save_json", "network.save_json"),
    ("hoprisk.exact", "joint_pmf", "exact.joint_pmf"),
    ("hoprisk.closedform", "complete_homog_pmf", "closedform.complete_homog_pmf"),
    ("hoprisk.closedform", "bipartite_pmf", "closedform.bipartite_pmf"),
    ("hoprisk.closedform", "star_pmf", "closedform.star_pmf"),
    ("hoprisk.simulate", "simulate_runs", "simulate.simulate_runs"),
    ("hoprisk.simulate", "single_run", "simulate.single_run"),
    ("hoprisk.simulate", "run_rng", "simulate.run_rng"),
    ("hoprisk.simulate", "empirical_pmf", "simulate.empirical_pmf"),
    ("hoprisk.simulate", "SampleMatrix.to_csv", "simulate.SampleMatrix.to_csv"),
    ("hoprisk.simulate", "SampleMatrix.from_csv", "simulate.SampleMatrix.from_csv"),
    ("hoprisk.stats", "marginal_moments", "stats.marginal_moments"),
    ("hoprisk.stats", "pairwise_correlations", "stats.pairwise_correlations"),
    ("hoprisk.stats", "correlations", "stats.correlations"),
    ("hoprisk.stats", "check_orthant_monotone", "stats.check_orthant_monotone"),
    ("hoprisk.scoring", "score_distribution", "scoring.score_distribution"),
    ("hoprisk.pmf", "JointPmf.to_csv", "pmf.JointPmf.to_csv"),
    ("hoprisk.pmf", "JointPmf.from_csv", "pmf.JointPmf.from_csv"),
    ("hoprisk.cli", "main", "cli.main"),
)

# Counted, not timed: one call per PMF cell, so a span would cost more than
# the call and would split score_distribution's time in two.
COUNTED = (("hoprisk.scoring", "score_vector", "scoring.score_vector"),)

# Spans whose peak-RSS growth is recorded, by metric name.
RSS_METRICS = {
    "exact.joint_pmf": "exact.rss_growth_mib",
    "closedform.complete_homog_pmf": "closedform.rss_growth_mib",
    "closedform.bipartite_pmf": "closedform.rss_growth_mib",
    "closedform.star_pmf": "closedform.rss_growth_mib",
}

# Per-layer time metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "network.generate_s": (
        "network.generate_ba",
        "network.assign_types_by_degree",
        "network.with_type_probabilities",
        "network.complete_network",
    ),
    "network.json_io_s": ("network.load_json", "network.save_json"),
    "exact.joint_pmf_s": ("exact.joint_pmf",),
    "closedform.complete_homog_pmf_s": ("closedform.complete_homog_pmf",),
    "closedform.bipartite_pmf_s": ("closedform.bipartite_pmf",),
    "closedform.star_pmf_s": ("closedform.star_pmf",),
    "simulate.single_run_s": ("simulate.single_run",),
    "simulate.run_rng_s": ("simulate.run_rng",),
    "simulate.empirical_pmf_s": ("simulate.empirical_pmf",),
    "simulate.samples_csv_s": (
        "simulate.SampleMatrix.to_csv",
        "simulate.SampleMatrix.from_csv",
    ),
    "stats.moments_s": ("stats.marginal_moments",),
    "stats.correlations_s": ("stats.pairwise_correlations", "stats.correlations"),
    "stats.orthant_check_s": ("stats.check_orthant_monotone",),
    "scoring.score_distribution_s": ("scoring.score_distribution",),
    "pmf.csv_io_s": ("pmf.JointPmf.to_csv", "pmf.JointPmf.from_csv"),
    "cli.self_s": ("cli.main",),
}


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records the spans of one worker process; ``job`` tags the spans."""

    def __init__(self, job: str, targets: tuple = TARGETS, counted: tuple = COUNTED):
        self.job = job
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rss_growth_kib: dict[str, int] = defaultdict(int)
        self.active = True
        self._stack: list[int] = []
        self._targets = targets
        self._counted = counted

    def install(self) -> None:
        """Wrap every target and rebind all ``hoprisk`` names bound to it."""
        for module, attr, name in self._targets:
            self._rebind(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in self._counted:
            self._rebind(module, attr, lambda fn, name=name: self._count(name, fn))

    def _rebind(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hoprisk" and not mod_name.startswith("hoprisk."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _span(self, name: str, fn):
        rss_metric = RSS_METRICS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            rss0 = _peak_rss_kib() if rss_metric else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
                if rss_metric:
                    self.rss_growth_kib[rss_metric] += _peak_rss_kib() - rss0

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _of(self, job: str | None, tag: str) -> bool:
        return job is None or tag.endswith("/" + job)

    def self_times(self, job: str | None = None) -> dict[str, float]:
        """Span name -> summed self time (duration minus direct children),
        over the spans of ``job`` if given."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            if self._of(job, tag):
                out[name] += (end - start) - child_time[i]
        return out

    def total_time(self, name: str, job: str | None = None) -> float:
        """Summed wall time of the spans called ``name``, children included."""
        return sum((end - start for span_name, start, end, _, tag in self.spans
                    if span_name == name and self._of(job, tag)), 0.0)

    def layer_times(self, job: str | None = None) -> dict[str, float]:
        """The self-time metrics of ``SELF_TIME_METRICS``, for one job if given."""
        selfs = self.self_times(job)
        return {metric: sum(selfs.get(name, 0.0) for name in names)
                for metric, names in SELF_TIME_METRICS.items()}

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def layer_metrics(self, jobs: tuple[str, ...] = ()) -> dict[str, float]:
        """Per-layer metrics, named as in ``BENCHMARK.json``.

        ``simulate.rng_share.<job>`` is reported for each of ``jobs`` that
        simulated, from the spans whose tag ends in ``/<job>``.
        """
        out = self.layer_times()
        sim_total = self.total_time("simulate.simulate_runs")
        out["simulate.simulate_runs_s"] = sim_total
        out["simulate.rng_share"] = out["simulate.run_rng_s"] / sim_total if sim_total else 0.0
        out["exact.joint_pmf_calls"] = self.span_count("exact.joint_pmf")
        out["simulate.run_rng_calls"] = self.span_count("simulate.run_rng")
        out["scoring.cells_scored"] = self.counts["scoring.score_vector"]
        for metric in set(RSS_METRICS.values()):
            out[metric] = self.rss_growth_kib[metric] / 1024.0
        out["trace.spans"] = len(self.spans)
        for job in jobs:
            sim = self.total_time("simulate.simulate_runs", job)
            if sim:
                rng = self.total_time("simulate.run_rng", job)
                out[f"simulate.rng_share.{job}"] = rng / sim
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
