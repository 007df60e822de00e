"""Seeded Monte Carlo simulation of L-hop compromise propagation.

Each run draws the directly compromised nodes, then plays the propagation
forward round by round: the current front gets one independent attempt at
every intact node it can reach, the newly compromised nodes become the next
front, and the old front retires (its edges can never fire again). Runs use
substreams derived from ``(master_seed, run index)``, so results are
bit-identical regardless of execution order or parallelism.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import NetworkModel
from .pmf import JointPmf

__all__ = ["CompromiseTrace", "SampleMatrix", "single_run", "simulate_runs", "empirical_pmf"]


@dataclass(frozen=True, eq=False)
class CompromiseTrace:
    """Per-run record of which nodes fell at each propagation depth.

    ``newly_by_depth[h]`` is the set of nodes first compromised at depth h
    (depth 0 = direct compromise); the sets are pairwise disjoint.
    ``cumulative_counts[l, t]`` counts type-t nodes compromised at depth <= l.
    """

    newly_by_depth: tuple[frozenset[int], ...]
    cumulative_counts: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.newly_by_depth) - 1

    def cumulative_set(self, depth: int) -> frozenset[int]:
        out: set[int] = set()
        for h in range(depth + 1):
            out |= self.newly_by_depth[h]
        return frozenset(out)


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """Cumulative per-type counts for K runs at depths 1..L.

    ``counts[k, l - 1, t]`` is run k's number of compromised type-t nodes at
    depth l. ``type_sizes`` is carried when known (None after loading from a
    bare CSV).
    """

    counts: np.ndarray
    depth: int
    master_seed: int | None
    type_sizes: tuple[int, ...] | None

    @property
    def runs(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_types(self) -> int:
        return int(self.counts.shape[2])

    def at_depth(self, depth: int) -> np.ndarray:
        """K x M count matrix at one depth (1-based)."""
        if not 1 <= depth <= self.depth:
            raise ValueError(f"depth must be in 1..{self.depth}")
        return self.counts[:, depth - 1, :]

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            header = ["run", "depth"] + [f"x_{t + 1}" for t in range(self.num_types)]
            fh.write(",".join(header) + "\n")
            for k in range(self.runs):
                for l in range(1, self.depth + 1):
                    row = [k + 1, l] + [int(v) for v in self.counts[k, l - 1]]
                    fh.write(",".join(str(v) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path: str, type_sizes: Sequence[int] | None = None) -> "SampleMatrix":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[:2] != ["run", "depth"]:
                raise ValueError(f"{path}: not a sample CSV (bad header)")
            m = len(header) - 2
            if m < 1 or header[2:] != [f"x_{t + 1}" for t in range(m)]:
                raise ValueError(f"{path}: not a sample CSV (bad header)")
            rows = [(int(r[0]), int(r[1]), [int(v) for v in r[2:]]) for r in reader if r]
        if not rows:
            raise ValueError(f"{path}: no sample rows")
        for k, l, xs in rows:
            if len(xs) != m:
                raise ValueError(f"{path}: ragged row for run {k}")
            if k < 1 or l < 1 or min(xs) < 0:
                raise ValueError(f"{path}: run {k}, depth {l}: run and depth must be >= 1, "
                                 "counts non-negative")
        if len({(k, l) for k, l, _ in rows}) < len(rows):
            raise ValueError(f"{path}: duplicate (run, depth) rows")
        runs = max(r[0] for r in rows)
        depth = max(r[1] for r in rows)
        if len(rows) != runs * depth:
            raise ValueError(f"{path}: missing (run, depth) rows")
        counts = np.zeros((runs, depth, m), dtype=np.int64)
        for k, l, xs in rows:
            counts[k - 1, l - 1] = xs
        sizes = tuple(int(s) for s in type_sizes) if type_sizes is not None else None
        if sizes is not None and len(sizes) != m:
            raise ValueError(f"{path}: {m} count columns but {len(sizes)} type sizes")
        if sizes is not None and (counts > np.array(sizes)).any():
            raise ValueError(f"{path}: a count exceeds its type size {sizes}")
        return cls(counts=counts, depth=depth, master_seed=None, type_sizes=sizes)


def single_run(net: NetworkModel, depth: int, rng: np.random.Generator) -> CompromiseTrace:
    """Simulate one realization of ``depth`` rounds of propagation.

    Attempt draws are consumed in a fixed order (targets ascending, attackers
    ascending within a target), one batch per round, so a given generator
    state always yields the same trace.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    idx = net.index_of
    m = net.num_types
    draws = rng.random(net.n_nodes)
    front = {v for v in net.node_ids if draws[idx[v]] < net.p[idx[v]]}
    compromised = set(front)
    newly = [frozenset(front)]
    counts = np.zeros((depth + 1, m), dtype=np.int64)
    for v in front:
        counts[0, net.types[idx[v]]] += 1
    for h in range(1, depth + 1):
        counts[h] = counts[h - 1]
        new: list[int] = []
        if front:
            targets: list[int] = []
            seg_sizes: list[int] = []
            flat_q: list[float] = []
            for j in net.node_ids:
                if j in compromised:
                    continue
                qs = [qlj for (l, qlj) in net.in_edges[j] if l in front]
                if qs:
                    targets.append(j)
                    seg_sizes.append(len(qs))
                    flat_q.extend(qs)
            if flat_q:
                u = rng.random(len(flat_q))
                hit = u < np.asarray(flat_q)
                pos = 0
                for j, size in zip(targets, seg_sizes):
                    if hit[pos : pos + size].any():
                        new.append(j)
                    pos += size
        for j in new:
            counts[h, net.types[idx[j]]] += 1
        compromised.update(new)
        front = set(new)
        newly.append(frozenset(new))
    return CompromiseTrace(newly_by_depth=tuple(newly), cumulative_counts=counts)


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent generator for one run, derived from (master_seed, run)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(run_index,))
    return np.random.Generator(np.random.PCG64(ss))


def simulate_runs(
    net: NetworkModel, depth: int, runs: int, master_seed: int
) -> SampleMatrix:
    """K independent runs; deterministic for fixed (net, depth, runs, seed)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    counts = np.zeros((runs, depth, net.num_types), dtype=np.int64)
    for k in range(runs):
        trace = single_run(net, depth, run_rng(master_seed, k))
        counts[k] = trace.cumulative_counts[1:]
    return SampleMatrix(
        counts=counts,
        depth=depth,
        master_seed=master_seed,
        type_sizes=net.type_sizes,
    )


def empirical_pmf(
    samples: SampleMatrix,
    depth: int,
    type_sizes: Sequence[int] | None = None,
) -> JointPmf:
    """Normalized histogram of the count vectors observed at one depth."""
    sizes = type_sizes if type_sizes is not None else samples.type_sizes
    if sizes is None:
        raise ValueError("type sizes unknown; pass type_sizes explicitly")
    if samples.runs < 1:
        raise ValueError("no samples")
    block = samples.at_depth(depth)
    dims = tuple(int(s) + 1 for s in sizes)
    hist = np.zeros(dims)
    np.add.at(hist, tuple(block[:, t] for t in range(samples.num_types)), 1.0)
    return JointPmf(dims, hist / samples.runs)
