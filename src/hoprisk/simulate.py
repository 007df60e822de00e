"""Seeded Monte Carlo simulation of L-hop compromise propagation.

A node is in the front in exactly one round, so each directed edge
``l -> j`` gets at most one attempt, and whether it gets one never depends on
its own draw. A run can therefore draw everything up front: the direct hits
``u < p`` and, per directed edge, whether an attempt along it would succeed
(``u < q``, the edge is *open*). The nodes down after L rounds are those
within L open hops of a direct hit, and round h's front is the nodes exactly
h hops away. Runs are played in blocks as K x N boolean matrices, one
gather and one ``np.logical_or.reduceat`` by target per round.

Stream layout ``philox4x64-slots-v1`` (:data:`STREAM`): one Philox-4x64
stream keyed by ``SeedSequence(master_seed)``, one double per 64-bit output.
Run k reads the S consecutive doubles at ``[k * S, (k + 1) * S)``, where
S = N + |E_dir| rounded up to a multiple of 4 (one counter step):

- slots ``0 .. N-1``: the direct draws, in node order;
- slots ``N .. N + |E_dir| - 1``: one draw per directed edge, sorted by
  (target, source) position;
- the rest: padding, unused.

A run's draws do not depend on the depth, the run count or the block size,
and networks with the same nodes and edges share the layout, so p, q and
depth variants at one seed are coupled (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .network import NetworkModel
from .pmf import JointPmf, _read_grid, _write_table

__all__ = [
    "STREAM",
    "CompromiseTrace",
    "SampleMatrix",
    "single_run",
    "simulate_runs",
    "empirical_pmf",
]

# Version of the seed -> samples mapping below; recorded in manifests.
STREAM = "philox4x64-slots-v1"

# Uniforms drawn and propagated at a time; bounds memory for any run count.
_BLOCK_CELLS = 1 << 18


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

    def __post_init__(self) -> None:
        if self.counts.ndim != 3 or self.counts.shape[1] != self.depth:
            raise ValueError(f"counts of shape {self.counts.shape} do not hold "
                             f"(runs, depth {self.depth}, types)")

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
        runs, depth, m = self.counts.shape
        k, l = np.divmod(np.arange(runs * depth, dtype=np.int64), depth)
        table = np.column_stack((k + 1, l + 1, self.counts.reshape(-1, m)))
        _write_table(path, ["run", "depth"] + [f"x_{t + 1}" for t in range(m)],
                     ["%d"] * (2 + m), table)

    @classmethod
    def from_csv(cls, path: str, type_sizes: Sequence[int] | None = None) -> "SampleMatrix":
        counts = _read_grid(path, "sample", ["run", "depth"], None, 1, np.int64)
        m = counts.shape[2]
        sizes = tuple(int(s) for s in type_sizes) if type_sizes is not None else None
        if sizes is not None and len(sizes) != m:
            raise ValueError(f"{path}: {m} count columns but {len(sizes)} type sizes")
        if sizes is not None and (counts > np.array(sizes)).any():
            raise ValueError(f"{path}: a count exceeds its type size {sizes}")
        return cls(counts=counts, depth=counts.shape[1], master_seed=None, type_sizes=sizes)


def _slots(net: NetworkModel) -> int:
    """Uniforms per run: N direct draws and one per directed edge, padded to
    a whole number of Philox counter steps (4 doubles)."""
    return -(-(net.n_nodes + net.csr.src.size) // 4) * 4


def _rounds(net: NetworkModel, depth: int, u: np.ndarray) -> Iterator[np.ndarray]:
    """Play a block of runs, one row of uniforms ``u`` per run.

    Yields the nodes first down in rounds 0, 1, ... as K x N boolean masks;
    stops after ``depth`` rounds, or earlier once every run's front is empty.
    """
    g = net.csr
    n = net.n_nodes
    front = u[:, :n] < g.p
    open_ = u[:, n : n + g.src.size] < g.q
    down = front.copy()
    yield front
    for _ in range(depth):
        if not front.any():
            return
        hit = np.zeros_like(front)
        fire = front[:, g.src] & open_
        hit[:, g.targets] = np.logical_or.reduceat(fire, g.starts, axis=1)
        front = hit & ~down
        down |= front
        yield front


def _tally(net: NetworkModel, depth: int, rounds: Iterable[np.ndarray]) -> np.ndarray:
    """``counts[k, l, t]``: type-t nodes of run k down after round l = 0..depth."""
    per_round = [new @ net.csr.onehot for new in rounds]
    counts = np.zeros((len(per_round[0]), depth + 1, net.num_types), dtype=np.int64)
    counts[:, : len(per_round)] = np.stack(per_round, axis=1)
    return np.cumsum(counts, axis=1, out=counts)


def single_run(net: NetworkModel, depth: int, rng: np.random.Generator) -> CompromiseTrace:
    """Simulate one realization of ``depth`` rounds of propagation.

    Draws one run's slots from ``rng``; on ``run_rng(seed, k, net)`` this is
    run k of ``simulate_runs(net, depth, runs, seed)``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    masks = list(_rounds(net, depth, rng.random((1, _slots(net)))))
    ids = np.asarray(net.node_ids)
    newly = [frozenset(ids[new[0]].tolist()) for new in masks]
    newly += [frozenset()] * (depth + 1 - len(masks))
    counts = _tally(net, depth, masks)[0]
    return CompromiseTrace(newly_by_depth=tuple(newly), cumulative_counts=counts)


def run_rng(master_seed: int, run_index: int, net: NetworkModel) -> np.random.Generator:
    """The Philox stream of ``master_seed``, positioned at run ``run_index``'s
    first slot of ``net``'s layout."""
    bits = np.random.Philox(np.random.SeedSequence(master_seed))
    bits.advance(run_index * _slots(net) // 4)
    return np.random.Generator(bits)


def simulate_runs(
    net: NetworkModel, depth: int, runs: int, master_seed: int
) -> SampleMatrix:
    """K independent runs; deterministic for fixed (net, depth, runs, seed).

    Runs are played in blocks of a fixed number of uniforms, so the working
    memory does not grow with ``runs``; the result does not depend on the
    block size.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    slots = _slots(net)
    block = max(1, _BLOCK_CELLS // slots)
    counts = np.empty((runs, depth, net.num_types), dtype=np.int64)
    for k0 in range(0, runs, block):
        k1 = min(runs, k0 + block)
        u = run_rng(master_seed, k0, net).random((k1 - k0, slots))
        counts[k0:k1] = _tally(net, depth, _rounds(net, depth, u))[:, 1:]
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
    if len(sizes) != samples.num_types:
        raise ValueError(f"{len(sizes)} type sizes for {samples.num_types} types")
    block = samples.at_depth(depth)
    over = block > np.asarray(sizes)
    if over.any():
        k, t = np.argwhere(over)[0]
        raise ValueError(f"run {k + 1}, depth {depth}: count {block[k, t]} of type {t + 1} "
                         f"exceeds its size {sizes[t]}")
    dims = tuple(int(s) + 1 for s in sizes)
    hist = np.zeros(dims)
    np.add.at(hist, tuple(block[:, t] for t in range(samples.num_types)), 1.0)
    return JointPmf(dims, hist / samples.runs)
