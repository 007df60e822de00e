"""Seeded Monte Carlo simulation of L-hop compromise propagation.

A node is in the front in exactly one round, so each directed edge
``l -> j`` gets at most one attempt, and whether it gets one never depends on
its own draw. A run can therefore draw everything up front: the direct hits
``u < p`` and, per directed edge, whether an attempt along it would succeed
(``u < q``, the edge is *open*). The nodes down after L rounds are those
within L open hops of a direct hit, and round h's front is the nodes exactly
h hops away. Runs are played in blocks with the run axis packed into
words: bit k of a node's (or a directed edge's) row of words is run k's
state, so a round is one gather of the front words by source, one AND with
the open-edge words and one ``np.bitwise_or.reduceat`` by target; the fronts
are unpacked and counted per type once, after the last round.

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

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .network import NetworkModel
from .pmf import JointPmf, _path, _read_grid, _write_table

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

# Uniforms drawn and propagated, and front bits unpacked, at a time (and, in
# `stats`, sample entries of one type coded at a time); bounds memory for any
# run count and depth.
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

    def to_csv(self, path: str) -> str:
        """Write the sample CSV; returns the sha256 digest of its bytes."""
        runs, depth, m = self.counts.shape
        k, l = np.divmod(np.arange(runs * depth, dtype=np.int64), depth)
        table = np.column_stack((k + 1, l + 1, self.counts.reshape(-1, m)))
        return _write_table(path, ["run", "depth"] + [f"x_{t + 1}" for t in range(m)],
                            ["%d"] * (2 + m), table)

    @classmethod
    def from_csv(
        cls, source: str | TextIO, type_sizes: Sequence[int] | None = None
    ) -> "SampleMatrix":
        """Read a sample CSV from a path, or from a text file opened from a
        path and still at its start."""
        counts = _read_grid(source, "sample", ["run", "depth"], None, 1, np.int64)
        path = _path(source)
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
    return -(-(net.n_nodes + net.arc_src.size) // 4) * 4


def _words(net: NetworkModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack a block of runs, one row of uniforms ``u`` per run, into words:
    the direct hits (N rows) and the open edges (|E_dir| rows).

    Bit k of a row is run k's draw below its threshold. A word is the
    smallest unsigned integer holding every run, or 64 bits above 64 runs;
    the bits past the last run are 0.
    """
    thresholds = np.concatenate((net.p, net.arc_q))
    runs, m = len(u), thresholds.size
    if runs == 1:
        # a bool is a byte holding 0 or 1: already the word of one run
        words = (u[0, :m] < thresholds).view(np.uint8)
    else:
        width = 8 << min(3, max(0, (runs - 1).bit_length() - 3))
        bits = np.zeros((-(-runs // width) * width, m), dtype=bool)
        np.less(u[:, :m], thresholds, out=bits[:runs])
        # each slot's bits made contiguous, then packed in one call
        words = np.packbits(bits.T.reshape(-1), bitorder="little").view(f"<u{width // 8}")
    words = words.reshape(m, -1)
    return words[: net.n_nodes], words[net.n_nodes :]


def _rounds(net: NetworkModel, depth: int, u: np.ndarray) -> Iterator[np.ndarray]:
    """Play a block of runs, one row of uniforms ``u`` per run.

    Yields the nodes first down in rounds 0, 1, ... as packed words, one row
    per node (see :func:`_words`); stops after ``depth`` rounds, or earlier
    once every run's front is empty.
    """
    starts = net.arc_starts
    targets = net.arc_dst[starts]
    front, open_ = _words(net, u)
    up = ~front
    hit = np.zeros_like(front)
    yield front
    for _ in range(depth):
        if not front.any():
            return
        hit[targets] = np.bitwise_or.reduceat(front[net.arc_src] & open_, starts, axis=0)
        front = hit & up
        up ^= front
        yield front


def _unpacked(net: NetworkModel, runs: int, rounds: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The packed fronts of ``rounds`` as bytes ``bits[l, i, k]``, 1 when
    node i is first down in round l of run k; a group of consecutive rounds
    at a time, at most ``_BLOCK_CELLS`` bits, so the memory held does not
    grow with the depth."""
    step = max(1, _BLOCK_CELLS // (net.n_nodes * runs))
    rounds = iter(rounds)
    while group := list(islice(rounds, step)):
        yield np.unpackbits(np.stack(group).view(np.uint8), axis=-1, count=runs,
                            bitorder="little")


def _tally(net: NetworkModel, depth: int, runs: int, groups: Iterable[np.ndarray]) -> np.ndarray:
    """``counts[k, l, t]``: type-t nodes of run k down after round l = 0..depth,
    from the rounds played as bytes, in groups as :func:`_unpacked` yields them."""
    counts = np.zeros((runs, depth + 1, net.num_types), dtype=np.int64)
    l = 0
    for bits in groups:
        counts[:, l : l + len(bits)] = (net.type_onehot.T @ bits).transpose(2, 0, 1)
        l += len(bits)
    return counts.cumsum(axis=1, out=counts)


def single_run(net: NetworkModel, depth: int, rng: np.random.Generator) -> CompromiseTrace:
    """Simulate one realization of ``depth`` rounds of propagation.

    Draws one run's slots from ``rng``; on ``run_rng(seed, k, net)`` this is
    run k of ``simulate_runs(net, depth, runs, seed)``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    fronts = list(_rounds(net, depth, rng.random((1, _slots(net)))))
    # one run: each word is one byte holding 0 or 1, so the words are the bits
    bits = np.stack(fronts)
    newly = [frozenset(net.node_ids[new].tolist()) for new in bits.view(bool)[:, :, 0]]
    newly += [frozenset()] * (depth + 1 - len(fronts))
    counts = _tally(net, depth, 1, [bits])[0]
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
        rounds = _unpacked(net, k1 - k0, _rounds(net, depth, u))
        counts[k0:k1] = _tally(net, depth, k1 - k0, rounds)[:, 1:]
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
    """Normalized histogram of the count vectors observed at one depth.

    Raises ``ValueError`` when the type sizes are unknown or do not match
    the types, when there are no runs, and when a count is negative or
    exceeds its type's size.
    """
    sizes = type_sizes if type_sizes is not None else samples.type_sizes
    if sizes is None:
        raise ValueError("type sizes unknown; pass type_sizes explicitly")
    if samples.runs < 1:
        raise ValueError("no samples")
    if len(sizes) != samples.num_types:
        raise ValueError(f"{len(sizes)} type sizes for {samples.num_types} types")
    block = samples.at_depth(depth)
    dims = tuple(int(s) + 1 for s in sizes)
    try:
        cells = np.ravel_multi_index(block.T, dims)
    except ValueError:
        # ravel_multi_index refuses a count outside 0..size: name the first
        bad = np.argwhere((block < 0) | (block > np.asarray(sizes)))
        if not bad.size:
            raise
        k, t = bad[0]
        what = "is negative" if block[k, t] < 0 else f"exceeds its size {sizes[t]}"
        raise ValueError(f"run {k + 1}, depth {depth}: count {block[k, t]} of type {t + 1} "
                         f"{what}") from None
    hist = np.bincount(cells, minlength=math.prod(dims))
    return JointPmf(dims, hist.reshape(dims) / samples.runs)
