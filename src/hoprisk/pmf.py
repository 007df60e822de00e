"""Joint probability mass functions over per-type compromise counts."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = ["JointPmf", "NORMALIZATION_TOL"]

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Probability table over count vectors ``(x_1, ..., x_M)``.

    ``dims[i]`` is ``N_i + 1`` where ``N_i`` is the number of type-i nodes, so
    ``probs[x]`` is the probability that exactly ``x_i`` nodes of each type i
    end up compromised. Entries are non-negative and sum to 1 (within
    ``NORMALIZATION_TOL``); the array is frozen after construction.
    """

    dims: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != tuple(self.dims):
            raise ValueError(f"probs shape {arr.shape} != dims {self.dims}")
        if not np.isfinite(arr).all():
            raise ValueError("probabilities must be finite")
        if arr.size and arr.min() < 0.0:
            raise ValueError(f"negative probability: {arr.min()}")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def num_types(self) -> int:
        return len(self.dims)

    @property
    def type_sizes(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.dims)

    def cell(self, x: Sequence[int]) -> float:
        return float(self.probs[tuple(int(v) for v in x)])

    def marginal(self, axis: int) -> np.ndarray:
        """1-D distribution of the type-``axis`` count."""
        other = tuple(a for a in range(self.probs.ndim) if a != axis)
        return self.probs.sum(axis=other) if other else self.probs.copy()

    def cells(self) -> Iterable[tuple[tuple[int, ...], float]]:
        """All ``(count vector, probability)`` pairs in lexicographic order."""
        for idx in np.ndindex(*self.dims):
            yield idx, float(self.probs[idx])

    def write_csv(self, fh: TextIO) -> None:
        header = [f"x_{i + 1}" for i in range(self.num_types)] + ["prob"]
        fh.write(",".join(header) + "\n")
        for idx, prob in self.cells():
            fh.write(",".join(str(v) for v in idx) + f",{prob:.17g}\n")

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self.write_csv(fh)

    @classmethod
    def from_csv(cls, path: str) -> "JointPmf":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "prob" or len(header) < 2:
                raise ValueError(f"{path}: not a PMF CSV (bad header)")
            m = len(header) - 1
            if header[:m] != [f"x_{i + 1}" for i in range(m)]:
                raise ValueError(f"{path}: not a PMF CSV (bad header)")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != m + 1:
                    raise ValueError(f"{path}: row with {len(row)} fields, expected {m + 1}")
                idx = tuple(int(v) for v in row[:m])
                if min(idx) < 0:
                    raise ValueError(f"{path}: negative cell index {idx}")
                rows.append((idx, float(row[m])))
        if not rows:
            raise ValueError(f"{path}: empty PMF CSV")
        if len({idx for idx, _ in rows}) < len(rows):
            raise ValueError(f"{path}: duplicate cell rows")
        dims = tuple(max(idx[i] for idx, _ in rows) + 1 for i in range(m))
        expected = 1
        for d in dims:
            expected *= d
        if len(rows) != expected:
            raise ValueError(f"{path}: expected {expected} rows for dims {dims}, got {len(rows)}")
        probs = np.zeros(dims)
        for idx, prob in rows:
            probs[idx] = prob
        try:
            return cls(dims, probs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
