"""Joint probability mass functions over per-type compromise counts."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = ["JointPmf", "NORMALIZATION_TOL"]

NORMALIZATION_TOL = 1e-9

# Grid-CSV rows formatted per write; bounds the text held for any table size.
_CSV_ROWS = 1 << 16


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

    def _table(self) -> np.ndarray:
        """One row per cell in C order: the count vector, then its probability."""
        cells = np.indices(self.dims).reshape(self.num_types, -1)
        return np.column_stack((*cells, self.probs.reshape(-1)))

    def to_csv(self, path: str) -> None:
        _write_table(path, [f"x_{i + 1}" for i in range(self.num_types)] + ["prob"],
                     ["%d"] * self.num_types + ["%.17g"], self._table())

    @classmethod
    def from_csv(cls, path: str) -> "JointPmf":
        grid = _read_grid(path, "PMF", None, ["prob"], 0, np.float64)
        try:
            return cls(grid.shape[:-1], grid[..., 0])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_grid(
    path: str,
    what: str,
    keys: list[str] | None,
    values: list[str] | None,
    base: int,
    value_type: type,
) -> np.ndarray:
    """Read a grid CSV: one row for each cell of a full integer grid.

    The header is the ``keys`` columns, then the ``values`` columns; one of
    the two is None, standing for the count columns ``x_1..x_m`` (m >= 1,
    read from the header). Every key is a base-10 integer >= ``base`` and
    every value a non-negative ``value_type``. Rows may come in any order,
    blank lines are skipped, and there are no comment lines; rows are parsed
    from the open file, never all held as strings. Returns the values in C
    order of the keys, shaped ``grid + (len(values),)`` where ``grid[i]`` is
    the largest i-th key minus ``base``, plus 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        xs = [f"x_{i + 1}" for i in range(len(header) - len(keys or values))]
        keys, values = keys or xs, values or xs
        if not xs or header != keys + values:
            raise ValueError(f"{path}: not a {what} CSV (bad header)")
        dtype = np.dtype([("key", np.int64, (len(keys),)), ("value", value_type, (len(values),))])

        def parse(lines: Iterable[str]) -> np.ndarray | None:
            try:
                with warnings.catch_warnings():
                    # older numpy reads "2.5" as the integer 2, warning that
                    # parsing an integer via a float is deprecated: refuse it
                    warnings.simplefilter("error", DeprecationWarning)
                    # no rows at all is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    return np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=1, comments=None)
            except (ValueError, DeprecationWarning):
                return None

        table = parse(fh)

    def body() -> list[str]:
        # the lines after the header, read again only to name one in an error
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")[1:]

    def line_of(row: int) -> int:
        return [n for n, line in enumerate(body(), start=2) if line][row]

    if table is None:
        n, line = next((n, line) for n, line in enumerate(body(), start=2)
                       if line and parse([line]) is None)
        if np.issubdtype(value_type, np.integer):
            expected = f"{len(header)} comma-separated base-10 integers"
        else:
            expected = f"{len(keys)} comma-separated base-10 integers and {len(values)} number"
        raise ValueError(f"{path}: line {n}: expected {expected}, got {line!r}")
    if not table.size:
        raise ValueError(f"{path}: no {what} rows")
    key, value = table["key"], table["value"]
    if key.min() < base or value.min() < 0:
        n = line_of(((key < base).any(axis=1) | (value < 0).any(axis=1)).argmax())
        raise ValueError(f"{path}: line {n}: {', '.join(keys)} must be >= {base} and "
                         f"{', '.join(values)} non-negative, got {body()[n - 2]!r}")
    order = np.lexsort(key.T[::-1])
    key = key[order]
    same = (key[1:] == key[:-1]).all(axis=1)
    if same.any():
        j = same.argmax()
        raise ValueError(f"{path}: line {line_of(order[j + 1])}: duplicate cell "
                         f"({', '.join(keys)}), first given on line {line_of(order[j])}")
    grid = tuple(int(k) - base + 1 for k in key.max(axis=0))
    if len(key) != math.prod(grid):
        raise ValueError(f"{path}: missing cells: {len(key)} rows for the "
                         f"{' x '.join(map(str, grid))} grid of ({', '.join(keys)})")
    # distinct cells, as many as the grid has: sorted, they are the grid
    return value[order].reshape(grid + (len(values),))


def _write_table(path: str, header: list[str], fmt: list[str],
                 table: np.ndarray | list[tuple]) -> None:
    """Write the ``header`` names, then one line per row of ``table`` (a 2-D
    array, or a list of row tuples), each column formatted with its %-format
    in ``fmt``; ``_CSV_ROWS`` rows are formatted at a time, which bounds the
    text held for any table size."""
    row = ",".join(fmt) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r0 in range(0, len(table), _CSV_ROWS):
            chunk = table[r0 : r0 + _CSV_ROWS]
            cells = chunk.ravel().tolist() if isinstance(chunk, np.ndarray) else chain(*chunk)
            fh.write(row * len(chunk) % tuple(cells))
