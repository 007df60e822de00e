"""Moments, dependence measures, and orthant-order checks for count PMFs.

Counts here are small integers with heavy ties, so the rank statistics use
the tie-corrected variants: Kendall's tau-b and Spearman's rho on average
ranks. All three correlations come from the r x c contingency table of the
distinct x and y values (Agresti, *Categorical Data Analysis*, sec. 2.4):
Kendall's S sums each cell times the concordant minus discordant cells in
the rows above it; Pearson and Spearman are the table-weighted correlations
of the distinct values and of their mid-ranks. That costs O(n log n + r c)
for n samples; the table is reserved in the exact engines' cell budget,
which refuses one above it before it is allocated. When a margin is
constant, all three correlation measures are reported as explicitly
undefined rather than silently zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import _reserve
from .pmf import JointPmf
from .simulate import SampleMatrix

__all__ = [
    "TypeMoments",
    "MomentSummary",
    "DependenceSummary",
    "OrderViolation",
    "OrderReport",
    "marginal_moments",
    "correlations",
    "pairwise_correlations",
    "upper_orthant_survival",
    "lower_orthant_cdf",
    "check_orthant_monotone",
]


@dataclass(frozen=True)
class TypeMoments:
    mean: float
    sd: float
    mean_prop: float
    sd_prop: float


@dataclass(frozen=True)
class MomentSummary:
    """Mean and SD of each type's compromised count (and proportion)."""

    per_type: tuple[TypeMoments, ...]


@dataclass(frozen=True)
class DependenceSummary:
    """Pearson, Kendall tau-b and Spearman rho; None when undefined."""

    pearson: float | None
    kendall: float | None
    spearman: float | None

    @property
    def undefined(self) -> bool:
        return self.pearson is None


def _summary(
    means: Sequence[float], sds: Sequence[float], sizes: Sequence[int] | None
) -> MomentSummary:
    return MomentSummary(tuple(
        TypeMoments(m, s, m / n, s / n) if n > 0 else TypeMoments(m, s, 0.0, 0.0)
        for m, s, n in zip(means, sds, sizes or [0] * len(means))
    ))


def _pmf_moments(pmf: JointPmf) -> MomentSummary:
    means, sds = [], []
    for axis in range(pmf.num_types):
        marg = pmf.marginal(axis)
        xs = np.arange(marg.size, dtype=float)
        mean = float((xs * marg).sum())
        var = float(((xs - mean) ** 2 * marg).sum())
        means.append(mean)
        sds.append(float(np.sqrt(max(var, 0.0))))
    return _summary(means, sds, pmf.type_sizes)


def _depth_moments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased SD (0 for one run) over the runs of
    ``counts[k, l, t]``, as (depth, type) arrays.

    Reduces a contiguous (depth, type, run) copy along its last axis, so
    each entry is the same pairwise sum as a reduction of that one column.
    """
    x = counts.transpose(1, 2, 0).astype(float, order="C")
    mean = x.mean(axis=2)
    sd = x.std(axis=2, ddof=1) if x.shape[2] > 1 else np.zeros_like(mean)
    return mean, sd


def _sample_moments(samples: SampleMatrix, depth: int) -> MomentSummary:
    mean, sd = _depth_moments(samples.at_depth(depth)[:, None])
    return _summary(mean[0].tolist(), sd[0].tolist(), samples.type_sizes)


def marginal_moments(
    source: JointPmf | SampleMatrix, depth: int | None = None
) -> MomentSummary:
    """Per-type count moments: exact from a PMF, unbiased-SD from samples."""
    if isinstance(source, JointPmf):
        return _pmf_moments(source)
    if depth is None:
        raise ValueError("depth required for sample moments")
    return _sample_moments(source, depth)


def _sorted_firsts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a sorted, and a mask of the first entry of each distinct value."""
    s = np.sort(a)
    return s, np.concatenate(([True], s[1:] != s[:-1]))


def _kendall_s(table: np.ndarray) -> int:
    """Kendall's S = sum_ij t_ij (C_ij - D_ij), where C_ij (D_ij) counts the
    samples in the rows above row i and the columns left (right) of j.

    With A_ij the samples in column j above row i and G_ij = sum_{l<=j} A_il,
    C_ij - D_ij = 2 G_ij - A_ij - G_i,last.
    """
    above = table.cumsum(axis=0)
    above -= table
    s = -int(np.vdot(table, above))
    above.cumsum(axis=1, out=above)
    return s + 2 * int(np.vdot(table, above)) - int(table.sum(axis=1) @ above[:, -1])


def correlations(x: Sequence[float], y: Sequence[float]) -> DependenceSummary:
    """Dependence between two count sequences.

    Returns the all-undefined summary when either margin is constant
    (correlation with a constant has no value). Raises ``ValueError`` on
    non-finite input, and ``ExactEngineCapError`` (a ``ValueError``) when
    the contingency table of the distinct values is above the cell budget.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise ValueError("x and y must be 1-D of equal length")
    n = xa.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("x and y must be finite")
    (xs, x_first), (ys, y_first) = _sorted_firsts(xa), _sorted_firsts(ya)
    r, c = np.count_nonzero(x_first), np.count_nonzero(y_first)
    if r == 1 or c == 1:
        return DependenceSummary(None, None, None)
    # the table and one working copy of it are the largest arrays held
    _reserve(2 * r * c, f"x has {r} distinct values and y has {c}: their "
             "contingency table and its working copy", advice="")
    xv, yv = xs[x_first], ys[y_first]
    table = np.bincount(xv.searchsorted(xa) * c + yv.searchsorted(ya), minlength=r * c)
    table = table.reshape(r, c)
    a, b = table.sum(axis=1), table.sum(axis=0)

    # pairs not tied in x (n0 - n1) and not tied in y (n0 - n2)
    n0 = n * (n - 1) // 2
    x_pairs = n0 - int(a @ (a - 1)) // 2
    y_pairs = n0 - int(b @ (b - 1)) // 2
    tau = _kendall_s(table) / math.sqrt(x_pairs) / math.sqrt(y_pairs)

    # row 0: the values, row 1: their mid-ranks; centred, they give Pearson
    # and Spearman
    u = np.array([xv, a.cumsum() - (a - 1) / 2])
    v = np.array([yv, b.cumsum() - (b - 1) / 2])
    u -= (u @ a / n)[:, None]
    v -= (v @ b / n)[:, None]
    pearson, spearman = np.clip(
        ((u @ table) * v).sum(axis=1) / np.sqrt(u**2 @ a * (v**2 @ b)), -1.0, 1.0
    )
    return DependenceSummary(float(pearson), min(1.0, max(-1.0, tau)), float(spearman))


def pairwise_correlations(
    samples: SampleMatrix, depth: int
) -> dict[tuple[int, int], DependenceSummary]:
    """Dependence summaries for every type pair at one depth."""
    block = samples.at_depth(depth)
    m = samples.num_types
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            out[(i, j)] = correlations(block[:, i], block[:, j])
    return out


def _check_point(pmf: JointPmf, point: Sequence[int]) -> tuple[int, ...]:
    pt = tuple(int(v) for v in point)
    if len(pt) != pmf.num_types:
        raise ValueError(f"point has {len(pt)} coordinates, PMF has {pmf.num_types}")
    return pt


def upper_orthant_survival(pmf: JointPmf, point: Sequence[int]) -> float:
    """P(X_1 > x_1, ..., X_M > x_M). Coordinates of -1 impose no bound."""
    pt = _check_point(pmf, point)
    sel = tuple(slice(max(x, -1) + 1, None) for x in pt)
    return float(pmf.probs[sel].sum())


def lower_orthant_cdf(pmf: JointPmf, point: Sequence[int]) -> float:
    """P(X_1 <= x_1, ..., X_M <= x_M)."""
    pt = _check_point(pmf, point)
    if any(x < 0 for x in pt):
        return 0.0
    sel = tuple(slice(0, x + 1) for x in pt)
    return float(pmf.probs[sel].sum())


@dataclass(frozen=True)
class OrderViolation:
    kind: str  # "survival" or "cdf"
    point: tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class OrderReport:
    """Outcome of an orthant comparison between two PMFs.

    ``passed`` holds iff ``max_violation <= tolerance``; the violation list
    carries every grid point where an inequality failed beyond tolerance.
    """

    claim: str
    tolerance: float
    max_violation: float
    violations: tuple[OrderViolation, ...]
    passed: bool

    def summary(self, max_listed: int = 5) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {self.claim} (max violation {self.max_violation:.3e}, tol {self.tolerance:.1e})"]
        for v in self.violations[:max_listed]:
            lines.append(f"  {v.kind} at x={v.point}: {v.magnitude:.3e}")
        extra = len(self.violations) - max_listed
        if extra > 0:
            lines.append(f"  ... and {extra} more")
        return "\n".join(lines)


def _survival_grid(probs: np.ndarray) -> np.ndarray:
    """g[x] = P(X >= x) for every grid point x."""
    g = probs
    for ax in range(probs.ndim):
        g = np.flip(np.cumsum(np.flip(g, ax), ax), ax)
    return g


def _cdf_grid(probs: np.ndarray) -> np.ndarray:
    g = probs
    for ax in range(probs.ndim):
        g = np.cumsum(g, ax)
    return g


def check_orthant_monotone(
    pmf_lo: JointPmf,
    pmf_hi: JointPmf,
    tol: float = 1e-12,
    claim: str = "lo is orthant-dominated by hi",
) -> OrderReport:
    """Check the orthant inequalities implied by stochastic dominance.

    Passes iff, at every grid point, the upper-orthant survival of ``pmf_hi``
    is at least that of ``pmf_lo`` and its lower-orthant CDF is at most that
    of ``pmf_lo``, both within ``tol``. These are necessary conditions of the
    usual multivariate stochastic order; the full order (over all
    nondecreasing functions) is not finitely checkable and is not claimed.
    """
    if pmf_lo.dims != pmf_hi.dims:
        raise ValueError(f"dimension mismatch: {pmf_lo.dims} vs {pmf_hi.dims}")
    surv_gap = _survival_grid(pmf_lo.probs) - _survival_grid(pmf_hi.probs)
    cdf_gap = _cdf_grid(pmf_hi.probs) - _cdf_grid(pmf_lo.probs)
    violations: list[OrderViolation] = []
    for kind, gap in (("survival", surv_gap), ("cdf", cdf_gap)):
        for point in np.argwhere(gap > tol):
            pt = tuple(int(v) for v in point)
            violations.append(OrderViolation(kind, pt, float(gap[pt])))
    violations.sort(key=lambda v: -v.magnitude)
    max_violation = max(0.0, float(surv_gap.max()), float(cdf_gap.max()))
    return OrderReport(
        claim=claim,
        tolerance=tol,
        max_violation=max_violation,
        violations=tuple(violations),
        passed=max_violation <= tol,
    )
