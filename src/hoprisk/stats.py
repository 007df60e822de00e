"""Moments, dependence measures, and orthant-order checks for count PMFs.

Counts here are small integers with heavy ties, so the rank statistics use
the tie-corrected variants: Kendall's tau-b and Spearman's rho on average
ranks. All three correlations come from the r x c contingency table of the
distinct x and y values (Agresti, *Categorical Data Analysis*, sec. 2.4):
Kendall's S sums each cell times the concordant minus discordant cells in
the rows above it; Pearson and Spearman are the table-weighted correlations
of the distinct values and of their mid-ranks. That costs O(n log n + r c)
for n samples. The depths of a sample matrix take one table pass: each
type's values are coded once over all L depths (in groups of at most
``_CODED_CELLS`` entries) and one ``bincount`` builds a stack of L tables,
in O(n L log(n L) + L r c) with r and c counted over all depths. Tables are
reserved in the exact engines' cell budget, which refuses one above it
before it is allocated (a stack of depths above it is taken one depth at a
time). When a margin is constant, all three correlation measures are
reported as explicitly undefined rather than silently zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact
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


# Sample entries of one type (runs x depths) coded at a time by the depth
# pass of the correlations: bounds its working memory for any run count.
_CODED_CELLS = 1 << 18


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


def _centred_scores(values: np.ndarray, margin: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per table (axis 0): the distinct values (row 0) and their mid-ranks
    (row 1), each centred on its mean under the ``margin`` counts."""
    w = np.empty((len(margin), 2, margin.shape[1]))
    w[:, 0] = values
    w[:, 1] = margin.cumsum(axis=1) - (margin - 1) / 2
    w -= w @ margin[:, :, None] / n[:, None, None]
    return w


def _table_correlations(
    table: np.ndarray, xv: np.ndarray, yv: np.ndarray
) -> list[DependenceSummary]:
    """Pearson, Kendall tau-b and Spearman rho of each table in a stack.

    ``table[b, i, j]`` counts the samples of table b with the i-th x value
    ``xv[..., i]`` and the j-th y value ``yv[..., j]`` (values ascending;
    ``xv`` and ``yv`` broadcast over the stack); rows and columns may be
    empty. A table whose x or y values are all one value is undefined.
    Besides the stack, one working copy of it is allocated.
    """
    a, b = table.sum(axis=2), table.sum(axis=1)
    n = a.sum(axis=1)
    # pairs not tied in x (n0 - n1) and not tied in y (n0 - n2); none when
    # that margin is constant
    n0 = n * (n - 1) // 2
    x_pairs = n0 - np.einsum("bi,bi->b", a, a - 1) // 2
    y_pairs = n0 - np.einsum("bi,bi->b", b, b - 1) // 2

    # Kendall's S = sum_ij t_ij (C_ij - D_ij), where C_ij (D_ij) counts the
    # samples in the rows above row i and the columns left (right) of j.
    # With A_ij the samples in column j above row i and G_ij = sum_{l<=j} A_il,
    # C_ij - D_ij = 2 G_ij - A_ij - G_i,last.
    above = table.cumsum(axis=1)
    above -= table
    s = -np.einsum("bij,bij->b", table, above)
    above.cumsum(axis=2, out=above)
    s += 2 * np.einsum("bij,bij->b", table, above) - np.einsum("bi,bi->b", a, above[:, :, -1])

    # the centred values give Pearson, the centred mid-ranks Spearman
    u, v = _centred_scores(xv, a, n), _centred_scores(yv, b, n)
    out = np.empty((3, len(table)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[0] = s / np.sqrt(x_pairs) / np.sqrt(y_pairs)
        out[1:] = ((u @ table) * v).sum(axis=2).T
        out[1:] /= np.sqrt((u**2 @ a[:, :, None]) * (v**2 @ b[:, :, None]))[..., 0].T
    defined = ((x_pairs > 0) & (y_pairs > 0)).tolist()
    return [DependenceSummary(r, k, rho) if ok else DependenceSummary(None, None, None)
            for ok, k, r, rho in zip(defined, *np.clip(out, -1.0, 1.0, out=out).tolist())]


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
    # the table is refused before the samples are stacked and coded: a
    # refusal costs one sorted copy of x and of y
    r, c = np.unique(xa).size, np.unique(ya).size
    if r == 1 or c == 1:
        return DependenceSummary(None, None, None)
    exact._reserve(2 * r * c, f"x has {r} distinct values and y has {c}: their "
                   "contingency table and its working copy", advice="")
    return _depth_correlations(np.stack((xa, ya), axis=1)[:, None])[(0, 1)][0]


def _code(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``values``, ascending, and the index of each
    entry among them. Counts (whole numbers from 0 to ``values.size``) take
    one ``bincount``, O(n); other values take a sort."""
    if values.size and values.min() >= 0 and values.max() <= values.size:
        whole = values.astype(np.intp)
        if (whole == values).all():
            seen = np.bincount(whole.reshape(-1)) > 0
            return np.flatnonzero(seen).astype(float), (np.cumsum(seen) - 1)[whole]
    distinct, codes = np.unique(values, return_inverse=True)
    return distinct, codes.reshape(values.shape)


def _depth_correlations(counts: np.ndarray) -> dict[tuple[int, int], list[DependenceSummary]]:
    """Dependence summaries of every type pair (i, j), i < j, at each depth
    of ``counts[k, l, t]``, in depth order; all undefined for one run.

    Each type's values are coded once over a group of depths, so one
    ``bincount`` per pair builds the tables of every depth in the group on
    the same value axes. A group holds at most ``_CODED_CELLS`` entries of a
    type, or one depth. When its stack of tables is above the cell budget,
    its depths are taken one at a time on their own values; a single depth
    above the budget raises ``ExactEngineCapError``, as :func:`correlations`
    does.
    """
    runs, depth, m = counts.shape
    out: dict[tuple[int, int], list[DependenceSummary]] = {
        (i, j): [] for i in range(m) for j in range(i + 1, m)}

    def add(l0: int, l1: int) -> None:
        group = counts[:, l0:l1]
        size = l1 - l0
        # each type's distinct values over the group, and the code of each entry
        coded = [_code(group[:, :, t]) for t in range(m)]
        widest = max((values.size for values, _ in coded), default=1)
        if size > 1 and 2 * size * widest * widest > exact._MAX_CELLS:
            for l in range(l0, l1):
                add(l, l + 1)
            return
        codes = [inv.reshape(runs, size) for _, inv in coded]
        at = np.arange(size)
        where = f"depth {l0 + 1}" if size == 1 else f"depths {l0 + 1}..{l1}"
        for (i, j), summaries in out.items():
            (xv, _), (yv, _) = coded[i], coded[j]
            r, c = xv.size, yv.size
            exact._reserve(2 * size * r * c, f"{where}, types {i + 1} and {j + 1}: x has "
                           f"{r} distinct values and y has {c}: their contingency tables "
                           "and a working copy", advice="")
            cells = (at * r + codes[i]) * c + codes[j]
            table = np.bincount(cells.reshape(-1), minlength=size * r * c)
            summaries += _table_correlations(table.reshape(size, r, c), xv, yv)

    step = max(1, _CODED_CELLS // runs)
    for l0 in range(0, depth, step):
        add(l0, min(depth, l0 + step))
    return out


def pairwise_correlations(
    samples: SampleMatrix, depth: int
) -> dict[tuple[int, int], DependenceSummary]:
    """Dependence summaries for every type pair at one depth."""
    if samples.runs < 2:
        raise ValueError("need at least 2 samples")
    block = samples.at_depth(depth)[:, None]
    return {pair: d[0] for pair, d in _depth_correlations(block).items()}


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
    of ``pmf_lo``, both within ``tol``. They are necessary but not sufficient
    for the usual multivariate stochastic order, which is not checked here.
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
