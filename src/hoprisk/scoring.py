"""Ordered pattern rules mapping compromise-count vectors to risk scores.

A rule set is an ordered list of per-coordinate predicates with an integer
score; the first matching rule wins, and vectors matching no rule take the
declared default. First-match semantics matter because realistic scoring
tables contain overlapping patterns.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pmf import JointPmf

__all__ = [
    "CountPattern",
    "ScoreRule",
    "ScoreRuleSet",
    "parse_rules",
    "score_vector",
    "score_distribution",
]

_PRED_RE = re.compile(r"^(==|>=|<=)\s*(\d+)$")
# each predicate, for a count and for an array of counts alike
_COMPARE = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


@dataclass(frozen=True)
class CountPattern:
    """One predicate per type: ('==' | '>=' | '<=', k) or ('*', None)."""

    predicates: tuple[tuple[str, int | None], ...]

    def matches(self, x: Sequence[int]) -> bool:
        return all(op == "*" or _COMPARE[op](v, k) for (op, k), v in zip(self.predicates, x))

    @property
    def arity(self) -> int:
        return len(self.predicates)


@dataclass(frozen=True)
class ScoreRule:
    pattern: CountPattern
    score: int


@dataclass(frozen=True)
class ScoreRuleSet:
    rules: tuple[ScoreRule, ...]
    default: int
    arity: int


def _parse_pattern(raw: object) -> CountPattern:
    # a string would be read character by character and an object by its keys
    if not isinstance(raw, list):
        raise ValueError(f"pattern must be a list of strings: {raw!r}")
    preds: list[tuple[str, int | None]] = []
    for token in raw:
        if not isinstance(token, str):
            raise ValueError(f"pattern entry must be a string: {token!r}")
        token = token.strip()
        if token == "*":
            preds.append(("*", None))
            continue
        m = _PRED_RE.match(token)
        if not m:
            raise ValueError(f"malformed pattern entry: {token!r}")
        preds.append((m.group(1), int(m.group(2))))
    if not preds:
        raise ValueError("empty pattern")
    return CountPattern(tuple(preds))


def parse_rules(text: str, type_sizes: Sequence[int] | None = None) -> ScoreRuleSet:
    """Parse a rule-set JSON document.

    Schema: ``{"default": 0, "rules": [{"pattern": ["==0", ">=1", "*"],
    "score": 4}, ...]}``. All patterns must have the same arity. When
    ``type_sizes`` is given, every pattern bound k is checked against
    ``0..N_i``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"rules are not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "default" not in doc:
        raise ValueError("rules JSON must be an object with a 'default' score")
    default = doc["default"]
    if isinstance(default, bool) or not isinstance(default, int) or default < 0:
        raise ValueError(f"default score must be a non-negative integer: {default!r}")
    raw_rules = doc.get("rules", [])
    if not isinstance(raw_rules, list):
        raise ValueError("'rules' must be a list")
    rules: list[ScoreRule] = []
    arity: int | None = None
    for entry in raw_rules:
        if not isinstance(entry, dict) or "pattern" not in entry or "score" not in entry:
            raise ValueError(f"rule entry needs 'pattern' and 'score': {entry!r}")
        score = entry["score"]
        if isinstance(score, bool) or not isinstance(score, int) or score < 0:
            raise ValueError(f"score must be a non-negative integer: {score!r}")
        pattern = _parse_pattern(entry["pattern"])
        if arity is None:
            arity = pattern.arity
        elif pattern.arity != arity:
            raise ValueError("all patterns must have the same number of coordinates")
        rules.append(ScoreRule(pattern, score))
    if arity is None:
        arity = len(type_sizes) if type_sizes is not None else 0
    ruleset = ScoreRuleSet(tuple(rules), default, arity)
    if type_sizes is not None:
        _check_bounds(ruleset, type_sizes)
    return ruleset


def _check_bounds(rules: ScoreRuleSet, type_sizes: Sequence[int]) -> None:
    if rules.rules and rules.arity != len(type_sizes):
        raise ValueError(
            f"patterns have {rules.arity} coordinates but there are "
            f"{len(type_sizes)} types"
        )
    for rule in rules.rules:
        for (op, k), size in zip(rule.pattern.predicates, type_sizes):
            if op != "*" and not 0 <= k <= size:
                raise ValueError(
                    f"pattern bound {op}{k} out of range for a type with "
                    f"{size} nodes"
                )


def score_vector(rules: ScoreRuleSet, x: Sequence[int]) -> int:
    """Score of the first matching rule, or the default."""
    if rules.rules and len(x) != rules.arity:
        raise ValueError(f"vector has {len(x)} coordinates, rules expect {rules.arity}")
    for rule in rules.rules:
        if rule.pattern.matches(x):
            return rule.score
    return rules.default


def score_distribution(rules: ScoreRuleSet, pmf: JointPmf) -> dict[int, float]:
    """Pushforward of a count PMF through the rule set: score -> probability."""
    _check_bounds(rules, pmf.type_sizes)
    # each cell's score, as a code into the sorted distinct scores: the
    # rules are laid down last to first, so the first match wins
    values = sorted({rule.score for rule in rules.rules} | {rules.default})
    codes = np.full(pmf.dims, values.index(rules.default))
    counts = np.indices(pmf.dims, sparse=True)
    for rule in reversed(rules.rules):
        match = np.ones(pmf.dims, dtype=bool)
        for (op, k), x in zip(rule.pattern.predicates, counts):
            if op != "*":
                match &= _COMPARE[op](x, k)
        codes[match] = values.index(rule.score)
    # summed cell by cell in C order, as a loop over np.ndindex would
    probs = pmf.probs.ravel()
    total = np.bincount(codes.ravel(), weights=probs, minlength=len(values))
    reached = np.bincount(codes.ravel()[probs != 0.0], minlength=len(values))
    return {v: float(p) for v, p, hit in zip(values, total, reached) if hit}
