import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoprisk import (
    JointPmf,
    check_orthant_monotone,
    complete_network,
    joint_pmf,
    parse_rules,
    score_distribution,
    score_vector,
)

from hoprisk.scoring import CountPattern, ScoreRule, ScoreRuleSet

from tables import SCORE_ASSIGNMENTS, SCORE_RULES_JSON, TABLE_GRIDS


@pytest.fixture(scope="module")
def table_rules():
    return parse_rules(SCORE_RULES_JSON, type_sizes=(5, 2, 1))


def test_table_rules_parse(table_rules):
    assert table_rules.arity == 3
    assert len(table_rules.rules) == 13
    assert sorted({r.score for r in table_rules.rules} | {table_rules.default}) == [
        0, 1, 2, 3, 4, 5,
    ]


def test_table_rule_assignments(table_rules):
    for vector, score in SCORE_ASSIGNMENTS:
        assert score_vector(table_rules, vector) == score, vector


def test_empty_rules_constant_scorer():
    rules = parse_rules('{"default": 0, "rules": []}')
    assert score_vector(rules, (3, 1, 4)) == 0
    assert score_vector(rules, ()) == 0


def test_bound_out_of_range_rejected():
    text = '{"default": 0, "rules": [{"pattern": [">=7"], "score": 1}]}'
    with pytest.raises(ValueError, match="out of range"):
        parse_rules(text, type_sizes=(5,))
    # without sizes the parse is fine; applying to a PMF re-checks
    rules = parse_rules(text)
    probs = np.zeros(6)
    probs[0] = 1.0
    with pytest.raises(ValueError, match="out of range"):
        score_distribution(rules, JointPmf((6,), probs))


def test_parse_errors():
    with pytest.raises(ValueError, match="JSON"):
        parse_rules("{nope")
    with pytest.raises(ValueError, match="default"):
        parse_rules('{"rules": []}')
    with pytest.raises(ValueError, match="malformed"):
        parse_rules('{"default": 0, "rules": [{"pattern": ["!=2"], "score": 1}]}')
    with pytest.raises(ValueError, match="same number"):
        parse_rules(
            '{"default": 0, "rules": ['
            '{"pattern": ["==0"], "score": 1},'
            '{"pattern": ["==0", "==0"], "score": 2}]}'
        )
    with pytest.raises(ValueError, match="score"):
        parse_rules('{"default": 0, "rules": [{"pattern": ["*"], "score": -1}]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"default": true, "rules": []}', "default score must be a non-negative integer: True"),
        ('{"default": 0, "rules": [{"pattern": ["==0"], "score": false}]}',
         "score must be a non-negative integer: False"),
    ],
)
def test_parse_refuses_boolean_scores(text, message):
    with pytest.raises(ValueError) as err:
        parse_rules(text)
    assert str(err.value) == message


def test_parse_refuses_json_nested_too_deeply():
    with pytest.raises(ValueError, match="^rules are not valid JSON: "):
        parse_rules("[" * 100000 + "]" * 100000)


def test_first_match_wins_and_order_matters():
    overlapping = (
        '{"default": 9, "rules": ['
        '{"pattern": [">=1", "*"], "score": 1},'
        '{"pattern": [">=2", "*"], "score": 2}]}'
    )
    rules = parse_rules(overlapping)
    assert score_vector(rules, (2, 0)) == 1
    flipped = parse_rules(
        '{"default": 9, "rules": ['
        '{"pattern": [">=2", "*"], "score": 2},'
        '{"pattern": [">=1", "*"], "score": 1}]}'
    )
    assert score_vector(flipped, (2, 0)) == 2
    again = parse_rules(overlapping)
    assert all(
        score_vector(rules, (a, b)) == score_vector(again, (a, b))
        for a in range(3)
        for b in range(3)
    )


def test_distribution_point_mass(table_rules):
    probs = np.zeros((6, 3, 2))
    probs[0, 0, 0] = 1.0
    dist = score_distribution(table_rules, JointPmf((6, 3, 2), probs))
    assert dist == {0: 1.0}


def test_distribution_reference_grid():
    rules = parse_rules(
        '{"default": 1, "rules": [{"pattern": ["==0", "==0"], "score": 0}]}'
    )
    pmf = JointPmf((3, 4), TABLE_GRIDS[2])
    dist = score_distribution(rules, pmf)
    assert dist[0] == pytest.approx(0.3277)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_distribution_uniform_two_cells():
    rules = parse_rules(
        '{"default": 5, "rules": [{"pattern": ["==0", "==0"], "score": 1}]}'
    )
    probs = np.zeros((2, 2))
    probs[0, 0] = 0.5
    probs[1, 1] = 0.5
    dist = score_distribution(rules, JointPmf((2, 2), probs))
    assert dist == {1: 0.5, 5: 0.5}


def test_distribution_dimension_mismatch(table_rules):
    probs = np.zeros((3, 4))
    probs[0, 0] = 1.0
    with pytest.raises(ValueError, match="types"):
        score_distribution(table_rules, JointPmf((3, 4), probs))


def test_distribution_sums_to_one(table_rules):
    net = complete_network([5, 2, 1], 0.25, 0.15)
    pmf = joint_pmf(net, 2)
    dist = score_distribution(table_rules, pmf)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_expected_score_monotone_under_dominance():
    # thresholds from the top down give a score nondecreasing in the vector
    monotone = parse_rules(
        '{"default": 0, "rules": ['
        '{"pattern": [">=2", ">=3"], "score": 3},'
        '{"pattern": [">=1", ">=2"], "score": 2},'
        '{"pattern": [">=1", ">=1"], "score": 1}]}'
    )
    net = complete_network([2, 3], 0.2, 0.1)
    lo = joint_pmf(net, 1)
    hi = joint_pmf(net, 3)
    assert check_orthant_monotone(lo, hi).passed
    exp_lo = sum(s * p for s, p in score_distribution(monotone, lo).items())
    exp_hi = sum(s * p for s, p in score_distribution(monotone, hi).items())
    assert exp_lo <= exp_hi + 1e-12


def test_score_reached_only_by_zero_probability_cells_is_absent():
    rules = parse_rules('{"default": 0, "rules": [{"pattern": ["==2"], "score": 7}]}')
    dist = score_distribution(rules, JointPmf((3,), np.array([0.25, 0.75, 0.0])))
    assert dist == {0: 1.0}


def _loop_score_distribution(rules, pmf):
    """Cell-by-cell pushforward through ``score_vector``, in C order."""
    dist = {}
    for idx in np.ndindex(*pmf.dims):
        prob = float(pmf.probs[idx])
        if prob == 0.0:
            continue
        score = score_vector(rules, idx)
        dist[score] = dist.get(score, 0.0) + prob
    return dict(sorted(dist.items()))


@st.composite
def rules_and_pmfs(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    pattern = st.tuples(*(
        st.just(("*", None)) | st.tuples(st.sampled_from(["==", ">=", "<="]), st.integers(0, d - 1))
        for d in dims
    ))
    rules = [ScoreRule(CountPattern(preds), score)
             for preds, score in draw(st.lists(st.tuples(pattern, st.integers(0, 5)), max_size=6))]
    size = int(np.prod(dims))
    weights = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=size,
                                     max_size=size)))
    weights[draw(st.integers(0, size - 1))] = 1.0
    pmf = JointPmf(dims, (weights / weights.sum()).reshape(dims))
    return ScoreRuleSet(tuple(rules), draw(st.integers(0, 5)), len(dims)), pmf


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=rules_and_pmfs())
def test_score_distribution_matches_a_cell_by_cell_loop(case):
    rules, pmf = case
    got = score_distribution(rules, pmf)
    assert list(got.items()) == list(_loop_score_distribution(rules, pmf).items())
