import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fislab.model import (Classifier, DomainError, FeatureDomain,
                          ParseError, RelabelError, ScaleLimitError,
                          TableBody, agreement_set, evaluate, features_of,
                          load_problem, make_problem, mask_of,
                          parse_boolean_expression, parse_model,
                          problem_to_document, relabel_classes)


def boolean_table_classifier(m, labels):
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))
    return Classifier(features, frozenset(labels) | {0, 1}, TableBody(labels))


# ---------------------------------------------------------------------------
# domains and construction

def test_domain_rejects_duplicates_and_empty():
    with pytest.raises(DomainError):
        FeatureDomain(1, (0, 0))
    with pytest.raises(DomainError):
        FeatureDomain(1, ())


def test_single_valued_domain_is_flagged_not_rejected():
    features = (FeatureDomain(1, (0, 1)), FeatureDomain(2, ("only",)))
    cls = Classifier(features, frozenset({0, 1}), TableBody((0, 1)))
    assert cls.trivial_features == (2,)


def test_constant_function_rejected():
    with pytest.raises(DomainError, match="constant"):
        boolean_table_classifier(2, (1, 1, 1, 1))


def test_labels_must_be_declared():
    features = (FeatureDomain(1, (0, 1)),)
    with pytest.raises(DomainError):
        Classifier(features, frozenset({0, 1}), TableBody((0, 3)))


def test_feature_ids_must_be_consecutive():
    features = (FeatureDomain(1, (0, 1)), FeatureDomain(3, (0, 1)))
    with pytest.raises(ParseError):
        Classifier(features, frozenset({0, 1}), TableBody((0, 1, 1, 0)))


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_and_or_chain(chain):
    assert evaluate(chain.classifier, (1, 0, 1, 1)) == 1
    assert evaluate(chain.classifier, (0, 1, 1, 1)) == 0


def test_evaluate_single_decider(single):
    assert evaluate(single.classifier, (1, 0)) == 1


def test_evaluate_rejects_out_of_domain(chain):
    with pytest.raises(DomainError):
        evaluate(chain.classifier, (1, 2, 1, 1))
    with pytest.raises(DomainError):
        evaluate(chain.classifier, (1, 1, 1))


def test_chain_expression_matches_direct_formula(chain):
    for p in itertools.product((0, 1), repeat=4):
        expected = p[0] and (p[1] or (p[2] and p[3]))
        assert chain.classifier.evaluate(p) == int(bool(expected))


# ---------------------------------------------------------------------------
# point selection

def test_select_points_fixing_two_features(chain):
    got = chain.select_points(mask_of([1, 2], 4))
    assert got == [(1, 1, a, b) for a in (0, 1) for b in (0, 1)]


def test_select_points_extremes(chain):
    assert chain.select_points(chain.full_mask) == [(1, 1, 1, 1)]
    assert len(chain.select_points(0)) == 16


def test_select_points_cardinality_product():
    features = (FeatureDomain(1, (0, 1, 2)), FeatureDomain(2, ("a", "b")),
                FeatureDomain(3, (0, 1)))
    labels = tuple(i % 2 for i in range(12))
    cls = Classifier(features, frozenset({0, 1}), TableBody(labels))
    problem = make_problem(cls, (2, "b", 0))
    for subset in range(8):
        expected = 1
        for i, dom in enumerate(cls.features):
            if not subset >> i & 1:
                expected *= dom.size
        assert len(problem.select_points(subset)) == expected
        assert problem.upsilon_size(subset) == expected


def test_select_points_monotone_in_subset(chain):
    for s in range(16):
        for t in range(16):
            if s & ~t:
                continue  # s must be a subset of t
            bigger = set(chain.select_points(t))
            smaller = set(chain.select_points(s))
            assert bigger <= smaller


def test_select_ranks_agree_with_points(chain):
    all_points = list(chain.classifier.points())
    for subset in range(16):
        via_ranks = [all_points[r] for r in chain.select_ranks(subset)]
        assert via_ranks == chain.select_points(subset)


# ---------------------------------------------------------------------------
# agreement

def test_agreement_examples():
    assert features_of(agreement_set((1, 0, 1, 1), (1, 1, 1, 1))) == (1, 3, 4)
    assert agreement_set((1, 1), (1, 1)) == 0b11
    assert agreement_set((0, 1), (1, 0)) == 0


def test_agreement_requires_same_length():
    with pytest.raises(DomainError):
        agreement_set((1, 0), (1, 0, 1))


# ---------------------------------------------------------------------------
# relabeling

def test_relabel_swap_complements_boolean(chain):
    swapped = relabel_classes(chain.classifier, {0: 1, 1: 0})
    for p in chain.classifier.points():
        assert swapped.evaluate(p) == 1 - chain.classifier.evaluate(p)


def test_relabel_identity_is_pointwise_equal(chain):
    same = relabel_classes(chain.classifier, {0: 0, 1: 1})
    for p in chain.classifier.points():
        assert same.evaluate(p) == chain.classifier.evaluate(p)


def test_relabel_preserves_minimal_explanations(chain):
    from fislab.explain import enumerate_axps
    relabeled = relabel_classes(chain.classifier, {0: 7, 1: 3})
    assert sorted(relabeled.classes) == [3, 7]
    other = make_problem(relabeled, chain.v)
    assert enumerate_axps(other).members == enumerate_axps(chain).members


def test_relabel_rejects_bad_maps(chain):
    with pytest.raises(RelabelError):
        relabel_classes(chain.classifier, {0: 1})
    with pytest.raises(RelabelError):
        relabel_classes(chain.classifier, {0: 5, 1: 5})


# ---------------------------------------------------------------------------
# boolean expression parsing

def test_parse_reports_token_position():
    with pytest.raises(ParseError) as err:
        parse_boolean_expression("x1 &")
    assert err.value.token_index == 3


def test_parse_rejects_unknown_character():
    with pytest.raises(ParseError):
        parse_boolean_expression("x1 + x2")


def test_parse_precedence_not_over_and_over_or():
    cls = parse_boolean_expression("!x1 | x2 & x3")
    for p in itertools.product((0, 1), repeat=3):
        assert cls.evaluate(p) == int((not p[0]) or (p[1] and p[2]))


def test_parse_parentheses_override():
    cls = parse_boolean_expression("x1 & (x2 | x3)")
    for p in itertools.product((0, 1), repeat=3):
        assert cls.evaluate(p) == int(p[0] and (p[1] or p[2]))


def test_parse_unicode_operators():
    cls = parse_boolean_expression("¬x1 ∨ x2 ∧ x1")
    for p in itertools.product((0, 1), repeat=2):
        assert cls.evaluate(p) == int((not p[0]) or (p[1] and p[0]))


def test_parse_with_declared_feature_count():
    cls = parse_boolean_expression("x1", n_features=2)
    assert cls.m == 2
    with pytest.raises(ParseError):
        parse_boolean_expression("x3", n_features=2)


# ---------------------------------------------------------------------------
# model documents

def chain_document():
    return {
        "features": [{"id": i, "values": [0, 1]} for i in range(1, 5)],
        "classes": [0, 1],
        "body": {"kind": "boolexpr", "expr": "x1 & (x2 | x3 & x4)"},
        "instance": {"point": [1, 1, 1, 1], "label": 1},
    }


def test_parse_model_boolexpr_matches_reference(chain):
    cls = parse_model(chain_document())
    assert cls._labels == chain.classifier._labels


def test_parse_model_table_and_roundtrip():
    doc = {
        "features": [{"id": 1, "values": [0, 1, 2]}, {"id": 2, "values": [0, 1]}],
        "classes": [0, 1, 2],
        "body": {"kind": "table", "labels": [0, 1, 2, 0, 1, 2]},
    }
    cls = parse_model(doc)
    again = parse_model(json.dumps(cls.to_document()))
    assert again._labels == cls._labels


def test_parse_model_tree():
    doc = {
        "features": [{"id": 1, "values": ["lo", "hi"]}, {"id": 2, "values": [0, 1]}],
        "classes": [0, 1],
        "body": {"kind": "tree", "root": {
            "feature": 1,
            "branches": [
                {"value": "lo", "child": {"class": 0}},
                {"value": "hi", "child": {
                    "feature": 2,
                    "branches": [{"value": 0, "child": {"class": 0}},
                                 {"value": 1, "child": {"class": 1}}]}},
            ]}},
    }
    cls = parse_model(doc)
    assert cls.evaluate(("hi", 1)) == 1
    assert cls.evaluate(("hi", 0)) == 0
    assert cls.evaluate(("lo", 1)) == 0
    again = parse_model(cls.to_document())
    assert again._labels == cls._labels


def test_parse_model_tree_must_cover_domain():
    doc = {
        "features": [{"id": 1, "values": [0, 1, 2]}],
        "classes": [0, 1],
        "body": {"kind": "tree", "root": {
            "feature": 1,
            "branches": [{"value": 0, "child": {"class": 0}},
                         {"value": 1, "child": {"class": 1}}]}},
    }
    with pytest.raises(ParseError):
        parse_model(doc)


def test_parse_model_wvg():
    doc = {
        "features": [{"id": i, "values": [0, 1]} for i in range(1, 4)],
        "classes": [0, 1],
        "body": {"kind": "wvg", "quota": 3, "weights": [2, 1, 1]},
    }
    cls = parse_model(doc)
    assert cls.evaluate((1, 1, 0)) == 1
    assert cls.evaluate((0, 1, 1)) == 0
    again = parse_model(cls.to_document())
    assert again._labels == cls._labels


@pytest.mark.parametrize("quota, weights", [(1.5, [2, 1, 1]), (3, [2, 1.0, 1])])
def test_parse_model_wvg_rejects_non_integers(quota, weights):
    doc = {
        "features": [{"id": i, "values": [0, 1]} for i in range(1, 4)],
        "classes": [0, 1],
        "body": {"kind": "wvg", "quota": quota, "weights": weights},
    }
    with pytest.raises(DomainError, match="integer"):
        parse_model(doc)


def test_parse_model_rejects_short_table():
    doc = {
        "features": [{"id": 1, "values": [0, 1]}, {"id": 2, "values": [0, 1]}],
        "classes": [0, 1],
        "body": {"kind": "table", "labels": [0, 1, 1]},
    }
    with pytest.raises(ParseError):
        parse_model(doc)


def test_load_problem_embedded_instance():
    problem = load_problem(json.dumps(chain_document()))
    assert problem.v == (1, 1, 1, 1)
    assert problem.c == 1


def test_load_problem_label_mismatch():
    doc = chain_document()
    doc["instance"]["label"] = 0
    with pytest.raises(DomainError, match="label mismatch"):
        load_problem(doc)


def test_problem_document_roundtrip(chain):
    doc = problem_to_document(chain)
    again = load_problem(doc)
    assert again.v == chain.v and again.c == chain.c
    assert again.classifier._labels == chain.classifier._labels


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roundtrip_random_tables(data):
    m = data.draw(st.integers(2, 4))
    size = 1 << m
    labels = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    if len(set(labels)) < 2:
        labels[0] = (labels[0] + 1) % 3
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))
    cls = Classifier(features, frozenset({0, 1, 2}), TableBody(tuple(labels)))
    again = parse_model(json.dumps(cls.to_document()))
    assert again._labels == cls._labels


def test_roundtrip_ten_features():
    import random
    rng = random.Random(11)
    labels = tuple(rng.randrange(2) for _ in range(1 << 10))
    cls = boolean_table_classifier(10, labels)
    again = parse_model(json.dumps(cls.to_document()))
    assert again._labels == cls._labels


# ---------------------------------------------------------------------------
# scale limits

def test_feature_limit_default(monkeypatch):
    monkeypatch.delenv("FISLAB_MAX_FEATURES", raising=False)
    labels = tuple(i & 1 for i in range(1 << 17))
    with pytest.raises(ScaleLimitError):
        boolean_table_classifier(17, labels)


def test_feature_limit_env_override(monkeypatch):
    monkeypatch.setenv("FISLAB_MAX_FEATURES", "18")
    labels = tuple(i & 1 for i in range(1 << 17))
    cls = boolean_table_classifier(17, labels)
    assert cls.m == 17


def test_feature_limit_hard_cap(monkeypatch):
    monkeypatch.setenv("FISLAB_MAX_FEATURES", "25")
    labels = tuple(i & 1 for i in range(1 << 21))
    with pytest.raises(ScaleLimitError):
        boolean_table_classifier(21, labels)


def test_point_limit(monkeypatch):
    monkeypatch.delenv("FISLAB_MAX_FEATURES", raising=False)
    features = tuple(FeatureDomain(i, tuple(range(128))) for i in range(1, 4))
    with pytest.raises(ScaleLimitError):
        Classifier(features, frozenset({0, 1}), TableBody(()))


# ---------------------------------------------------------------------------
# instances

def test_instance_label_checked():
    cls = parse_boolean_expression("x1")
    with pytest.raises(DomainError):
        make_problem(cls, (1,), label=0)


def test_weighted_voting_game_validation():
    from fislab.model import WeightedVotingGame
    with pytest.raises(DomainError):
        WeightedVotingGame(5, (2, 1, 1))
    with pytest.raises(DomainError):
        WeightedVotingGame(1, (2, -1))
    game = WeightedVotingGame(3, (2, 1, 1))
    assert game.is_winning(0b011) and not game.is_winning(0b110)
