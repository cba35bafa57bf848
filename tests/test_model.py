import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fislab.model import (MAX_EXPR_DEPTH, Classifier, DomainError, FeatureDomain,
                          ParseError, RelabelError, ScaleLimitError,
                          TableBody, TreeBody, TreeLeaf, TreeSplit,
                          agreement_set, evaluate, features_of,
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


def test_single_valued_domain_is_accepted():
    features = (FeatureDomain(1, (0, 1)), FeatureDomain(2, ("only",)))
    cls = Classifier(features, frozenset({0, 1}), TableBody((0, 1)))
    assert [dom.size for dom in cls.features] == [2, 1] and cls.space_size == 2


def test_constant_function_rejected():
    with pytest.raises(DomainError, match="constant"):
        boolean_table_classifier(2, (1, 1, 1, 1))


def test_labels_must_be_declared():
    features = (FeatureDomain(1, (0, 1)),)
    with pytest.raises(DomainError):
        Classifier(features, frozenset({0, 1}), TableBody((0, 3)))


# the labels of classes below 256 are bytes, of a class set reaching 256 a tuple
CLASS_SETS = pytest.mark.parametrize("classes", [{0, 1}, {0, 1, 256}],
                                     ids=["bytes", "tuple"])


@CLASS_SETS
@pytest.mark.parametrize("labels, undeclared", [
    ((0, 3, 1, 0), [3]),
    ((0, -1, 300, 1), [-1, 300]),
    ((300, 300, 2, 2), [2, 300]),
])
def test_undeclared_table_labels_are_named(labels, undeclared, classes):
    features = (FeatureDomain(1, (0, 1, 2, 3)),)
    with pytest.raises(DomainError) as info:
        Classifier(features, frozenset(classes), TableBody(labels))
    assert str(info.value) == f"labels {undeclared} not in the class set"


def _ternary_split(*leaves):
    return TreeBody(TreeSplit(1, tuple(zip((0, 1, 2), map(TreeLeaf, leaves)))))


@CLASS_SETS
def test_undeclared_tree_leaf_is_named(classes):
    features = (FeatureDomain(1, (0, 1, 2)),)
    with pytest.raises(DomainError) as info:
        Classifier(features, frozenset(classes), _ternary_split(0, 300, 1))
    assert str(info.value) == "labels [300] not in the class set"


@CLASS_SETS
@pytest.mark.parametrize("body", [TableBody((1, 1, 1)), _ternary_split(1, 1, 1)],
                         ids=["table", "tree"])
def test_constant_table_and_tree_are_refused(body, classes):
    features = (FeatureDomain(1, (0, 1, 2)),)
    with pytest.raises(DomainError) as info:
        Classifier(features, frozenset(classes), body)
    assert str(info.value) == "classification function is constant"


def _split_document(feature, *children):
    return {"feature": feature, "branches": [{"value": v, "child": child}
                                             for v, child in enumerate(children)]}


MALFORMED_NODES = [
    (["class", 1], "tree node must be an object"),
    ({"class": "1"}, "leaf class must be an integer"),
    ({"feature": 3}, "tree node needs 'class' or 'feature'+'branches'"),
]


def malformed_tree_document(node) -> dict:
    """A tree model whose node at root/branches[1]/branches[0]/branches[1],
    three levels down, is node."""
    leaf = {"class": 0}
    root = _split_document(1, leaf, _split_document(
        2, _split_document(3, leaf, node), leaf))
    return {"features": [{"id": i, "values": [0, 1]} for i in (1, 2, 3)],
            "classes": [0, 1], "body": {"kind": "tree", "root": root},
            "instance": {"point": [0, 0, 0]}}


@pytest.mark.parametrize("node, message", MALFORMED_NODES)
def test_malformed_tree_node_is_located(node, message):
    with pytest.raises(ParseError) as info:
        parse_model(malformed_tree_document(node))
    assert str(info.value) == f"root/branches[1]/branches[0]/branches[1]: {message}"


def test_malformed_tree_nodes_name_the_first_in_document_order():
    # two bad nodes, the first under root/branches[0]; and one object that
    # is bad at both places it sits, named at the first
    doc = malformed_tree_document({"class": 0})
    root = doc["body"]["root"]
    root["branches"][0]["child"] = _split_document(2, {"class": 1}, {"class": None})
    with pytest.raises(ParseError) as info:
        parse_model(doc)
    assert str(info.value) == "root/branches[0]/branches[1]: leaf class must be an integer"
    bad = ["class", 1]
    root["branches"][0]["child"] = _split_document(2, {"class": 1}, {"class": 0})
    root["branches"][1]["child"] = _split_document(2, bad, bad)
    with pytest.raises(ParseError) as info:
        parse_model(doc)
    assert str(info.value) == "root/branches[1]/branches[0]: tree node must be an object"


# A ternary feature 1 and a two-valued feature 2.  The root tests feature 1
# and its branch 0 tests feature 1 again, so that split's branches 1 and 2
# are reached by no point: the subtree SKIPPED sits there.
TWICE_FEATURES = (FeatureDomain(1, (0, 1, 2)), FeatureDomain(2, ("a", "b")))
SKIPPED = "skipped"


def _twice_tree(skipped, later=None):
    """The tree above with skipped at root branch 0, branch 1 and, at root
    branch 2, later (a valid split on feature 2 by default)."""
    leaf0, leaf1 = TreeLeaf(0), TreeLeaf(1)
    later = later or TreeSplit(2, (("a", leaf0), ("b", leaf1)))
    return TreeBody(TreeSplit(1, (
        (0, TreeSplit(1, ((0, leaf0), (1, skipped), (2, leaf1)))),
        (1, leaf1), (2, later))))


UNKNOWN = TreeSplit(3, ((0, TreeLeaf(0)),))
SHORT = TreeSplit(2, (("a", TreeLeaf(0)),))
TWINNED = TreeSplit(2, (("a", TreeLeaf(0)), ("a", TreeLeaf(1))))
FOREIGN = TreeSplit(2, (("a", TreeLeaf(0)), ("c", TreeLeaf(1))))
NAMED = TreeSplit("2", (("a", TreeLeaf(0)), ("b", TreeLeaf(1))))


@pytest.mark.parametrize("skipped, later, message", [
    (UNKNOWN, None, "tree tests unknown feature 3"),
    (SHORT, None, "tree node on feature 2 must branch on exactly the domain values ['a', 'b']"),
    (TWINNED, None, "tree node on feature 2 must branch on exactly the domain values ['a', 'b']"),
    (FOREIGN, None, "tree node on feature 2 must branch on exactly the domain values ['a', 'b']"),
    (NAMED, None, "tree split feature must be an integer, got '2'"),
    # two faults: the first in pre-order is named, reached or not
    (UNKNOWN, SHORT, "tree tests unknown feature 3"),
    (TreeLeaf(1), TreeSplit(2, (("a", NAMED), ("b", UNKNOWN))),
     "tree split feature must be an integer, got '2'"),
    (TreeSplit(2, (("a", SHORT), ("b", TreeLeaf(1)))), UNKNOWN,
     "tree node on feature 2 must branch on exactly the domain values ['a', 'b']"),
], ids=["unknown", "short", "twinned", "foreign", "named", "skipped-then-reached",
        "reached-twice", "nested-then-reached"])
def test_malformed_split_in_a_skipped_subtree_is_named(skipped, later, message):
    for classes in ({0, 1}, {0, 1, 256}):
        with pytest.raises(ParseError) as info:
            Classifier(TWICE_FEATURES, frozenset(classes), _twice_tree(skipped, later))
        assert str(info.value) == message


def test_skipped_subtree_takes_no_class():
    # the skipped leaf's class is undeclared, yet no point reaches it
    cls = Classifier(TWICE_FEATURES, frozenset({0, 1}), _twice_tree(TreeLeaf(9)))
    assert list(cls._labels) == [0, 0, 1, 1, 0, 1]


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (1.0, "1.0"), (False, "False"), (0.0, "0.0")])
def test_tree_branch_value_of_another_type_is_refused(value, shown):
    # true and 1.0 equal the domain's 1, so they would find its bitmap and
    # be written back as true and 1.0
    own = int(value)
    branches = [(1 - own, TreeLeaf(0)), (value, TreeLeaf(1))]
    features = (FeatureDomain(1, (0, 1)),)
    message = f"tree branch value {shown} of feature 1 is not the domain's {own}"
    with pytest.raises(ParseError) as info:
        Classifier(features, frozenset({0, 1}), TreeBody(TreeSplit(1, tuple(branches))))
    assert str(info.value) == message
    doc = {"features": [{"id": 1, "values": [0, 1]}], "classes": [0, 1],
           "body": {"kind": "tree", "root": {"feature": 1, "branches": [
               {"value": v, "child": {"class": c}} for c, (v, _) in enumerate(branches)]}}}
    with pytest.raises(ParseError) as info:
        parse_model(json.loads(json.dumps(doc)))
    assert str(info.value) == message


def test_tree_branch_value_type_is_checked_in_a_skipped_subtree():
    wrong = TreeSplit(2, (("a", TreeLeaf(0)), ("b", TreeSplit(1, (
        (0, TreeLeaf(0)), (1.0, TreeLeaf(1)), (2, TreeLeaf(0)))))))
    with pytest.raises(ParseError) as info:
        Classifier(TWICE_FEATURES, frozenset({0, 1}), _twice_tree(wrong))
    assert str(info.value) == "tree branch value 1.0 of feature 1 is not the domain's 1"
    floats = (FeatureDomain(1, (0.5, 1.0)),)
    with pytest.raises(ParseError) as info:
        Classifier(floats, frozenset({0, 1}), TreeBody(TreeSplit(1, (
            (0.5, TreeLeaf(0)), (1, TreeLeaf(1))))))
    assert str(info.value) == "tree branch value 1 of feature 1 is not the domain's 1.0"


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


@pytest.mark.parametrize("image, message", [
    (-1, "class labels must be non-negative integers, got -1"),
    (True, "table labels must be integers, got True"),
    (1.5, "table labels must be integers, got 1.5"),
])
def test_relabel_onto_a_bad_class_is_refused(chain, image, message):
    # the chain's labels are bytes; a bad image class must not pass for one
    with pytest.raises(DomainError) as info:
        relabel_classes(chain.classifier, {0: image, 1: 0})
    assert str(info.value) == message


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


@pytest.mark.parametrize("text", [
    "!" * 3000 + "x1",
    " & ".join(["x1"] * 3000),
    "(" * 3000 + "x1" + ")" * 3000,
    "!" * MAX_EXPR_DEPTH + "x1",
    "(" * (MAX_EXPR_DEPTH + 1) + "x1" + ")" * (MAX_EXPR_DEPTH + 1),
], ids=["nested-not", "long-chain", "nested-parentheses", "not-past-limit",
        "parentheses-past-limit"])
def test_parse_rejects_deep_expressions(text):
    with pytest.raises(ParseError, match="deeper than"):
        parse_boolean_expression(text)


def test_parse_accepts_expressions_at_the_depth_limit():
    chain = parse_boolean_expression(" | ".join(["x1"] * MAX_EXPR_DEPTH))
    assert chain.evaluate((1,)) == 1
    negated = parse_boolean_expression("!" * (MAX_EXPR_DEPTH - 1) + "x1")
    assert negated.evaluate((1,)) == MAX_EXPR_DEPTH % 2
    nested = "(" * MAX_EXPR_DEPTH + "x1 & x2" + ")" * MAX_EXPR_DEPTH
    assert parse_boolean_expression(nested).evaluate((1, 1)) == 1


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


@pytest.mark.parametrize("entry, shown", [(True, "True"), (1.0, "1.0")])
def test_class_entry_of_another_type_is_refused(entry, shown):
    # a set of [0, 1, true] or [0, 1, 1.0] would merge the entry into the
    # class 1 before any entry is checked
    message = f"class labels must be non-negative integers, got {shown}"
    features = (FeatureDomain(1, (0, 1)),)
    with pytest.raises(DomainError) as info:
        Classifier(features, [0, 1, entry], TableBody((0, 1)))
    assert str(info.value) == message
    doc = {"features": [{"id": 1, "values": [0, 1]}], "classes": [0, 1, entry],
           "body": {"kind": "table", "labels": [0, 1]}}
    with pytest.raises(DomainError) as info:
        parse_model(json.dumps(doc))
    assert str(info.value) == message


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


@pytest.mark.parametrize("load", [parse_model, load_problem])
def test_invalid_json_text_is_a_parse_error(load):
    with pytest.raises(ParseError, match="not valid JSON"):
        load("{")


@pytest.mark.parametrize("load", [parse_model, load_problem])
def test_deeply_nested_json_text_is_a_parse_error(load, deep_document):
    with pytest.raises(ParseError, match="nests too deeply"):
        load(deep_document)


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


def test_feature_limit_hard_cap_alone(monkeypatch):
    # 21 features, one of them single-valued: 2^20 points pass the point
    # limit, so only the cap of 20 features refuses the classifier
    monkeypatch.setenv("FISLAB_MAX_FEATURES", "25")
    features = tuple(FeatureDomain(i, (0,) if i == 21 else (0, 1)) for i in range(1, 22))
    with pytest.raises(ScaleLimitError, match="^21 features exceeds the limit of 20$"):
        Classifier(features, frozenset({0, 1}), TableBody((0, 1) * (1 << 19)))


def test_point_limit(monkeypatch):
    monkeypatch.delenv("FISLAB_MAX_FEATURES", raising=False)
    features = tuple(FeatureDomain(i, tuple(range(128))) for i in range(1, 4))
    with pytest.raises(ScaleLimitError):
        Classifier(features, frozenset({0, 1}), TableBody(()))


def test_voting_game_voter_limit(monkeypatch):
    # construction refuses before any coalition is enumerated
    from fislab.model import WVGBody, WeightedVotingGame
    monkeypatch.delenv("FISLAB_MAX_FEATURES", raising=False)
    with pytest.raises(ScaleLimitError, match="17 voters"):
        WeightedVotingGame(2, (1,) * 17)
    with pytest.raises(ScaleLimitError, match="17 voters"):
        WVGBody(2, (1,) * 17)
    assert WeightedVotingGame(2, (1,) * 16).m == 16


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
