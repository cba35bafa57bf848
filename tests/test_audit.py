"""Audits that share one problem's work agree with audits on fresh problems.

A problem keeps its relabelled problems and its audited score vectors, and
the property matrix probes all of its P03 template rows in one pass over the
search stream.  Each shared result is compared, witness data included, with
the same check run on a fresh ExplanationProblem.
"""

import pytest

from fislab import props
from fislab.model import (Classifier, ExplanationProblem, FeatureDomain,
                          TreeBody, TreeLeaf, TreeSplit, make_problem)
from fislab.scores import TemplateId

AUDITS = ("P05", "P07", "P08")
AUDIT_FIS = props.AUDITED_FIS + ("E", "M")


def fresh(problem):
    return ExplanationProblem(problem.classifier, problem.instance)


def ternary_tree():
    """Three ternary features, three classes: label_rotation is a 3-cycle."""
    def split(feature, labels):
        return TreeSplit(feature, tuple((v, TreeLeaf(c)) for v, c in enumerate(labels)))
    root = TreeSplit(1, ((0, split(2, (0, 1, 2))),
                         (1, split(3, (2, 2, 0))),
                         (2, TreeLeaf(1))))
    features = tuple(FeatureDomain(i, (0, 1, 2)) for i in range(1, 4))
    return Classifier(features, frozenset({0, 1, 2}), TreeBody(root))


def audit_corpus():
    problems = [props.random_problem(11, k, (m, m))
                for m in range(2, 6) for k in range(3)]
    tree = ternary_tree()
    problems += [make_problem(tree, point) for point in
                 ((0, 0, 0), (0, 2, 1), (1, 0, 0), (2, 1, 2))]
    return problems


def test_shared_audits_match_fresh_problems():
    assert props.label_rotation(ternary_tree().classes) == {0: 1, 1: 2, 2: 0}
    failures = 0
    for problem in audit_corpus():
        for prop in AUDITS:
            for fis_id in AUDIT_FIS:
                shared = props.audit(prop, fis_id, problem)
                alone = props.audit(prop, fis_id, fresh(problem))
                assert shared == alone, (prop, fis_id, problem)
                if not shared.holds:
                    assert shared.witness.data == alone.witness.data
                    failures += 1
        for fis_id in AUDIT_FIS:
            assert (props.gamma_value(problem, fis_id)
                    == props.gamma_value(fresh(problem), fis_id))
    assert failures  # E and M fail somewhere, so witnesses are compared


def test_relabeled_problem_is_kept_apart_from_its_base(chain):
    sigma = props.label_rotation(chain.classifier.classes)
    relabeled = props.relabeled_problem(chain, sigma)
    assert props.relabeled_problem(chain, sigma) is relabeled
    assert relabeled._cache is not chain._cache
    assert relabeled.c == sigma[chain.c]
    assert relabeled.classifier._labels == tuple(
        sigma[c] for c in chain.classifier._labels)


def test_relabeling_still_breaks_expected_value_after_shared_audits(chain):
    for fis_id in props.AUDITED_FIS:
        for prop in AUDITS:
            assert props.audit(prop, fis_id, chain).holds, (prop, fis_id)
    verdict = props.audit("P07", "E", chain)
    assert not verdict.holds
    assert verdict == props.audit("P07", "E", fresh(chain))
    assert props.reverify(verdict)


def test_reverify_recomputes_on_a_fresh_problem(chain):
    verdict = props.audit("P07", "E", chain)
    assert not verdict.holds
    cache = verdict.witness.problem._cache
    for key in cache:
        cache[key] = None  # a replay that read the memo would crash here
    assert props.reverify(verdict)


@pytest.mark.parametrize("seed", [0, 3])
def test_matrix_additivity_rows_match_their_own_searches(seed):
    budget = 30
    matrix = props.property_matrix(seed=seed, corpus_count=4,
                                   search_budget=budget)
    for template in TemplateId:
        cell = matrix.cells[(template.value, "P03")]
        witness = props.search_counterexample(
            "P03", (template.value,), seed=seed, budget=budget, m_range=(2, 5))
        assert cell.witness == witness, template
        if witness is not None:
            assert cell.witness.data == witness.data
            assert cell.status == "fails"
        else:
            assert cell.status == "holds*"
