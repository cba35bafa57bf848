"""Audits that share one problem's work agree with audits on fresh problems.

A problem keeps its relabelled problems and its audited score vectors, and
the property matrix probes its FIS cells in one pass over the corpus and its
P03 template rows, with the E and M cells left open, in one walk of the
search stream.  Each shared result is compared, witness data included, with
the same check run on a fresh problem.
"""

import pytest

from fislab import props, reference
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
    assert tuple(relabeled.classifier._labels) == tuple(
        sigma[c] for c in chain.classifier._labels)


def test_relabeling_still_breaks_expected_value_after_shared_audits(chain):
    for fis_id in props.AUDITED_FIS:
        for prop in AUDITS:
            assert props.audit(prop, fis_id, chain).holds, (prop, fis_id)
    verdict = props.audit("P07", "E", chain)
    assert not verdict.holds
    assert verdict == props.audit("P07", "E", fresh(chain))
    assert props.reverify(verdict)


@pytest.mark.parametrize("prop", AUDITS)
def test_holding_audits_share_one_verdict(prop, chain):
    # frozen verdicts: every audit of (property, subject) that holds returns
    # the same object, on the same problem and on another one
    first = props.audit(prop, "S", chain)
    assert first is props.audit(prop, "S", chain)
    assert first is props.audit(prop, "S", fresh(chain))
    assert first == props.PropertyVerdict(prop, "S", True)
    assert props.audit(prop, "B", chain) is not first


def test_reverify_recomputes_on_a_fresh_problem(chain):
    verdict = props.audit("P07", "E", chain)
    assert not verdict.holds
    cache = verdict.witness.problem._cache
    for key in cache:
        cache[key] = None  # a replay that read the memo would crash here
    assert props.reverify(verdict)


def first_failure(prop, fis_id, seed, corpus_count, budget):
    """The first witness over the chain, the corpus and then the search
    stream, each problem checked on its own."""
    verdict = props.audit(prop, fis_id, reference.and_or_chain_problem())
    if not verdict.holds:
        return props.Witness(verdict.witness.problem, {
            **verdict.witness.data, "generator": {"reference": "and_or_chain"}})
    for k in range(corpus_count):
        verdict = props.audit(prop, fis_id, props.random_problem(seed, k, (2, 5)))
        if not verdict.holds:
            return props.Witness(verdict.witness.problem, {
                **verdict.witness.data, "generator": {"seed": seed, "index": k}})
    return props.search_counterexample(prop, fis_id, seed=seed, budget=budget,
                                       m_range=(2, 5))


@pytest.mark.parametrize("seed", [0, 3])
def test_matrix_additivity_rows_match_their_own_searches(seed):
    budget = 30
    # without a corpus, E and M fail in the search stream
    for corpus_count in (0, 4):
        matrix = props.property_matrix(seed=seed, corpus_count=corpus_count,
                                       search_budget=budget)
        for fis_id in ("E", "M"):
            for prop in AUDITS:
                cell = matrix.cells[(fis_id, prop)]
                witness = first_failure(prop, fis_id, seed, corpus_count, budget)
                assert cell.witness == witness, (corpus_count, fis_id, prop)
                if witness is not None:
                    assert cell.witness.data == witness.data
                    assert cell.status == "fails"
                else:
                    assert cell.status == "holds*"
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
