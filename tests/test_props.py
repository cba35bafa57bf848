from fractions import Fraction

import pytest

from fislab import charfun, props, scores
from fislab.charfun import cf_axp, cf_expected, cf_generator, cf_similarity, cf_waxp
from fislab.model import (Classifier, FeatureDomain, TableBody, make_problem,
                          parse_boolean_expression)
from fislab.props import (DualityLevel, check_additivity,
                          check_class_relabeling, check_duality, check_dummy,
                          check_efficiency, check_minimal_monotonicity,
                          check_relevancy_consistency, check_symmetry,
                          dummy_features, gamma_value, label_scramble,
                          property_matrix, random_problem, reverify,
                          search_counterexample, symmetric_pairs)
from fislab.scores import TemplateId

F = Fraction


@pytest.fixture
def ordinal_shift():
    """Feature 2 never appears in an explanation yet moves the mean label.

    Labels over (x1, x2) in lexicographic order: (0,0)->1, (0,1)->2,
    (1,*)->0; the instance is (1, 0).
    """
    features = (FeatureDomain(1, (0, 1)), FeatureDomain(2, (0, 1)))
    cls = Classifier(features, frozenset({0, 1, 2}), TableBody((1, 2, 0, 0)))
    return make_problem(cls, (1, 0))


# ---------------------------------------------------------------------------
# efficiency

def test_efficiency_holds_for_ordering_template_on_any_table(chain):
    for table in (cf_waxp(chain), cf_expected(chain), cf_similarity(chain),
                  cf_axp(chain)):
        verdict = check_efficiency(chain, TemplateId.SHAPLEY_SHUBIK, table)
        assert verdict.holds
        assert verdict.verdict == "holds-on-instance"


def test_efficiency_fails_for_banzhaf_on_chain(chain):
    verdict = check_efficiency(chain, TemplateId.BANZHAF, cf_waxp(chain))
    assert not verdict.holds
    assert verdict.witness.data["sum"] == "5/4"
    assert verdict.witness.data["target"] == "1"
    assert reverify(verdict)


def test_efficiency_deegan_packel_sums_to_one_but_misses_target(chain):
    table = cf_axp(chain)
    vec = scores.compute_fis("D", chain)
    assert vec.total() == 1
    verdict = check_efficiency(chain, TemplateId.DEEGAN_PACKEL, table)
    assert not verdict.holds
    assert verdict.witness.data["target"] == "0"  # the indicator is 0 at both ends
    assert reverify(verdict)


# ---------------------------------------------------------------------------
# symmetry

def test_symmetry_witness_on_generator_table(single):
    table = cf_generator(single)
    assert symmetric_pairs(table) == [(1, 2)]
    for template in (TemplateId.DEEGAN_PACKEL, TemplateId.HOLLER_PACKEL,
                     TemplateId.RESPONSIBILITY, TemplateId.ANDJIGA):
        verdict = check_symmetry(single, template, table)
        assert not verdict.holds
        assert verdict.witness.data["pair"] == (1, 2)
        assert reverify(verdict)


def test_symmetry_holds_for_ordering_and_swing_templates(single):
    table = cf_generator(single)
    for template in (TemplateId.SHAPLEY_SHUBIK, TemplateId.BANZHAF,
                     TemplateId.JOHNSTON):
        assert check_symmetry(single, template, table).holds


def test_symmetry_on_structurally_symmetric_conjunction():
    problem = make_problem(parse_boolean_expression("x1 & x2"), (1, 1))
    table = cf_waxp(problem)
    assert symmetric_pairs(table) == [(1, 2)]
    for template in TemplateId:
        assert check_symmetry(problem, template, table).holds


# ---------------------------------------------------------------------------
# additivity

def test_additivity_holds_for_linear_templates(chain):
    pairs = ((cf_waxp(chain), cf_waxp(chain)),
             (cf_expected(chain), cf_waxp(chain)),
             (cf_similarity(chain), cf_axp(chain)))
    for template in (TemplateId.DEEGAN_PACKEL, TemplateId.HOLLER_PACKEL,
                     TemplateId.BANZHAF, TemplateId.ANDJIGA,
                     TemplateId.SHAPLEY_SHUBIK):
        for t1, t2 in pairs:
            assert check_additivity(chain, template, t1, t2).holds


def test_additivity_equal_tables_cannot_break_the_max(single):
    # doubling a table doubles every candidate term, so the max scales too;
    # a genuine violation needs two tables with different argmaxes
    table = cf_waxp(single)
    assert check_additivity(single, TemplateId.RESPONSIBILITY, table, table).holds


def test_additivity_witness_found_for_best_size_template():
    witness = search_counterexample("P03", ("responsibility",), seed=0, budget=50)
    assert witness is not None
    assert witness.data["generator"]["index"] == 1
    problem = witness.problem
    cf1, cf2 = witness.data["cf_ids"]
    verdict = check_additivity(problem, TemplateId.RESPONSIBILITY,
                               charfun.build_table(cf1, problem),
                               charfun.build_table(cf2, problem))
    assert not verdict.holds and reverify(verdict)


def test_additivity_witness_found_for_swing_share_template():
    witness = search_counterexample("P03", ("johnston",), seed=0, budget=50)
    assert witness is not None
    assert witness.data["generator"]["index"] == 0
    problem = witness.problem
    cf1, cf2 = witness.data["cf_ids"]
    verdict = check_additivity(problem, TemplateId.JOHNSTON,
                               charfun.build_table(cf1, problem),
                               charfun.build_table(cf2, problem))
    assert not verdict.holds and reverify(verdict)


# ---------------------------------------------------------------------------
# dummy

def test_dummy_feature_scores_zero_for_all_templates(single):
    table = cf_waxp(single)
    assert dummy_features(table) == [2]
    for template in TemplateId:
        assert check_dummy(single, template, table).holds


def test_dummy_vacuous_when_no_feature_is_inert(chain):
    assert dummy_features(cf_waxp(chain)) == []
    assert check_dummy(chain, TemplateId.BANZHAF, cf_waxp(chain)).holds


def test_ordinal_shift_feature_not_a_dummy_under_expected_value(ordinal_shift):
    assert dummy_features(cf_expected(ordinal_shift)) == []
    assert dummy_features(cf_waxp(ordinal_shift)) == [2]


# ---------------------------------------------------------------------------
# minimal monotonicity

def test_minimal_monotonicity_holds_for_explanation_scores(chain):
    for fis_id in props.AUDITED_FIS:
        assert check_minimal_monotonicity(chain, fis_id).holds


def test_minimal_monotonicity_fails_for_expected_value(ordinal_shift):
    verdict = check_minimal_monotonicity(ordinal_shift, "E")
    assert not verdict.holds
    assert verdict.witness.data["pair"] == (2, 1)
    assert reverify(verdict)


def test_equal_families_give_equal_counting_scores(chain):
    # features 3 and 4 occur in exactly the same minimal explanations
    for fis_id in ("D", "H", "R", "V"):
        got = scores.compute_fis(fis_id, chain)
        assert got.score(3) == got.score(4)


# ---------------------------------------------------------------------------
# gamma

def test_gamma_values_on_chain(chain):
    assert gamma_value(chain, "D") == 1
    assert gamma_value(chain, "H") == F(5, 2)
    assert gamma_value(chain, "S") == 1
    assert gamma_value(chain, "E") == F(11, 16)


# ---------------------------------------------------------------------------
# class relabeling

def test_relabeling_invariance_of_explanation_scores(chain):
    sigma = {0: 1, 1: 0}
    for fis_id in props.AUDITED_FIS:
        assert check_class_relabeling(chain, fis_id, sigma).holds


def test_relabeling_breaks_expected_value_on_chain(chain):
    verdict = check_class_relabeling(chain, "E", {0: 7, 1: 3})
    assert not verdict.holds
    assert reverify(verdict)


def test_similarity_survives_relabeling(chain):
    for sigma in ({0: 1, 1: 0}, {0: 7, 1: 3}):
        assert check_class_relabeling(chain, "M", sigma).holds


def test_identity_relabeling_never_hurts(chain):
    for fis_id in scores.FIS_IDS:
        assert check_class_relabeling(chain, fis_id, {0: 0, 1: 1}).holds


def test_label_scramble_shape():
    assert label_scramble({0, 1}) == {0: 7, 1: 3}


# ---------------------------------------------------------------------------
# relevancy consistency

def test_relevancy_consistency_single(single):
    assert check_relevancy_consistency(single, "S").holds
    assert scores.compute_fis("S", single).values == (F(1), F(0))


def test_relevancy_consistency_coverage_on_chain(chain):
    assert check_relevancy_consistency(chain, "V").holds


def test_relevancy_fails_for_expected_value_on_fixed_witness(ordinal_shift):
    verdict = check_relevancy_consistency(ordinal_shift, "E")
    assert not verdict.holds
    assert verdict.witness.data["feature"] == 2
    assert Fraction(verdict.witness.data["score"]) == F(-1, 8)
    assert reverify(verdict)


# ---------------------------------------------------------------------------
# duality

def test_duality_levels_on_chain(chain):
    assert check_duality(chain, "S").level is DualityLevel.STRONG
    assert check_duality(chain, "B").level is DualityLevel.STRONG
    assert check_duality(chain, "D").level is DualityLevel.NONE
    assert check_duality(chain, "H").level is DualityLevel.NONE
    assert check_duality(chain, "R_NORM").level is DualityLevel.NONE
    assert check_duality(chain, "J").level is DualityLevel.WEAK
    assert check_duality(chain, "A").level is DualityLevel.WEAK
    assert check_duality(chain, "V").level is DualityLevel.WEAK


def test_duality_verdict_monotone_flags(chain):
    for fis_id in scores.FIS_IDS:
        verdict = check_duality(chain, fis_id)
        if verdict.strong:
            assert verdict.equivalent and verdict.alpha == 1
        if verdict.equivalent:
            assert verdict.weak and verdict.alpha > 0


def test_equivalent_level_detected_on_scaled_vectors(chain):
    # the dual of the normalized best-size score rescales by the family
    # sizes; build a synthetic pair instead: primal vs primal*3/2
    primal = scores.compute_fis("D", chain)
    scaled = scores.ScoreVector(tuple(v * F(3, 2) for v in primal.values), "x")
    verdict = props.DualityVerdict("D", chain, primal, scaled, False, True,
                                   True, F(3, 2))
    assert verdict.level is DualityLevel.EQUIVALENT


# ---------------------------------------------------------------------------
# search machinery

def test_search_finds_expected_value_monotonicity_witness():
    witness = search_counterexample("P05", "E", seed=0, budget=100, m_range=(2, 5))
    assert witness is not None
    assert witness.data["generator"] == {"seed": 0, "index": 0, "m_range": [2, 5]}


def test_search_strong_duality_finds_nothing():
    assert search_counterexample("P09-strong", "S", seed=0, budget=300) is None
    assert search_counterexample("P09-strong", "B", seed=0, budget=300) is None


def test_search_on_fixed_problem_stream(single):
    witness = search_counterexample("P02", ("deegan_packel", charfun.CF_G),
                                    problems=[single], budget=1)
    assert witness is not None
    assert witness.data["pair"] == (1, 2)


@pytest.mark.parametrize("subject", ["banzhaf", ("banzhaf",), ("banzhaf", "CF_W")])
def test_search_template_subject_forms(subject):
    witness = search_counterexample("P01", subject, seed=0, budget=5)
    assert witness is not None
    assert witness.data["template"] == "banzhaf"
    assert witness.data["cf_id"] == charfun.CF_W
    verdict = props.PropertyVerdict("P01", "banzhaf", False, witness)
    assert reverify(verdict)


def test_search_budget_respected():
    # index 0 already violates; budget 1 must be enough, and a stream probe
    # past the budget must not run
    assert search_counterexample("P05", "E", seed=0, budget=1) is not None


def test_search_parallel_matches_serial():
    serial = search_counterexample("P05", "E", seed=0, budget=40, m_range=(2, 5))
    parallel = search_counterexample("P05", "E", seed=0, budget=40,
                                     m_range=(2, 5), workers=2)
    assert serial.data["generator"] == parallel.data["generator"]


def test_random_problem_deterministic():
    a = random_problem(0, 5)
    b = random_problem(0, 5)
    assert a.classifier._labels == b.classifier._labels
    assert a.v == b.v
    assert random_problem(1, 5).classifier._labels != a.classifier._labels \
        or random_problem(1, 5).v != a.v


def test_problem_stream_is_reproducible():
    first = [p.v for _, p in props.problem_stream(4, 6)]
    second = [p.v for _, p in props.problem_stream(4, 6)]
    assert first == second


# ---------------------------------------------------------------------------
# matrix

def test_reverify_replays_every_failing_witness():
    matrix = property_matrix(seed=0, corpus_count=20, search_budget=200)
    failing = [(row, prop, cell) for (row, prop), cell in matrix.cells.items()
               if cell.status == "fails"]
    assert len(failing) == 17
    for row, prop, cell in failing:
        verdict = props.PropertyVerdict(cell.witness.data["property"], row,
                                        False, cell.witness)
        assert reverify(verdict), (row, prop)
    witness = search_counterexample("P09-strong", "D", seed=0, budget=50)
    assert witness is not None and witness.data["property"] == "P09-strong"
    assert reverify(props.PropertyVerdict("P09-strong", "D", False, witness))


def test_property_matrix_reports_pins_it_misses(monkeypatch):
    monkeypatch.setitem(props.PINNED_TEMPLATE, ("banzhaf", "P01"), True)
    monkeypatch.setitem(props.PINNED_FIS, ("S", "P09"), {"none"})
    matrix = property_matrix(seed=0, corpus_count=20, search_budget=200)
    assert matrix.inconsistencies == [
        "banzhaf/P01: expected holds, computed fails",
        "S/P09: expected one of ['none'], computed strong"]


def test_property_matrix_consistent_small():
    matrix = property_matrix(seed=0, corpus_count=25, search_budget=200)
    assert matrix.consistent, matrix.inconsistencies
    assert matrix.cells[("E", "P05")].status == "fails"
    assert matrix.cells[("M", "P07")].status == "holds*"
    assert matrix.cells[("S", "P09")].status == "strong"
    assert matrix.cells[("deegan_packel", "P02")].status == "fails"
    assert matrix.cells[("johnston", "P03")].status == "fails"
    assert matrix.cells[("V", "P01")].status == "n/a"
    assert matrix.cells[("H", "P06")].status == "5/2"
