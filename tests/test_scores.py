import itertools
import math
from fractions import Fraction

import pytest

from fislab import charfun, explain, props, scores
from fislab.charfun import CF_G, CF_W, CharacteristicTable, build_table
from fislab.explain import ExplanationKind
from fislab.model import DomainError, WeightedVotingGame
from fislab.scores import (TemplateId, compute_fis, coverage_set, family_score,
                           minimal_winning_coalitions, parse_fis_id,
                           shapley_permutation_oracle, template_score,
                           wvg_power_index)
from test_kernel import coefficient_sigma  # the Fraction oracles' weight

F = Fraction


def vec(*parts):
    return tuple(F(p) for p in parts)


# ---------------------------------------------------------------------------
# ordering coefficient

def test_sigma_values():
    assert coefficient_sigma(4, 1) == F(1, 4)
    assert coefficient_sigma(4, 2) == F(1, 12)
    assert coefficient_sigma(4, 4) == F(1, 4)


def test_sigma_reflection_symmetry():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert coefficient_sigma(n, k) == coefficient_sigma(n, n - k + 1)


def test_sigma_rejects_out_of_range():
    with pytest.raises(ValueError):
        coefficient_sigma(4, 0)
    with pytest.raises(ValueError):
        coefficient_sigma(4, 5)


# ---------------------------------------------------------------------------
# template scores on the generator table (two-feature decider)

def test_generator_template_scores(single):
    table = build_table(CF_G, single)
    expected = {TemplateId.DEEGAN_PACKEL: F(1), TemplateId.HOLLER_PACKEL: F(1),
                TemplateId.RESPONSIBILITY: F(1), TemplateId.ANDJIGA: F(1, 2)}
    for template, value in expected.items():
        got = template_score(template, single, table)
        assert got.values == (value, F(0))


# ---------------------------------------------------------------------------
# golden score vectors on the chain problem

GOLDEN = {
    ("D", False): vec("5/12", "1/4", "1/6", "1/6"),
    ("D", True): vec("1/3", "1/3", "1/6", "1/6"),
    ("H", False): vec(1, "1/2", "1/2", "1/2"),
    ("H", True): vec("1/3", "2/3", "1/3", "1/3"),
    ("R_NORM", False): vec("1/4", "1/4", "1/6", "1/6"),
    ("R_NORM", True): vec("1/3", "1/6", "1/6", "1/6"),
    ("J", False): vec("17/6", "3/2", "1/3", "1/3"),
    ("J", True): vec(5, 2, "1/2", "1/2"),
    ("A", False): vec("7/20", "7/30", "1/15", "1/15"),
    ("A", True): vec("17/66", "4/33", "1/22", "1/22"),
    ("V", False): vec("5/16", "1/4", "1/8", "1/8"),
    ("V", True): vec("1/2", "3/8", "1/4", "1/4"),
    ("R", False): vec("1/2", "1/2", "1/3", "1/3"),
    ("C", False): vec(1, "1/2", "1/2", "1/2"),
    # hand-derived: critical pairs weighted by the ordering coefficient
    ("S", False): vec("7/12", "1/4", "1/12", "1/12"),
    ("B", False): vec("5/8", "3/8", "1/8", "1/8"),
}


@pytest.mark.parametrize("fis_id,dual", sorted(GOLDEN, key=str))
def test_chain_golden_vectors(chain, fis_id, dual):
    assert compute_fis(fis_id, chain, dual=dual).values == GOLDEN[(fis_id, dual)]


def test_contrastive_responsibility_is_dual_of_responsibility(chain):
    assert compute_fis("C", chain).values == compute_fis("R", chain, dual=True).values
    assert compute_fis("C", chain, dual=True).values == compute_fis("R", chain).values


def test_expected_and_similarity_are_self_dual(chain):
    for fis_id in ("E", "M"):
        assert compute_fis(fis_id, chain).values == \
            compute_fis(fis_id, chain, dual=True).values


def direct_shap_expected(problem):
    """The expected-value attribution computed from its definition alone."""
    m = problem.m
    cls = problem.classifier
    points = list(itertools.product(*(d.values for d in cls.features)))

    def nu(fixed):
        chosen = [x for x in points
                  if all(x[i - 1] == problem.v[i - 1] for i in fixed)]
        return F(sum(cls.evaluate(x) for x in chosen), len(chosen))

    out = []
    for i in range(1, m + 1):
        total = F(0)
        rest = [j for j in range(1, m + 1) if j != i]
        for r in range(m):
            for c in itertools.combinations(rest, r):
                s = set(c) | {i}
                w = F(1, m * math.comb(m - 1, len(s) - 1))
                total += w * (nu(s) - nu(set(c)))
        out.append(total)
    return tuple(out)


def test_expected_value_score_two_code_paths(chain):
    assert compute_fis("E", chain).values == direct_shap_expected(chain)
    for k in range(8):
        problem = props.random_problem(53, k, (2, 4))
        assert compute_fis("E", problem).values == direct_shap_expected(problem)


# ---------------------------------------------------------------------------
# injected families

def test_family_membership_share_ordering():
    from fislab.reference import SKEWED_SIZES_FAMILY, SKEWED_SIZES_N
    got = family_score(TemplateId.HOLLER_PACKEL, SKEWED_SIZES_FAMILY, SKEWED_SIZES_N)
    assert got.values == vec("1/3", "2/3", "2/3", "2/3", "2/3", "1/3", "1/3")
    assert got.score(1) == got.score(6) == got.score(7) < got.score(2)


def test_family_best_size_ordering():
    from fislab.reference import MANY_SMALL_FAMILY, MANY_SMALL_N
    got = family_score(TemplateId.RESPONSIBILITY, MANY_SMALL_FAMILY, MANY_SMALL_N)
    assert got.score(1) == got.score(8) == F(1, 2)
    assert got.score(2) == F(1, 3)
    assert got.score(1) > got.score(2)


def test_family_score_accepts_masks_and_rejects_orderings():
    got = family_score(TemplateId.DEEGAN_PACKEL, (0b011, 0b100), 3)
    assert got.values == (F(1, 4), F(1, 4), F(1, 2))
    with pytest.raises(ValueError):
        family_score(TemplateId.SHAPLEY_SHUBIK, (0b1,), 1)


@pytest.mark.parametrize("template", list(TemplateId), ids=lambda t: t.value)
def test_family_score_refuses_the_all_subset_templates(template):
    # Shapley-Shubik, Banzhaf and Johnston sum over every subset of a table;
    # the family templates score the bare family with unit influence
    if scores.TEMPLATE_DEFAULTS[template][1] is None:
        with pytest.raises(ValueError, match=f"^{template.value} needs a characteristic table"):
            family_score(template, (0b011, 0b100), 3)
    else:
        assert family_score(template, (0b011, 0b100), 3).m == 3


def test_family_score_rejects_features_beyond_the_space():
    with pytest.raises(DomainError):
        family_score(TemplateId.DEEGAN_PACKEL, [(1,), (2, 9)], 2)
    with pytest.raises(DomainError):
        family_score(TemplateId.HOLLER_PACKEL, [0b100], 2)


def test_family_score_matches_problem_route(chain):
    members = explain.enumerate_axps(chain).members
    injected = family_score(TemplateId.DEEGAN_PACKEL, members, 4)
    assert injected.values == compute_fis("D", chain).values


# ---------------------------------------------------------------------------
# permutation oracle

def test_oracle_on_chain_and_single(chain, single):
    assert shapley_permutation_oracle(chain, build_table(CF_W, chain)).values == \
        compute_fis("S", chain).values
    assert shapley_permutation_oracle(single, build_table(CF_W, single)).values == \
        compute_fis("S", single).values


def test_oracle_equivalence_random_tables():
    for k in range(12):
        problem = props.random_problem(59, k, (2, 5))
        for cf_id, fis_id in ((charfun.CF_W, "S"), (charfun.CF_E, "E"),
                              (charfun.CF_M, "M")):
            table = charfun.build_table(cf_id, problem)
            oracle = shapley_permutation_oracle(problem, table)
            assert oracle.values == compute_fis(fis_id, problem).values


def test_oracle_feature_cap():
    labels = tuple(i & 1 for i in range(1 << 9))
    from fislab.model import Classifier, FeatureDomain, TableBody, make_problem
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, 10))
    cls = Classifier(features, frozenset({0, 1}), TableBody(labels))
    problem = make_problem(cls, (0,) * 9)
    with pytest.raises(ValueError):
        shapley_permutation_oracle(problem, build_table(CF_W, problem))


# ---------------------------------------------------------------------------
# weighted voting games

def brute_shapley_shubik(game):
    """Pivotal-order counting, written against the definition."""
    m = game.m
    counts = [0] * m
    for order in itertools.permutations(range(m)):
        total = 0
        for voter in order:
            total += game.weights[voter]
            if total >= game.quota:
                counts[voter] += 1
                break
    return tuple(F(c, math.factorial(m)) for c in counts)


def test_wvg_shapley_shubik_majority_game():
    game = WeightedVotingGame(3, (2, 1, 1))
    got = wvg_power_index(game, TemplateId.SHAPLEY_SHUBIK)
    assert got.values == (F(2, 3), F(1, 6), F(1, 6))
    assert got.values == brute_shapley_shubik(game)


def test_wvg_holler_packel_majority_game():
    game = WeightedVotingGame(3, (2, 1, 1))
    got = wvg_power_index(game, TemplateId.HOLLER_PACKEL)
    assert got.values == (F(1), F(1, 2), F(1, 2))


def test_wvg_unanimity_game():
    game = WeightedVotingGame(4, (2, 1, 1))
    assert minimal_winning_coalitions(game) == (0b111,)
    for template in TemplateId:
        got = wvg_power_index(game, template)
        assert len(set(got.values)) == 1  # only the grand coalition decides
    assert wvg_power_index(game, TemplateId.BANZHAF).values == (F(1, 4),) * 3


def test_wvg_oracle_cross_check():
    for quota, weights in ((3, (2, 1, 1)), (4, (3, 2, 1, 1)), (2, (1, 1, 1))):
        game = WeightedVotingGame(quota, weights)
        table = charfun.cf_wvg(game)
        assert shapley_permutation_oracle(None, table).values == \
            wvg_power_index(game, TemplateId.SHAPLEY_SHUBIK).values


# ---------------------------------------------------------------------------
# coverage

def test_coverage_sets_chain(chain):
    assert len(coverage_set(chain, 1)) == 5
    four = coverage_set(chain, 2)
    assert len(four) == 4
    assert all(x[0] == 1 and x[1] == 1 for x in four)


def test_coverage_empty_for_irrelevant_feature(single):
    assert coverage_set(single, 2) == ()


def test_coverage_contrastive_chain(chain):
    assert len(coverage_set(chain, 1, ExplanationKind.CXP)) == 8


# ---------------------------------------------------------------------------
# algebraic invariants

def corpus_sample(seed, n, m_range=(2, 5)):
    return [props.random_problem(seed, k, m_range) for k in range(n)]


@pytest.mark.parametrize("m, kept", [(1, True), (13, True), (14, False)])
def test_shapley_weights_are_kept_up_to_the_selector_bound(m, kept):
    # per mask S, w(|S|) + w(|S| + 1) and w(|S| + 1), w(k) = (k-1)!(m-k)!;
    # kept per m while 8 bytes a mask fit in 64 KiB, built per call past it
    weight = [0] + [math.factorial(k - 1) * math.factorial(m - k)
                    for k in range(1, m + 1)] + [0]
    sizes = [s.bit_count() for s in range(1 << m)]
    joined, left = scores._shapley_weights(m)
    assert joined == tuple(weight[k] + weight[k + 1] for k in sizes)
    assert left == tuple(weight[k + 1] for k in sizes)
    assert (scores._shapley_weights(m)[0] is joined) == kept


def test_sufficiency_shapley_totals_one():
    for problem in corpus_sample(61, 25):
        assert compute_fis("S", problem).total() == 1


def test_gamma_closed_forms():
    for problem in corpus_sample(67, 25):
        axps = explain.enumerate_axps(problem)
        avg = F(sum(s.bit_count() for s in axps.members), len(axps))
        assert compute_fis("D", problem).total() == 1
        assert compute_fis("H", problem).total() == avg


def test_strong_duality_sample():
    for problem in corpus_sample(71, 30, (2, 6)):
        for fis_id in ("S", "B"):
            assert compute_fis(fis_id, problem).values == \
                compute_fis(fis_id, problem, dual=True).values


def test_template_score_refuses_a_table_of_another_size(chain, single):
    with pytest.raises(ValueError, match="table size"):
        template_score(TemplateId.BANZHAF, chain, build_table(CF_W, single))


def test_positive_scaling_preserves_ranking(chain):
    factor = F(3, 7)
    table = build_table(CF_W, chain)
    scaled = CharacteristicTable("CF_SUM", 4, tuple(3 * n for n in table.nums),
                                 7 * table.den)
    for template in (TemplateId.SHAPLEY_SHUBIK, TemplateId.BANZHAF,
                     TemplateId.DEEGAN_PACKEL, TemplateId.HOLLER_PACKEL,
                     TemplateId.ANDJIGA):
        base = template_score(template, chain, table)
        after = template_score(template, chain, scaled)
        assert after.values == tuple(v * factor for v in base.values)
        assert after.ranking() == base.ranking()


def test_explanation_based_scores_vanish_exactly_off_relevant():
    for problem in corpus_sample(73, 20):
        relevant = explain.relevant_features(problem)
        for fis_id in ("S", "B", "J", "D", "H", "R", "A", "C", "V"):
            got = compute_fis(fis_id, problem)
            for i in range(1, problem.m + 1):
                if relevant >> (i - 1) & 1:
                    assert got.score(i) > 0
                else:
                    assert got.score(i) == 0


def test_banzhaf_counts_critical_sets():
    for problem in corpus_sample(79, 20):
        got = compute_fis("B", problem)
        for value in got.values:
            scaled = value * (1 << (problem.m - 1))
            assert scaled.denominator == 1 and scaled >= 0


# ---------------------------------------------------------------------------
# score vector mechanics

def test_ranking_dense_with_ties(chain):
    assert compute_fis("H", chain).ranking() == (1, 2, 2, 2)
    assert compute_fis("D", chain).ranking() == (1, 2, 3, 3)


def test_parse_fis_id():
    assert parse_fis_id("D") == ("D", False)
    assert parse_fis_id("dual(d)") == ("D", True)
    assert parse_fis_id("holler_packel") == ("H", False)
    assert parse_fis_id("DUAL(R_NORM)") == ("R_NORM", True)
    with pytest.raises(ValueError):
        parse_fis_id("Z")


def test_template_score_rejects_foreign_table(chain, single):
    with pytest.raises(ValueError):
        template_score(TemplateId.BANZHAF, chain, build_table(CF_W, single))


def test_compute_fis_rejects_unknown(chain):
    with pytest.raises(ValueError):
        compute_fis("Z", chain)


def test_johnston_skips_zero_influence_sets(single):
    # on the two-feature decider only subsets containing feature 1 carry
    # influence; the score is finite and feature 2 gets nothing
    got = compute_fis("J", single)
    assert got.values == (F(2), F(0))


def test_single_feature_scores():
    from fislab.model import make_problem, parse_boolean_expression
    problem = make_problem(parse_boolean_expression("x1"), (1,))
    assert compute_fis("S", problem).values == (F(1),)
    assert compute_fis("B", problem).values == (F(1),)
    assert coefficient_sigma(1, 1) == 1


def test_every_score_isolates_the_decisive_feature(single):
    # on the two-feature decider every score, including the mean-label ones,
    # gives the inert feature exactly zero and the decider a positive value
    for fis_id in scores.FIS_IDS:
        got = compute_fis(fis_id, single)
        assert got.score(1) > 0
        assert got.score(2) == 0
    assert compute_fis("A", single).values == (F(3, 4), F(0))
