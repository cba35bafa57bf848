import itertools
import pickle
from fractions import Fraction

import pytest

from fislab import charfun, explain, props, scores
from fislab.charfun import (CF_A, CF_A_DUAL, CF_E, CF_G, CF_M, CF_W, CF_W_DUAL,
                            CharacteristicTable, build_table, cf_sum, cf_wvg,
                            delta_total)
from fislab.explain import ExplanationKind, is_critical
from fislab.model import (Classifier, ExplanationProblem, FeatureDomain, TableBody,
                          WeightedVotingGame, as_mask, make_problem, mask_of)
from fislab.scores import TemplateId
from test_kernel import CORPUS


def delta_i(table, i: int, subset) -> Fraction:
    """Influence of feature i inside the subset, the value drop when i
    leaves it, read through the table's Fraction accessors."""
    mask = as_mask(subset, table.n_features)
    return table[mask] - table[mask & ~(1 << (i - 1))]


def brute_expected(problem, fixed: set) -> Fraction:
    """Direct mean over raw tuples, independent of rank enumeration."""
    cls = problem.classifier
    total, count = 0, 0
    for x in itertools.product(*(d.values for d in cls.features)):
        if all(x[i - 1] == problem.v[i - 1] for i in fixed):
            total += cls.evaluate(x)
            count += 1
    return Fraction(total, count)


# ---------------------------------------------------------------------------
# expected value and similarity

@pytest.mark.parametrize("m, kept", [(13, True), (14, False)])
def test_domain_weights_are_kept_up_to_the_selector_bound(m, kept):
    # weights over 2^m masks are kept per domain sizes while 8 bytes a mask
    # fit in 64 KiB (m = 13), and past that built per call and not kept
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))
    classifier = Classifier(features, frozenset({0, 1}),
                            TableBody((0,) * ((1 << m) - 1) + (1,)))
    problem = make_problem(classifier, (1,) * m)
    scale = charfun.domain_weights(problem, charfun.mask_scale)
    assert scale == tuple(2 ** s.bit_count() for s in range(1 << m))
    assert (charfun.domain_weights(problem, charfun.mask_scale) is scale) == kept
    # every domain of two values: one group, each mask holding one point
    groups = charfun.domain_weights(problem, charfun.exact_groups)
    assert groups == ((1, int.from_bytes(b"\x01" * (1 << m), "little")),)
    assert (charfun.domain_weights(problem, charfun.exact_groups) is groups) == kept


def test_exact_groups_drop_the_masks_a_one_value_domain_empties():
    # sizes (3, 1, 2): a mask without feature 2 holds no point, and one
    # with it holds 2 points (3 - 1) when it lacks feature 1, else 1
    assert dict(charfun.exact_groups((3, 1, 2))) == {
        2: sum(1 << 8 * s for s in (0b010, 0b110)),
        1: sum(1 << 8 * s for s in (0b011, 0b111))}
    assert charfun.mask_scale((3, 1, 2)) == (1, 3, 1, 3, 2, 6, 2, 6)


def test_expected_value_chain(chain):
    table = build_table(CF_E, chain)
    assert table.value(0) == Fraction(5, 16)
    assert table.value(chain.full_mask) == 1
    assert brute_expected(chain, set()) == Fraction(5, 16)


def test_expected_value_single(single):
    assert build_table(CF_E, single).value(0) == Fraction(1, 2)


def test_expected_matches_brute_force_everywhere(chain):
    table = build_table(CF_E, chain)
    for r in range(5):
        for c in itertools.combinations(range(1, 5), r):
            assert table.value(mask_of(c, 4)) == brute_expected(chain, set(c))


def test_similarity_chain(chain):
    table = build_table(CF_M, chain)
    assert table.value([1, 2]) == 1
    assert table.value(chain.full_mask) == 1
    assert table.value(0) == Fraction(5, 16)


def test_similarity_one_exactly_on_sufficient_subsets():
    for k in range(25):
        problem = props.random_problem(31, k, (2, 5))
        sim = build_table(CF_M, problem)
        suff = build_table(CF_W, problem)
        for mask in range(1 << problem.m):
            assert (sim[mask] == 1) == (suff[mask] == 1)


def test_similarity_vs_expected_boolean_relation():
    seen = set()
    for k in range(40):
        problem = props.random_problem(37, k, (2, 5))
        seen.add(problem.c)
        sim = build_table(CF_M, problem)
        exp = build_table(CF_E, problem)
        for mask in range(1 << problem.m):
            if problem.c == 1:
                assert sim[mask] == exp[mask]
            else:
                assert sim[mask] == 1 - exp[mask]
    assert seen == {0, 1}  # both label cases exercised


# ---------------------------------------------------------------------------
# indicator tables

def test_minimal_indicator_chain(chain):
    table = build_table(CF_A, chain)
    assert table.value([1, 2]) == 1
    assert table.value([1, 2, 3]) == 0  # sufficient but not minimal
    assert table.value(0) == 0


def test_sufficiency_indicator_chain(chain):
    table = build_table(CF_W, chain)
    ones = [mask for mask in range(16) if table[mask] == 1]
    assert ones == sorted([mask_of(s, 4) for s in
                           ([1, 2], [1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 2, 3, 4])])
    assert table.value(0) == 0
    assert table.value(chain.full_mask) == 1


def test_contrastive_indicator_chain(chain):
    assert build_table(CF_W_DUAL, chain).value([1]) == 1


def test_generator_single_decider(single):
    table = build_table(CF_G, single)
    assert [table[mask] for mask in range(4)] == [0, 1, 1, 1]


def test_generator_chain_ends(chain):
    table = build_table(CF_G, chain)
    assert table.value(chain.full_mask) == 1  # vacuous
    assert table.value(0) == 0  # no single feature suffices


def test_wvg_table_and_minimal_coalitions():
    from fislab.scores import minimal_winning_coalitions
    game = WeightedVotingGame(3, (2, 1, 1))
    table = cf_wvg(game)
    assert table.value([1, 2]) == 1
    assert table.value([2, 3]) == 0
    assert [set(i + 1 for i in range(3) if s >> i & 1)
            for s in minimal_winning_coalitions(game)] == [{1, 2}, {1, 3}]
    for mask in range(8):
        for i in range(3):
            if not mask >> i & 1:
                assert table[mask | 1 << i] >= table[mask]


def test_wvg_quota_equals_total_weight():
    game = WeightedVotingGame(4, (2, 1, 1))
    table = cf_wvg(game)
    assert [mask for mask in range(8) if table[mask] == 1] == [0b111]


# ---------------------------------------------------------------------------
# sums and deltas

def test_sum_doubles_indicator(chain):
    table = build_table(CF_W, chain)
    double = cf_sum(table, table)
    for mask in range(16):
        assert double[mask] == 2 * table[mask]


def test_sum_of_expected_and_similarity_at_empty(chain):
    combined = cf_sum(build_table(CF_E, chain), build_table(CF_M, chain))
    assert combined.value(0) == Fraction(10, 16)


def test_expected_and_similarity_come_from_one_fold(chain, monkeypatch):
    # asking for CF_E keeps CF_M under its own key from the same fold
    problem = ExplanationProblem(chain.classifier, chain.instance)
    folds = []
    fold = charfun.agreement_sums
    monkeypatch.setattr(charfun, "agreement_sums", lambda p: folds.append(p) or fold(p))
    expected = build_table(CF_E, problem)
    assert problem._cache["cf", charfun.CF_E] is expected
    similar = problem._cache["cf", charfun.CF_M]
    assert build_table(CF_M, problem) is similar and folds == [problem]


@pytest.mark.parametrize("cf_id", [CF_E, CF_M, CF_W, CF_W_DUAL, CF_A, CF_A_DUAL, CF_G])
def test_build_table_keeps_each_table_on_its_problem(cf_id, chain):
    for seen in [chain] + [p for _, p in CORPUS]:
        problem = ExplanationProblem(seen.classifier, seen.instance)
        table = build_table(cf_id, problem)
        assert table.cf_id == cf_id and problem._cache["cf", cf_id] is table
        assert build_table(cf_id, problem) is table


@pytest.mark.parametrize("cf_id", [charfun.CF_SUM, charfun.CF_WVG, "CF_X"])
def test_build_table_refuses_an_id_no_problem_defines(cf_id, chain):
    # a sum and a voting game's table are built from tables and games
    with pytest.raises(ValueError, match=f"unknown characteristic function id '{cf_id}'"):
        build_table(cf_id, chain)
    assert ("cf", cf_id) not in chain._cache


def test_template_defaults_are_the_recipes_named_after_the_templates():
    # the table and family each template defaults to, written out
    assert scores.TEMPLATE_DEFAULTS == {
        TemplateId.SHAPLEY_SHUBIK: (CF_W, None),
        TemplateId.BANZHAF: (CF_W, None),
        TemplateId.JOHNSTON: (CF_W, None),
        TemplateId.DEEGAN_PACKEL: (CF_A, ExplanationKind.AXP),
        TemplateId.HOLLER_PACKEL: (CF_A, ExplanationKind.AXP),
        TemplateId.RESPONSIBILITY: (CF_A, ExplanationKind.AXP),
        TemplateId.ANDJIGA: (CF_W, ExplanationKind.WAXP),
    }
    assert list(scores.TEMPLATE_DEFAULTS) == list(TemplateId)


def test_indicator_numerators_are_the_family_flags(chain):
    problem = ExplanationProblem(chain.classifier, chain.instance)
    for kind, cf_id in ((ExplanationKind.WAXP, CF_W), (ExplanationKind.WCXP, CF_W_DUAL),
                        (ExplanationKind.AXP, CF_A), (ExplanationKind.CXP, CF_A_DUAL)):
        assert build_table(cf_id, problem).nums is explain.family(problem, kind).flags


def test_sum_with_zero_table_is_identity(chain):
    table = build_table(CF_E, chain)
    zero = CharacteristicTable(charfun.CF_SUM, 4, (0,) * 16, 1)
    assert cf_sum(table, zero).values == table.values


def test_every_table_kind_pickles_to_an_equal_table(chain):
    # a table is its four fields: a copy compares and hashes as the original
    tables = [cf_wvg(WeightedVotingGame(3, (2, 1, 1))),
              cf_wvg(WeightedVotingGame(4, (2, 1, 1, 1)))]
    for problem in [chain] + [props.random_problem(53, k, (2, 5)) for k in range(10)]:
        built = [charfun.build_table(cf_id, problem) for cf_id in (
            charfun.CF_E, charfun.CF_M, charfun.CF_W, charfun.CF_W_DUAL,
            charfun.CF_A, charfun.CF_A_DUAL, charfun.CF_G)]
        tables += built + [cf_sum(built[0], built[2])]
    for table in tables:
        table.values  # the kept Fraction view travels with the table
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and hash(copy) == hash(table)
        assert type(copy.nums) is type(table.nums) and copy.values == table.values


@pytest.mark.parametrize("nums, den", [((0,) * 16, 0), ((1,) * 16, -3),
                                       ((0,) * 15, 1), ((0,) * 17, 1)],
                         ids=["zero-den", "negative-den", "short", "long"])
def test_malformed_table_is_refused(nums, den):
    with pytest.raises(ValueError):
        CharacteristicTable(charfun.CF_SUM, 4, nums, den)


def test_sum_rejects_dimension_mismatch(chain, single):
    with pytest.raises(ValueError):
        cf_sum(build_table(CF_W, chain), build_table(CF_W, single))


def test_delta_examples(chain):
    table = build_table(CF_W, chain)
    assert delta_total(table, [1, 2, 3]) == 2
    assert delta_total(table, chain.full_mask) == 1
    for i in range(1, 5):
        assert delta_i(table, i, [i]) == table.value([i]) - table.value(0)


def test_delta_on_sufficiency_is_criticality(chain):
    problems = [chain] + [props.random_problem(41, k, (2, 5)) for k in range(15)]
    for problem in problems:
        table = build_table(CF_W, problem)
        for mask in range(1, 1 << problem.m):
            for i in range(1, problem.m + 1):
                if mask >> (i - 1) & 1:
                    d = delta_i(table, i, mask)
                    assert d in (0, 1)
                    assert (d == 1) == is_critical(problem, i, mask)


def test_delta_is_linear_under_sum(chain):
    t1, t2 = build_table(CF_E, chain), build_table(CF_W, chain)
    combined = cf_sum(t1, t2)
    for mask in range(1, 16):
        for i in range(1, 5):
            if mask >> (i - 1) & 1:
                assert delta_i(combined, i, mask) == \
                    delta_i(t1, i, mask) + delta_i(t2, i, mask)


# ---------------------------------------------------------------------------
# duality of the indicator tables

def test_sufficiency_contrastive_complement_relation():
    for k in range(20):
        problem = props.random_problem(43, k, (2, 6))
        suff = build_table(CF_W, problem)
        cont = build_table(CF_W_DUAL, problem)
        full = problem.full_mask
        for s in range(1 << problem.m):
            assert (suff[s] == 1) == (cont[full & ~s] == 0)


def test_dual_table_mapping(chain):
    def dual(table):
        return charfun.build_table(charfun.dual_id(table.cf_id), chain)

    assert dual(build_table(CF_W, chain)).values == build_table(CF_W_DUAL, chain).values
    assert dual(build_table(CF_A, chain)).values == build_table(CF_A_DUAL, chain).values
    assert dual(build_table(CF_E, chain)).values == build_table(CF_E, chain).values
    with pytest.raises(ValueError):
        dual(cf_wvg(WeightedVotingGame(1, (1, 1))))


def test_table_invariants_on_random_problems():
    for k in range(15):
        problem = props.random_problem(47, k, (2, 5))
        full = problem.full_mask
        suff = build_table(CF_W, problem)
        assert suff[full] == 1 and suff[0] == 0
        sim = build_table(CF_M, problem)
        assert sim[full] == 1
        assert all(0 <= v <= 1 for v in sim.values)
        assert build_table(CF_E, problem)[full] == problem.c
        for mask in range(1 << problem.m):
            for i in range(problem.m):
                if not mask >> i & 1:
                    assert suff[mask | 1 << i] >= suff[mask]
