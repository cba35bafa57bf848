import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from fislab import charfun, model, props, scores
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


def vector(values) -> scores.ScoreVector:
    """A score vector of the given Fractions, over their common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return scores.ScoreVector([v.numerator * (den // v.denominator) for v in values], den)


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


def test_additivity_keeps_the_sum_of_the_problems_own_tables(chain):
    problem = model.ExplanationProblem(chain.classifier, chain.instance)
    expected, waxp = cf_expected(problem), cf_waxp(problem)
    assert check_additivity(problem, TemplateId.BANZHAF, expected, waxp).holds
    combined = problem._cache["cf_sum", charfun.CF_E, charfun.CF_W]
    assert combined.values == charfun.cf_sum(expected, waxp).values
    check_additivity(problem, TemplateId.BANZHAF, cf_expected(problem), cf_waxp(problem))
    assert problem._cache["cf_sum", charfun.CF_E, charfun.CF_W] is combined
    check_additivity(problem, TemplateId.BANZHAF, waxp, expected)
    assert problem._cache["cf_sum", charfun.CF_W, charfun.CF_E] is not combined
    # a table the problem does not keep gives a sum it does not keep, nor
    # reads from the memo, even under the id of one it keeps
    own = charfun.CharacteristicTable(charfun.CF_E, 4, tuple(waxp.nums), 1)
    kept = dict(problem._cache)
    assert check_additivity(problem, TemplateId.BANZHAF, own, waxp).holds
    assert problem._cache == kept


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


def oracle_pairwise_same_order(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    """The pairwise sign scan the ranking comparison replaced, kept as it was."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            da = (a[i] > a[j]) - (a[i] < a[j])
            db = (b[i] > b[j]) - (b[i] < b[j])
            if da != db:
                return False
    return True


def test_equal_rankings_are_pairwise_same_order():
    # few distinct values, so ties, zeros and negative values are common
    rng = random.Random(7)
    pool = [F(k, d) for k in range(-3, 4) for d in (1, 2)]
    agree = 0
    for _ in range(3000):
        m = rng.randint(0, 6)
        a = tuple(rng.choice(pool) for _ in range(m))
        if rng.random() < 0.5:  # an order-preserving image of a
            scale, shift = F(rng.randint(1, 4), rng.randint(1, 3)), rng.choice(pool)
            b = tuple(v * scale + shift for v in a)
        else:
            b = tuple(rng.choice(pool) for _ in range(m))
        same = vector(a).ranking() == vector(b).ranking()
        assert same == oracle_pairwise_same_order(a, b), (a, b)
        agree += same
    assert 500 < agree < 2500  # both outcomes are common


def oracle_duality_levels(primal: tuple[Fraction, ...], dual: tuple[Fraction, ...]):
    """(strong, equivalent, weak, alpha) by the Fraction ratio loop that
    check_duality ran before score vectors were integers, kept as it was;
    weak by the pairwise sign scan."""
    strong = primal == dual
    alpha: Fraction | None = None
    equivalent = True
    for p, d in zip(primal, dual):
        if p == 0 and d == 0:
            continue
        if p == 0 or d == 0:
            equivalent = False
            break
        ratio = d / p
        if ratio <= 0:
            equivalent = False
            break
        if alpha is None:
            alpha = ratio
        elif alpha != ratio:
            equivalent = False
            break
    if equivalent and alpha is None:
        alpha = Fraction(1)  # both vectors identically zero
    if not equivalent:
        alpha = None
    weak = equivalent or oracle_pairwise_same_order(primal, dual)
    return strong, equivalent, weak, alpha


def _unreduced(values, factor: int) -> scores.ScoreVector:
    """values over their common denominator times factor, for the vector to
    reduce."""
    den = math.lcm(*(v.denominator for v in values)) * factor
    return scores.ScoreVector([v.numerator * (den // v.denominator) for v in values], den)


def test_duality_levels_match_the_fraction_loop():
    rng = random.Random(11)
    pool = [F(k, d) for k in range(-3, 4) for d in (1, 2, 3)]
    kinds = ("equal", "scaled", "negated", "zero", "random")
    seen = dict.fromkeys(kinds, 0)
    levels = dict.fromkeys(("strong", "equivalent", "weak", "none"), 0)
    for _ in range(3000):
        m = rng.randint(0, 6)
        a = tuple(rng.choice(pool) for _ in range(m))
        kind = rng.choice(kinds)
        if kind == "equal":
            b = a
        elif kind == "scaled":
            scale = F(rng.randint(1, 4), rng.randint(1, 3))
            b = tuple(v * scale for v in a)
        elif kind == "negated":
            b = tuple(-2 * v for v in a)
        elif kind == "zero":  # zeros in one vector where the other has none
            b = tuple(v if rng.random() < 0.5 else F(0) for v in a)
        else:
            b = tuple(rng.choice(pool) for _ in range(m))
        expected = oracle_duality_levels(a, b)
        got = props._duality_levels(_unreduced(a, rng.randint(1, 6)),
                                    _unreduced(b, rng.randint(1, 6)))
        assert got == expected, (a, b)
        if kind == "negated" and any(a):
            assert not got[1]  # a -2x scale is never equivalent
        seen[kind] += 1
        levels[("strong", "equivalent", "weak", "none")[
            [*got[:3], True].index(True)]] += 1
    assert min(seen.values()) > 400 and min(levels.values()) > 100, (seen, levels)


def test_weak_duality_matches_pairwise_order_on_random_problems():
    for index in range(40):
        problem = random_problem(11, index, (2, 5))
        for fis_id in scores.FIS_IDS:
            verdict = check_duality(problem, fis_id)
            assert verdict.weak == (verdict.equivalent or oracle_pairwise_same_order(
                verdict.primal.values, verdict.dual.values))
            assert (verdict.strong, verdict.equivalent, verdict.weak, verdict.alpha) \
                == oracle_duality_levels(verdict.primal.values, verdict.dual.values)


def test_equivalent_level_detected_on_scaled_vectors(chain):
    # the dual of the normalized best-size score rescales by the family
    # sizes; build a synthetic pair instead: primal vs primal*3/2
    primal = scores.compute_fis("D", chain)
    scaled = vector(tuple(v * F(3, 2) for v in primal.values))
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


@pytest.mark.parametrize("property_id, subject, kwargs, index", [
    ("P03", ("responsibility",), {"budget": 20, "m_range": (2, 5)}, 16),
    ("P09-strong", "D", {"budget": 10}, 9),
])
def test_search_parallel_witness_in_a_later_block(property_id, subject, kwargs,
                                                  index):
    serial = search_counterexample(property_id, subject, seed=1, **kwargs)
    parallel = search_counterexample(property_id, subject, seed=1, workers=2,
                                     **kwargs)
    assert serial.data["generator"]["index"] == index
    assert parallel.data == serial.data
    assert parallel.problem == serial.problem


def test_search_parallel_witness_in_the_first_block_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    serial = search_counterexample("P03", ("responsibility",), seed=1, budget=4000)
    parallel = search_counterexample("P03", ("responsibility",), seed=1,
                                     budget=4000, workers=2)
    # 4,000 problems over 2 workers make blocks of 200 behind an in-process
    # first block of 100: index 16 is in that one
    assert serial.data["generator"]["index"] == 16
    assert parallel.data == serial.data
    assert parallel.problem == serial.problem


def test_random_problem_deterministic():
    a = random_problem(0, 5)
    b = random_problem(0, 5)
    assert a.classifier._labels == b.classifier._labels
    assert a.v == b.v
    assert random_problem(1, 5).classifier._labels != a.classifier._labels \
        or random_problem(1, 5).v != a.v


@pytest.mark.parametrize("m_range", [(0, 0), (3, 2), "over"],
                         ids=["zero", "reversed", "over"])
def test_random_problem_refuses_m_outside_the_limit(m_range, monkeypatch):
    # a one-point table is always constant, so m = 0 would never return
    monkeypatch.delenv("FISLAB_MAX_FEATURES", raising=False)
    if m_range == "over":
        m_range = (1, model.max_feature_limit() + 1)
    with pytest.raises(ValueError, match="m_range"):
        random_problem(0, 0, m_range)
    with pytest.raises(ValueError, match="m_range"):
        search_counterexample("P05", "E", budget=3, m_range=m_range)


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


def test_property_matrix_draws_each_problem_once(monkeypatch):
    # the corpus is the first indices of the seeded stream, and the walk
    # of the stream starts from the corpus's own problems: every index is
    # drawn once, in order
    draws = []
    draw = props.random_problem

    def counted(base_seed, index, m_range=(2, 6)):
        draws.append((base_seed, index, m_range))
        return draw(base_seed, index, m_range)

    monkeypatch.setattr(props, "random_problem", counted)
    property_matrix(seed=0)
    assert 60 < len(draws) <= 600
    assert draws == [(0, k, (2, 5)) for k in range(len(draws))]


@pytest.mark.parametrize("seed, digest", [
    (0, "f27b7ff51467e3bc021bd387cdd4a01b834c6d6bc8d089e5b6523ceb5c4b4b8b"),
    (3, "6bc611d2406ad42b1a6c317f054ed4c09ee26d6eda09be21be9571a361abbd7d"),
])
def test_p03_rows_share_one_sum_table_per_problem(seed, digest, monkeypatch):
    # the seven P03 rows probe each problem of the walk with the same
    # additivity pair, and read one sum table kept on the problem, which
    # check_additivity builds once; every P03 cell and witness is as it was
    # when each row built its own
    sums = []
    cf_sum = charfun.cf_sum

    def counted(table1, table2):
        sums.append(cf_sum(table1, table2))  # kept alive, so ids stay unique
        return sums[-1]

    monkeypatch.setattr(charfun, "cf_sum", counted)
    matrix = property_matrix(seed=seed)
    p03 = {row: [cell.status, cell.witness and cell.witness.data]
           for (row, prop), cell in sorted(matrix.cells.items()) if prop == "P03"}
    text = json.dumps(p03, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(sums) == len(set(map(id, sums))) == 600


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
