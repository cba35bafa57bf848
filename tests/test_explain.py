import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fislab import explain, props, scores
from fislab.explain import (ExplanationKind, enumerate_axps, enumerate_cxps,
                            enumerate_waxps, enumerate_wcxps, is_critical,
                            is_critical_dual, is_waxp, is_wcxp,
                            minimal_hitting_sets, relevant_features)
from fislab.model import features_of, mask_of


def masks(family):
    return [set(features_of(s)) for s in family.members]


# ---------------------------------------------------------------------------
# reference oracles, independent of the bitmask machinery

def brute_is_waxp(problem, fixed: set) -> bool:
    """Quantify over raw tuples; shares nothing with select_ranks."""
    cls = problem.classifier
    for x in itertools.product(*(d.values for d in cls.features)):
        if all(x[i - 1] == problem.v[i - 1] for i in fixed):
            if cls.evaluate(x) != problem.c:
                return False
    return True


def brute_is_wcxp(problem, freed: set) -> bool:
    cls = problem.classifier
    others = set(range(1, problem.m + 1)) - freed
    for x in itertools.product(*(d.values for d in cls.features)):
        if all(x[i - 1] == problem.v[i - 1] for i in others):
            if cls.evaluate(x) != problem.c:
                return True
    return False


def brute_minimal(sets):
    sets = [frozenset(s) for s in sets]
    return sorted((set(s) for s in sets
                   if not any(t < s for t in sets)),
                  key=lambda s: (len(s), sorted(s)))


def brute_axps(problem):
    n = problem.m
    weak = [set(c) for r in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), r)
            if brute_is_waxp(problem, set(c))]
    return brute_minimal(weak)


def brute_cxps(problem):
    n = problem.m
    weak = [set(c) for r in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), r)
            if brute_is_wcxp(problem, set(c))]
    return brute_minimal(weak)


# ---------------------------------------------------------------------------
# predicate examples

def test_waxp_examples(chain):
    assert is_waxp(chain, [1, 2])
    assert not is_waxp(chain, [2, 3, 4])
    assert is_waxp(chain, chain.full_mask)
    assert brute_is_waxp(chain, {2, 3, 4}) is False


def test_wcxp_examples(chain):
    assert is_wcxp(chain, [1])
    assert not is_wcxp(chain, [3])
    assert not is_wcxp(chain, 0)
    assert brute_is_wcxp(chain, {3}) is False


def test_predicates_match_brute_force_on_chain(chain):
    for r in range(5):
        for c in itertools.combinations(range(1, 5), r):
            s = set(c)
            assert is_waxp(chain, s) == brute_is_waxp(chain, s)
            assert is_wcxp(chain, s) == brute_is_wcxp(chain, s)


# ---------------------------------------------------------------------------
# family enumeration

def test_chain_families(chain):
    assert masks(enumerate_axps(chain)) == [{1, 2}, {1, 3, 4}]
    assert masks(enumerate_cxps(chain)) == [{1}, {2, 3}, {2, 4}]


def test_single_decider_families(single):
    assert masks(enumerate_axps(single)) == [{1}]
    assert masks(enumerate_cxps(single)) == [{1}]


def test_chain_weak_family_counts(chain):
    assert len(enumerate_waxps(chain)) == 5
    assert len(enumerate_wcxps(chain)) == 11


def test_families_sorted_by_cardinality_then_mask(chain):
    for fam in (enumerate_axps(chain), enumerate_wcxps(chain)):
        keys = [(s.bit_count(), s) for s in fam.members]
        assert keys == sorted(keys)


def test_minimal_families_are_antichains(chain):
    for fam in (enumerate_axps(chain), enumerate_cxps(chain)):
        for s in fam.members:
            for t in fam.members:
                assert s == t or (s & ~t and t & ~s)


def test_full_set_is_weak_explanation_empty_is_not(chain, single):
    for problem in (chain, single):
        waxps = enumerate_waxps(problem)
        assert problem.full_mask in waxps.members
        assert 0 not in waxps.members


def test_enumeration_matches_brute_force_on_random_problems():
    for k in range(30):
        problem = props.random_problem(3, k, (2, 5))
        assert masks(enumerate_axps(problem)) == brute_axps(problem)
        assert masks(enumerate_cxps(problem)) == brute_cxps(problem)


# ---------------------------------------------------------------------------
# hitting-set duality

def test_chain_hitting_set_duality(chain):
    axps = enumerate_axps(chain)
    cxps = enumerate_cxps(chain)
    assert minimal_hitting_sets(cxps.members, chain.full_mask) == axps.members
    assert minimal_hitting_sets(axps.members, chain.full_mask) == cxps.members


def test_hitting_sets_trivial():
    assert minimal_hitting_sets((0b1,), 0b1) == (0b1,)


def test_hitting_sets_match_brute_force(brute_hitting_sets):
    members = (0b011, 0b101, 0b110)
    got = minimal_hitting_sets(members, 0b111)
    expected = brute_hitting_sets([{1, 2}, {1, 3}, {2, 3}], {1, 2, 3})
    assert [set(features_of(s)) for s in got] == expected


def assert_triples_match_brute_force(universe, brute_hitting_sets):
    submasks = [s for s in range(1, universe + 1) if not s & ~universe]
    for members in itertools.combinations(submasks, min(3, len(submasks))):
        got = minimal_hitting_sets(members, universe)
        assert list(got) == sorted(got, key=lambda s: (s.bit_count(), s))
        expected = brute_hitting_sets([features_of(t) for t in members],
                                      features_of(universe))
        assert (sorted(map(features_of, got))
                == sorted(tuple(sorted(s)) for s in expected))


@pytest.mark.parametrize("universe", [0b10110, 0b1101001])
def test_hitting_sets_in_a_non_contiguous_universe(universe, brute_hitting_sets):
    assert_triples_match_brute_force(universe, brute_hitting_sets)


@pytest.mark.parametrize("universe", [0b1, 0b11, 0b111, 0b1111])
def test_hitting_sets_in_a_contiguous_universe(universe, brute_hitting_sets):
    # the features 1..k keep their numbers: no renumbering either way
    assert_triples_match_brute_force(universe, brute_hitting_sets)


def test_hitting_sets_empty_family_rejected():
    with pytest.raises(ValueError):
        minimal_hitting_sets((), 0b11)


def test_hitting_set_duality_random_problems():
    for k in range(40):
        problem = props.random_problem(5, k, (2, 6))
        axps = enumerate_axps(problem).members
        cxps = enumerate_cxps(problem).members
        full = problem.full_mask
        assert minimal_hitting_sets(cxps, full) == axps
        assert minimal_hitting_sets(axps, full) == cxps


# ---------------------------------------------------------------------------
# relevancy

def test_relevancy_chain_and_single(chain, single):
    assert features_of(relevant_features(chain)) == (1, 2, 3, 4)
    assert features_of(relevant_features(single)) == (1,)


def test_relevancy_same_from_both_families():
    for k in range(50):
        problem = props.random_problem(9, k, (2, 6))
        via_a = 0
        for s in enumerate_axps(problem).members:
            via_a |= s
        via_c = 0
        for s in enumerate_cxps(problem).members:
            via_c |= s
        assert via_a == via_c == relevant_features(problem)


def test_relevancy_mismatch_is_an_invariant_error(chain, monkeypatch):
    cxps = enumerate_cxps(chain)  # {1}, {2, 3}, {2, 4}: keep only {1}
    flags = bytes(s == cxps.members[0] for s in range(len(cxps.flags)))
    short = explain.ExplanationFamily(cxps.kind, flags)
    monkeypatch.setattr(explain, "enumerate_cxps", lambda problem: short)
    with pytest.raises(explain.InvariantError, match="relevancy mismatch"):
        relevant_features(chain)


def test_members_stay_inside_relevant_set():
    for k in range(25):
        problem = props.random_problem(13, k, (2, 5))
        relevant = relevant_features(problem)
        for fam in (enumerate_axps(problem), enumerate_cxps(problem)):
            for s in fam.members:
                assert s & ~relevant == 0


# ---------------------------------------------------------------------------
# criticality

def test_critical_examples(chain, single):
    assert not is_critical(chain, 3, [1, 2, 3])
    assert is_critical(chain, 1, chain.full_mask)
    assert is_critical(single, 1, [1])


def test_critical_requires_membership(chain):
    with pytest.raises(ValueError):
        is_critical(chain, 3, [1, 2])
    with pytest.raises(ValueError):
        is_critical_dual(chain, 3, [1, 2])


def test_critical_dual_examples(chain):
    assert is_critical_dual(chain, 1, [1])
    assert is_critical_dual(chain, 3, [2, 3])
    assert not is_critical_dual(chain, 3, [1, 3])  # {1} already contrastive


# ---------------------------------------------------------------------------
# lattice structure

def test_monotonicity_of_weak_predicates():
    for k in range(20):
        problem = props.random_problem(21, k, (2, 5))
        waxps = set(enumerate_waxps(problem).members)
        wcxps = set(enumerate_wcxps(problem).members)
        full = problem.full_mask
        for s in waxps:
            for i in range(problem.m):
                if not s >> i & 1:
                    assert (s | 1 << i) in waxps
        for s in wcxps:
            for i in range(problem.m):
                if not s >> i & 1:
                    assert (s | 1 << i) in wcxps


def test_complementation_duality_all_subsets(chain):
    problems = [chain] + [props.random_problem(17, k, (2, 6)) for k in range(20)]
    for problem in problems:
        full = problem.full_mask
        for s in range(1 << problem.m):
            assert is_wcxp(problem, full & ~s) == (not is_waxp(problem, s))


def test_complementation_duality_eight_features():
    problem = props.random_problem(29, 0, (8, 8))
    full = problem.full_mask
    for s in range(1 << 8):
        assert is_wcxp(problem, full & ~s) == (not is_waxp(problem, s))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_waxp_upward_closed_hypothesis(seed):
    problem = props.random_problem(seed, 0, (2, 4))
    for s in range(1 << problem.m):
        if is_waxp(problem, s):
            for t in range(1 << problem.m):
                if s & ~t == 0:
                    assert is_waxp(problem, t)


def test_family_kind_accessors(chain):
    fam = explain.family(chain, ExplanationKind.AXP)
    assert fam.containing(2) == (mask_of([1, 2], 4),)
    assert fam.member_lists() == [[1, 2], [1, 3, 4]]
    assert mask_of([1, 2], 4) in fam


def test_family_protocol_reads_the_flag_table():
    # length, membership and pickling read the flags alone and agree with
    # the member tuple, which is built on first read
    for _, problem in props.problem_stream(0, 200, (2, 6)):
        n = 1 << problem.m
        for kind in ExplanationKind:
            fam = explain.family(problem, kind)
            assert "members" not in vars(fam)
            copy = pickle.loads(pickle.dumps(fam))
            assert copy == fam and hash(copy) == hash(fam)
            assert len(fam) == len(fam.members)
            members = set(fam.members)
            assert [mask in fam for mask in range(n)] == [mask in members for mask in range(n)]
            assert -1 not in fam and n not in fam and "0" not in fam and 1.0 not in fam
            assert pickle.loads(pickle.dumps(fam)) == copy  # members built on one side


def test_dense_family_members_are_never_built():
    # the WAXPs of (x1 & x2) | ... | (x7 & x8), 2^8 - 3^4 of them, are dense
    # enough for the flag core, and no score reads their member tuple
    from fislab.model import make_problem, parse_boolean_expression
    m = 8
    problem = make_problem(parse_boolean_expression(
        " | ".join(f"(x{i} & x{i + 1})" for i in range(1, m, 2)), m), (1,) * m)
    for fis_id in scores.FIS_IDS:
        for dual in (False, True):
            scores.compute_fis(fis_id, problem, dual)
    waxps = enumerate_waxps(problem)
    assert len(waxps) == 175
    assert "members" not in vars(waxps)


def test_single_feature_classifier():
    from fislab.model import make_problem, parse_boolean_expression
    problem = make_problem(parse_boolean_expression("x1"), (1,))
    assert masks(enumerate_axps(problem)) == [{1}]
    assert masks(enumerate_cxps(problem)) == [{1}]
    assert is_critical(problem, 1, [1])
