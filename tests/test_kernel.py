"""Differential test of the agreement-sum kernel behind every table, family
and template core, against exhaustive scans on a seeded corpus.

The oracles share nothing with the kernel: characteristic values come from
select_points, families from the is_waxp/is_wcxp scans with a containment
loop for minimality, the template cores are the per-mask Fraction
implementations the integer cores replaced, and minimal masks and
up-closures of flag tables come from per-mask scans.  The whole-space
transforms are checked the same way: label tables against the per-point body
evaluator, coverage against the union of select_ranks cubes (coverage_set),
hitting sets against a scan over every candidate, and the mask-order fold
(kernel.superset_fold) against direct superset sums and ORs, and against
the list-slice transform where direct sums would take too long.  Banzhaf
and Johnston on an indicator's flag bytes are checked against both the
integer core on the same numerators and the Fraction oracle, and so are
Deegan-Packel, Holler-Packel and Andjiga on a family's and an indicator's
flag bytes against the member walk and the Fraction oracle.  Score vectors and audit
facts kept on a problem are checked against fresh computations: the FISs
that share a template pass, and minimal monotonicity (P05) against the
per-score containment scan it replaced.  The sufficient flags every family
reads and the agreement sums are checked against the per-point binning loop
(tools/boolean_gate.py), which no product path runs, on the corpus, on
random tables over two-valued domains in both value orders, and on tables
of mixed domain sizes for the per-axis fold.
"""

import ast
import dataclasses
import importlib.util
import itertools
import json
import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from operator import add, eq, or_
from pathlib import Path

import pytest

from fislab import charfun, explain, kernel, model, props, scores
from fislab.charfun import CharacteristicTable
from fislab.explain import ExplanationKind, is_waxp, is_wcxp
from fislab.kernel import bit_slices, lacking_bit, size_classes, up_closure
from fislab.model import (And, BoolExprBody, Classifier, DomainError,
                          ExplanationProblem, FeatureDomain, Not, TableBody, TreeBody, TreeLeaf,
                          TreeSplit, Var, WVGBody, WeightedVotingGame,
                          agreement_set, features_of, load_problem, make_problem,
                          parse_boolean_expression, relabel_classes)
from fislab.scores import ScoreVector, TemplateId

# the per-point binning loop, the kernel's oracle, lives with the gate
_GATE_PATH = Path(__file__).resolve().parents[1] / "tools" / "boolean_gate.py"
_GATE_SPEC = importlib.util.spec_from_file_location("boolean_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_GATE_SPEC)
_GATE_SPEC.loader.exec_module(gate)

ALL_SUBSET_TEMPLATES = (TemplateId.SHAPLEY_SHUBIK, TemplateId.BANZHAF,
                        TemplateId.JOHNSTON)
FAMILY_TEMPLATES = (TemplateId.DEEGAN_PACKEL, TemplateId.HOLLER_PACKEL,
                    TemplateId.RESPONSIBILITY, TemplateId.ANDJIGA)
# normalization only changes responsibility
FAMILY_VARIANTS = tuple((t, False) for t in FAMILY_TEMPLATES) + (
    (TemplateId.RESPONSIBILITY, True),)
TABLE_IDS = (charfun.CF_E, charfun.CF_M, charfun.CF_W, charfun.CF_W_DUAL,
             charfun.CF_A, charfun.CF_A_DUAL, charfun.CF_G)


ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# oracle template cores: the Fraction implementations, kept as they were

def coefficient_sigma(n_features: int, set_size: int) -> Fraction:
    """Shapley ordering weight 1 / (m * C(m-1, k-1)); symmetric in k and m-k+1."""
    if not 1 <= set_size <= n_features:
        raise ValueError(f"set size {set_size} outside 1..{n_features}")
    return Fraction(1, n_features * math.comb(n_features - 1, set_size - 1))


def oracle_score_all_subsets(template: TemplateId, table: CharacteristicTable) -> tuple[Fraction, ...]:
    m = table.n_features
    values = table.values
    acc = [ZERO] * m
    if template is TemplateId.SHAPLEY_SHUBIK:
        weight = [None] + [coefficient_sigma(m, k) for k in range(1, m + 1)]
    elif template is TemplateId.BANZHAF:
        flat = Fraction(1, 1 << (m - 1))
    for mask in range(1, 1 << m):
        v = values[mask]
        if template is TemplateId.JOHNSTON:
            deltas = []
            total = ZERO
            for i in range(m):
                if mask >> i & 1:
                    d = v - values[mask & ~(1 << i)]
                    deltas.append((i, d))
                    total += d
            if total != 0:
                for i, d in deltas:
                    if d != 0:
                        acc[i] += d / total
        else:
            w = weight[mask.bit_count()] if template is TemplateId.SHAPLEY_SHUBIK else flat
            for i in range(m):
                if mask >> i & 1:
                    d = v - values[mask & ~(1 << i)]
                    if d != 0:
                        acc[i] += w * d
    return tuple(acc)


def oracle_score_family(template: TemplateId, table: CharacteristicTable | None,
                        members, m: int, normalized: bool = False) -> tuple[Fraction, ...]:
    """Family-restricted templates; a missing table means unit influence.

    With an indicator table whose members all score 1 and whose immediate
    subsets score 0 (the minimal-explanation indicators), the two readings
    coincide.
    """
    members = tuple(members)
    count = len(members)
    sums = [ZERO] * m
    maxima: list[Fraction | None] = [None] * m
    for s in members:
        size = s.bit_count()
        for i in range(m):
            if not s >> i & 1:
                continue
            if table is None:
                d = Fraction(1)
            else:
                d = table.values[s] - table.values[s & ~(1 << i)]
            if template in (TemplateId.DEEGAN_PACKEL, TemplateId.ANDJIGA):
                sums[i] += d / (size * count)
            elif template is TemplateId.HOLLER_PACKEL:
                sums[i] += d / count
            elif template is TemplateId.RESPONSIBILITY:
                term = d / (size * count) if normalized else d / size
                if maxima[i] is None or term > maxima[i]:
                    maxima[i] = term
    if template is TemplateId.RESPONSIBILITY:
        return tuple(v if v is not None else ZERO for v in maxima)
    return tuple(sums)


def assert_reduced(vec: ScoreVector) -> ScoreVector:
    """A vector's numerators and denominator share no factor, so equal
    vectors have equal pairs."""
    assert vec.den >= 1 and math.gcd(vec.den, *vec.nums) == 1, vec
    assert type(vec.nums) is tuple and len(vec.nums) == vec.m
    return vec


def all_subsets_vector(template: TemplateId, table: CharacteristicTable) -> ScoreVector:
    """The all-subset core's (numerators, denominator) pair as a vector."""
    return assert_reduced(ScoreVector(*scores._score_all_subsets(template, table)))


def family_vector(template: TemplateId, table: CharacteristicTable | None,
                  members, m: int, normalized: bool = False) -> ScoreVector:
    """The family core's (numerators, denominator) pair as a vector."""
    return assert_reduced(ScoreVector(
        *scores._family_walk(template, table, members, m, normalized)))


def oracle_fis(fis_id: str, problem, dual: bool) -> tuple[Fraction, ...]:
    """One FIS from the Fraction oracle cores on its table and family, and
    coverage from the union of select_ranks cubes."""
    if fis_id == "V":
        size = problem.classifier.space_size
        return tuple(Fraction(len(scores.coverage_set(problem, i, dual)), size)
                     for i in range(1, problem.m + 1))
    template, cf_id, kind, normalized = scores._FIS_RECIPES[fis_id]
    if dual:
        cf_id, kind = charfun.dual_id(cf_id), kind and kind.dual
    table = charfun.build_table(cf_id, problem)
    if kind is None:
        return oracle_score_all_subsets(template, table)
    return oracle_score_family(template, table, explain.family(problem, kind).members,
                               problem.m, normalized)


def assert_equal_exactly_when_values_are(vectors):
    groups: dict[tuple[Fraction, ...], list[ScoreVector]] = {}
    for vec in vectors:
        groups.setdefault(vec.values, []).append(vec)
    for same in groups.values():
        assert all(vec == same[0] and hash(vec) == hash(same[0]) for vec in same)
    for a, b in itertools.combinations([same[0] for same in groups.values()], 2):
        assert a != b, (a, b)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def oracle_minimal_masks(qualifies) -> tuple[int, ...]:
    """The per-mask scan minimal_masks replaced, kept as it was."""
    members = []
    for s, ok in enumerate(qualifies):
        if ok and not any(qualifies[s & ~bit] for bit in _bits(s)):
            members.append(s)
    return tuple(sorted(members, key=lambda s: (s.bit_count(), s)))


# ---------------------------------------------------------------------------
# oracle transforms: the list-slice superset sums and the flag selectors,
# kept as they were

def oracle_superset_sums(values: list[int]) -> None:
    """In place, values[S] becomes the sum of values[T] over all masks T
    containing S (Yates' zeta transform), any signs.  len(values) is 2^m;
    each of the m bits takes 2^(m-1) additions, done as slices (bit_slices)."""
    for pairs in bit_slices(len(values)):
        for with_bit, without in pairs:
            values[without] = map(add, values[without], values[with_bit])


def oracle_lacking_bit(n: int) -> tuple[int, ...]:
    """Per bit, the table of one byte per mask 0..n-1, 0xff at the masks
    that lack the bit and 0 at the others."""
    selectors = []
    run = 1
    while run < n:
        pattern = b"\xff" * run + b"\x00" * run
        selectors.append(int.from_bytes(pattern * (n // (2 * run)), "little"))
        run <<= 1
    return tuple(selectors)


# ---------------------------------------------------------------------------
# oracle label tables: the per-point body evaluator, kept as it was

def _expr_eval(node, point) -> int:
    if isinstance(node, Var):
        return 1 if point[node.index - 1] else 0
    if isinstance(node, Not):
        return 1 - _expr_eval(node.operand, point)
    if isinstance(node, And):
        return _expr_eval(node.left, point) and _expr_eval(node.right, point)
    return _expr_eval(node.left, point) or _expr_eval(node.right, point)


def _eval_body(body, features: tuple[FeatureDomain, ...], point) -> int:
    if isinstance(body, TreeBody):
        node = body.root
        while isinstance(node, TreeSplit):
            x = point[node.feature - 1]
            for value, child in node.branches:
                if value == x:
                    node = child
                    break
            else:  # construction guarantees totality; defensive
                raise DomainError(f"tree has no branch for feature {node.feature} value {x!r}")
        return node.label
    if isinstance(body, BoolExprBody):
        return _expr_eval(body.ast, point)
    if isinstance(body, WVGBody):
        return int(body.is_winning(sum(1 << i for i, x in enumerate(point) if x == 1)))
    raise TypeError(f"not a classifier body: {body!r}")


# ---------------------------------------------------------------------------
# oracle tables and families

def brute_values(problem):
    """(CF_E, CF_M) per mask, averaged over select_points."""
    expected, similar = [], []
    for mask in range(1 << problem.m):
        points = problem.select_points(mask)
        labels = [problem.classifier.evaluate(x) for x in points]
        expected.append(Fraction(sum(labels), len(points)))
        similar.append(Fraction(labels.count(problem.c), len(points)))
    return tuple(expected), tuple(similar)


def brute_families(problem):
    order = sorted(range(1 << problem.m), key=lambda s: (s.bit_count(), s))

    def minimal(predicate):
        members = []
        for s in order:
            if any(t & ~s == 0 for t in members):
                continue
            if predicate(problem, s):
                members.append(s)
        return tuple(members)

    return {ExplanationKind.WAXP: tuple(s for s in order if is_waxp(problem, s)),
            ExplanationKind.WCXP: tuple(s for s in order if is_wcxp(problem, s)),
            ExplanationKind.AXP: minimal(is_waxp),
            ExplanationKind.CXP: minimal(is_wcxp)}


# ---------------------------------------------------------------------------
# seeded corpus: every body kind, m = 1..8, several instances per model

def _nonconstant(build):
    for _ in range(1000):
        try:
            return build()
        except DomainError:
            continue
    raise AssertionError("1,000 draws in a row gave a constant classifier")


def random_table(rng, m):
    def build():
        features = tuple(FeatureDomain(i, tuple(range(rng.randint(1, 3))))
                         for i in range(1, m + 1))
        size = 1
        for dom in features:
            size *= dom.size
        return Classifier(features, frozenset({0, 1, 2}),
                          TableBody(tuple(rng.randrange(3) for _ in range(size))))
    return _nonconstant(build)


def random_tree(rng, m):
    def node(free, depth):
        if not free or depth == 0 or rng.random() < 0.2:
            return TreeLeaf(rng.randrange(3))
        f = rng.choice(free)
        rest = [g for g in free if g != f]
        return TreeSplit(f, tuple((v, node(rest, depth - 1)) for v in range(3)))
    features = tuple(FeatureDomain(i, (0, 1, 2)) for i in range(1, m + 1))
    return _nonconstant(lambda: Classifier(features, frozenset({0, 1, 2}),
                                           TreeBody(node(list(range(1, m + 1)), 4))))


def random_boolexpr(rng, m):
    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return ("!" if rng.random() < 0.3 else "") + f"x{rng.randint(1, m)}"
        op = rng.choice("&|")
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"
    return _nonconstant(lambda: parse_boolean_expression(expr(4), m))


def random_wvg(rng, m):
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))

    def build():
        weights = tuple(rng.randint(0, 3) for _ in range(m))
        quota = rng.randint(0, sum(weights))
        return Classifier(features, frozenset({0, 1}), WVGBody(quota, weights))
    return _nonconstant(build)


BUILDERS = {"table": random_table, "tree": random_tree,
            "boolexpr": random_boolexpr, "wvg": random_wvg}


def corpus():
    rng = random.Random(20261018)
    for m in range(1, 9):
        for kind, build in BUILDERS.items():
            classifier = build(rng, m)
            points = list(classifier.points())
            for point in rng.sample(points, min(2 if m > 6 else 3, len(points))):
                yield f"{kind}-m{m}-{point}", make_problem(classifier, point)


CORPUS = list(corpus())


def assert_one_value_per_mask(table):
    """Every way of reading a table entry gives the same rational."""
    for mask in range(1 << table.n_features):
        assert (table[mask] == table.value(features_of(mask)) == table.values[mask]
                == Fraction(table.nums[mask], table.den)), (table.cf_id, mask)


@pytest.mark.parametrize("problem", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_kernel_matches_exhaustive_scans(problem):
    expected, similar = brute_values(problem)
    assert charfun.cf_expected(problem).values == expected
    assert charfun.cf_similarity(problem).values == similar

    families = brute_families(problem)
    for kind, members in families.items():
        family = explain.family(problem, kind)
        assert family.members == members
        assert family.flags == bytes(s in members for s in range(1 << problem.m))

    m = problem.m
    # a generator: every one-feature extension is a weak AXP
    waxps = set(families[ExplanationKind.WAXP])
    assert charfun.cf_generator(problem).nums == bytes(
        all(s | 1 << i in waxps for i in range(m) if not s >> i & 1)
        for s in range(1 << m))
    tables = [charfun.build_table(cf_id, problem) for cf_id in TABLE_IDS]
    for table in tables + [charfun.cf_sum(tables[0], tables[1])]:
        assert_one_value_per_mask(table)
    vectors = []
    for table in tables:
        for template in ALL_SUBSET_TEMPLATES:
            vectors.append(all_subsets_vector(template, table))
            assert (vectors[-1].values
                    == oracle_score_all_subsets(template, table)), (template, table.cf_id)
    for kind in ExplanationKind:
        members = explain.family(problem, kind).members
        for table in [None] + tables:
            for template, normalized in FAMILY_VARIANTS:
                vectors.append(family_vector(template, table, members, m, normalized))
                assert (vectors[-1].values
                        == oracle_score_family(template, table, members, m, normalized)), \
                    (template, kind, table and table.cf_id, normalized)
    assert_equal_exactly_when_values_are(vectors)


@pytest.mark.parametrize("problem", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_score_vectors_match_fraction_oracles(problem):
    # every FIS, primal and dual, covers every template core
    vectors = []
    for fis_id in scores.FIS_IDS:
        for dual in (False, True):
            vec = assert_reduced(scores.compute_fis(fis_id, problem, dual=dual))
            assert vec.values == oracle_fis(fis_id, problem, dual), (fis_id, dual)
            assert vec.as_strings() == [str(v) for v in vec.values]
            assert vec.total() == sum(vec.values, ZERO)
            assert [vec.score(i) for i in range(1, vec.m + 1)] == list(vec.values)
            vectors.append(vec)
    assert_equal_exactly_when_values_are(vectors)


def fresh(problem):
    return ExplanationProblem(problem.classifier, problem.instance)


def fold_sums(problem):
    """model.agreement_sums as a pair of tuples, the form of
    gate.point_loop_sums."""
    return tuple(map(tuple, model.agreement_sums(problem)))


# ---------------------------------------------------------------------------
# boolean problems: the permuted label bytes against the per-point loop

def boolean_corpus():
    """Random tables over two-valued domains, each in a random value order,
    at random instances: labels {0, 1}, three classes, classes up to 255,
    and a class of 256, which the permutation does not take."""
    rng = random.Random(20261019)
    for m in range(1, 9):
        for classes in ((0, 1), (0, 1, 2), (7, 255), (0, 256)):
            features = tuple(FeatureDomain(i, rng.choice(((0, 1), (1, 0))))
                             for i in range(1, m + 1))
            classifier = _nonconstant(lambda: Classifier(
                features, frozenset(classes),
                TableBody(tuple(rng.choice(classes) for _ in range(1 << m)))))
            for _ in range(3):
                point = tuple(rng.choice(dom.values) for dom in features)
                order = "".join(str(dom.values[0]) for dom in features)
                yield (f"boolean-m{m}-{max(classes) + 1}cls-{order}-{point}",
                       make_problem(classifier, point))


KERNEL_CORPUS = CORPUS + list(boolean_corpus())


@pytest.mark.parametrize("problem", [p for _, p in KERNEL_CORPUS],
                         ids=[n for n, _ in KERNEL_CORPUS])
def test_sufficient_flags_and_agreement_sums_match_the_point_loop(problem):
    problem = fresh(problem)
    cls = problem.classifier
    permuted = max(cls.classes) < 256 and all(dom.size == 2 for dom in cls.features)
    labels = problem._mask_labels()
    assert (labels is not None) == permuted
    if permuted:
        # each mask holds the label of the one point agreeing with v on it
        assert labels == bytes(cls.evaluate(x) for x in sorted(
            cls.points(), key=lambda x: agreement_set(x, problem.v)))
    loop = gate.point_loop_sums(problem)
    assert problem._sufficient_flags() == bytes(map(eq, loop[1], gate.point_counts(problem)))
    assert fold_sums(problem) == loop


# ---------------------------------------------------------------------------
# multi-valued problems: the per-axis fold against the per-point loop

# domain sizes 1..5, one-value domains among them, mixed in one table, m <= 8
FOLD_SHAPES = ((3,), (5,), (1, 4), (2, 3), (3, 1, 2), (5, 2, 1, 3), (4, 4, 3),
               (2, 1, 3, 1, 2, 2), (1, 2, 2, 3, 2, 1, 2, 2), (3, 2, 2, 2, 2, 2, 2, 2))
# the last class forces fields wider than 8 bytes
FOLD_CLASSES = ((0, 1, 2), (7, 255), (0, 256), (0, 2**70))


def fold_corpus():
    """Random tables over FOLD_SHAPES, each domain's values in a random
    order, for each class set of FOLD_CLASSES; per table, the instance at
    value index k on every feature with more than k values, for each k, so
    that each feature has the instance at each of its positions."""
    rng = random.Random(20261020)
    for sizes in FOLD_SHAPES:
        for classes in FOLD_CLASSES:
            features = tuple(FeatureDomain(i, tuple(rng.sample(range(10, 20), size)))
                             for i, size in enumerate(sizes, start=1))
            classifier = _nonconstant(lambda: Classifier(
                features, frozenset(classes),
                TableBody(tuple(rng.choice(classes) for _ in range(math.prod(sizes))))))
            for k in range(max(sizes)):
                point = tuple(dom.values[min(k, dom.size - 1)] for dom in features)
                yield (f"fold-{sizes}-{max(classes)}-at{k}",
                       make_problem(classifier, point))


FOLD_CORPUS = list(fold_corpus())


@pytest.mark.parametrize("problem", [p for _, p in FOLD_CORPUS],
                         ids=[n for n, _ in FOLD_CORPUS])
def test_fold_matches_the_point_loop(problem):
    problem = fresh(problem)
    assert problem._mask_labels() is None
    loop = gate.point_loop_sums(problem)
    # the flags from their own OR fold: the families build neither table
    # the sums feed
    assert problem._sufficient_flags() == bytes(map(eq, loop[1], gate.point_counts(problem)))
    for kind in ExplanationKind:
        explain.family(problem, kind)
    assert ("cf", charfun.CF_E) not in problem._cache
    assert ("cf", charfun.CF_M) not in problem._cache
    assert fold_sums(problem) == loop


@pytest.mark.parametrize("problem", [p for _, p in FOLD_CORPUS],
                         ids=[n for n, _ in FOLD_CORPUS])
def test_agreement_tables_scale_by_the_domain_sizes(problem):
    # the E and M tables scale each mask's sums by the sizes of its
    # domains (charfun.mask_scale): one-value domains, sizes up to 5 and
    # label sums past 8 bytes against the averages over select_points
    expected, similar = brute_values(fresh(problem))
    assert charfun.cf_expected(problem).values == expected
    assert charfun.cf_similarity(problem).values == similar


def test_fold_corpus_covers_every_position_and_wide_fields():
    positions = {}  # (table, feature, domain size) -> the instance's value indices
    for _, problem in FOLD_CORPUS:
        cls = problem.classifier
        for i, (dom, index, v) in enumerate(zip(cls.features, cls._value_index, problem.v)):
            positions.setdefault((id(cls), i, dom.size), set()).add(index[v])
    assert all(seen == set(range(size)) for (_, _, size), seen in positions.items())
    assert {size for _, _, size in positions} == {1, 2, 3, 4, 5}
    # a label sum past 8 bytes
    assert max(max(model.agreement_sums(p)[0]) for _, p in FOLD_CORPUS) >= 2**64


@pytest.mark.parametrize("sizes, classes, total", [
    ((2,) * 8, (0, 1), 255), ((2,) * 8, (1, 2), 511), ((4, 4, 4, 4), (1, 2), 511)],
    ids=["mask-order-255", "mask-order-511", "rank-order-511"])
def test_sums_at_the_edge_of_their_fields(sizes, classes, total):
    # every label but one at the top class, so the label total at the empty
    # subset is the largest the classes allow: 255 fills one-byte halves,
    # and 511 needs one bit more than they hold; at the one point of the
    # low class, every other point is of another class
    low, top = classes
    n = math.prod(sizes)
    labels = [top] * n
    odd = random.Random(n).randrange(1, n)
    labels[odd] = low
    features = tuple(FeatureDomain(i, tuple(range(size)))
                     for i, size in enumerate(sizes, start=1))
    classifier = Classifier(features, frozenset(classes), TableBody(tuple(labels)))
    for point in ((0,) * len(sizes), list(classifier.points())[odd]):
        problem = make_problem(classifier, point)
        loop = gate.point_loop_sums(problem)
        assert loop[0][0] == total
        assert fold_sums(problem) == loop
        counts = gate.point_counts(problem)
        assert problem._sufficient_flags() == bytes(map(eq, loop[1], counts))


def test_sums_past_the_selector_cache_bound(monkeypatch):
    # m = 14 with classes up to 255 folds 8-byte fields in mask order,
    # 128 KiB of them: the fold takes its top bit by halves
    m = 14
    rng = random.Random(m)
    features = tuple(FeatureDomain(i, rng.choice(((0, 1), (1, 0))))
                     for i in range(1, m + 1))
    classifier = Classifier(features, frozenset((7, 255)), TableBody(
        tuple(rng.choice((7, 255)) for _ in range(1 << m))))
    problem = make_problem(classifier, tuple(rng.choice(dom.values) for dom in features))
    folds = []

    def fold(data, width, combine):
        folds.append((len(data), width))
        return real_fold(data, width, combine)

    real_fold = model.superset_fold  # read by model._fold_order
    monkeypatch.setattr(model, "superset_fold", fold)
    assert fold_sums(problem) == gate.point_loop_sums(problem)
    assert folds == [(8 << m, 8)] and 8 << m > kernel.CACHED_SELECTOR_BYTES


def ternary_chain(m):
    """A tree over m ternary features: value 0 of feature i goes on to
    feature i + 1, and the other two values are leaves."""
    def node(i):
        if i == m:
            return TreeSplit(i, tuple((v, TreeLeaf(v)) for v in range(3)))
        return TreeSplit(i, ((0, node(i + 1)), (1, TreeLeaf(i % 3)),
                             (2, TreeLeaf((i + 1) % 3))))
    features = tuple(FeatureDomain(i, (0, 1, 2)) for i in range(1, m + 1))
    return Classifier(features, frozenset({0, 1, 2}), TreeBody(node(1)))


def test_sufficient_flags_of_a_ternary_tree_keep_no_per_point_list():
    # 3^12 points: a list or tuple of one int per point would take 4 MiB
    problem = make_problem(ternary_chain(12), (0,) * 12)
    tracemalloc.start()
    try:
        flags = problem._sufficient_flags()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    # only the instance's own mask, all of it, is sufficient: any free
    # feature lets a point of another class in
    assert flags == bytes((1 << 12) - 1) + b"\x01"


@pytest.mark.parametrize("problem", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_scores_sharing_a_template_pass_match_fresh_problems(problem):
    # DUAL(E) and DUAL(M) are E's and M's Shapley pass on the same table
    for fis_id, cf_id in (("E", charfun.CF_E), ("M", charfun.CF_M)):
        primal = scores.compute_fis(fis_id, problem)
        dual = scores.compute_fis(fis_id, problem, dual=True)
        assert dual is primal
        alone = fresh(problem)
        expected = scores.template_score(TemplateId.SHAPLEY_SHUBIK, alone,
                                         charfun.build_table(cf_id, alone))
        assert (primal.nums, primal.den) == (expected.nums, expected.den)
    # R_NORM and its dual are R's and DUAL(R)'s member walk over the family size
    for dual, cf_id, kind in ((False, charfun.CF_A, ExplanationKind.AXP),
                              (True, charfun.CF_A_DUAL, ExplanationKind.CXP)):
        plain = scores.compute_fis("R", problem, dual=dual)
        shared = scores.compute_fis("R_NORM", problem, dual=dual)
        size = len(explain.family(problem, kind))
        assert shared.values == tuple(v / (size or 1) for v in plain.values)
        alone = fresh(problem)
        expected = scores.template_score(TemplateId.RESPONSIBILITY, alone,
                                         charfun.build_table(cf_id, alone), kind,
                                         normalized=True)
        assert (shared.nums, shared.den) == (expected.nums, expected.den)


def test_scores_sharing_a_template_pass_run_it_once(chain, monkeypatch):
    passes = []
    template_score = scores.template_score

    def counted(template, problem, table, *args, **kwargs):
        passes.append((template, table.cf_id))
        return template_score(template, problem, table, *args, **kwargs)

    monkeypatch.setattr(scores, "template_score", counted)
    problem = fresh(chain)
    for fis_id in ("E", "M", "R", "R_NORM"):
        for dual in (False, True):
            first = scores.compute_fis(fis_id, problem, dual=dual)
            assert scores.compute_fis(fis_id, problem, dual=dual) is first
    assert passes == [(TemplateId.SHAPLEY_SHUBIK, charfun.CF_E),
                      (TemplateId.SHAPLEY_SHUBIK, charfun.CF_M),
                      (TemplateId.RESPONSIBILITY, charfun.CF_A),
                      (TemplateId.RESPONSIBILITY, charfun.CF_A_DUAL)]


def oracle_minimal_monotonicity(problem, fis_id: str) -> props.PropertyVerdict:
    """The per-score containment scan of check_minimal_monotonicity, kept as
    it was before the containment relation was kept on the problem."""
    fam = explain.enumerate_axps(problem)
    per_feature = [frozenset(fam.containing(i)) for i in range(1, problem.m + 1)]
    vec = scores.compute_fis(fis_id, problem)
    for i in range(1, problem.m + 1):
        for j in range(1, problem.m + 1):
            if i == j or not per_feature[i - 1] <= per_feature[j - 1]:
                continue
            if vec.nums[i - 1] > vec.nums[j - 1]:
                return props._fis_failure(
                    "P05", fis_id, problem, pair=(i, j),
                    scores=(str(vec.score(i)), str(vec.score(j))),
                    families=([list(features_of(s)) for s in sorted(per_feature[i - 1])],
                              [list(features_of(s)) for s in sorted(per_feature[j - 1])]))
    return props.PropertyVerdict("P05", fis_id, True)


def test_minimal_monotonicity_matches_the_per_score_scan():
    failures = set()
    for _, problem in CORPUS:
        for fis_id in props.AUDITED_FIS + ("E", "M"):
            got = props.check_minimal_monotonicity(problem, fis_id)
            expected = oracle_minimal_monotonicity(fresh(problem), fis_id)
            assert got == expected, (fis_id, problem)
            if not got.holds:
                assert got.witness.data == expected.witness.data
                failures.add(fis_id)
    assert failures == {"E", "M"}  # so failing witnesses are compared too


def test_relabeling_witness_replays_from_string_keys():
    replayed = 0
    for _, problem in CORPUS:
        for fis_id in props.AUDITED_FIS:
            props.audit("P07", fis_id, problem)  # fills the kept relabelings
        verdict = props.audit("P07", "E", problem)
        if verdict.holds:
            continue
        data = json.loads(json.dumps(verdict.witness.data))
        assert data["sigma"] and all(isinstance(k, str) for k in data["sigma"])
        stored = dataclasses.replace(verdict, witness=props.Witness(problem, data))
        assert props.reverify(stored)
        replayed += 1
    assert replayed


def test_vectors_are_reduced_on_construction():
    vec = ScoreVector([4, -6, 0], 10)
    assert (vec.nums, vec.den) == ((2, -3, 0), 5)
    assert vec == ScoreVector((2, -3, 0), 5) and vec != ScoreVector((2, -3, 0), 7)
    assert vec.values == (Fraction(2, 5), Fraction(-3, 5), 0)
    assert ScoreVector((0, 0), 12) == ScoreVector((0, 0), 1)
    assert ScoreVector((), 3).den == 1
    for den in (0, -2):
        with pytest.raises(ValueError):
            ScoreVector((1,), den)


def test_fraction_views_are_lazy_and_kept():
    vec = ScoreVector([1, 3], 6)
    table = CharacteristicTable(charfun.CF_E, 1, (0, 4), 8)
    for obj, expected in ((vec, (Fraction(1, 6), Fraction(1, 2))),
                          (table, (Fraction(0), Fraction(1, 2)))):
        assert "values" not in vars(obj)  # nothing built before the first read
        values = obj.values
        assert type(values) is tuple and all(type(v) is Fraction for v in values)
        assert values == expected
        assert obj.values is values and vars(obj)["values"] is values
    assert vec == ScoreVector([1, 3], 6)  # the view is not compared


@pytest.mark.parametrize("m", range(1, 9))
def test_wvg_power_indices_match_oracle_cores(m):
    rng = random.Random(m)
    weights = tuple(rng.randint(0, 4) for _ in range(m))
    game = WeightedVotingGame(rng.randint(0, sum(weights)), weights)
    table = charfun.cf_wvg(game)
    assert_one_value_per_mask(table)
    winning = [s for s in range(1 << m) if game.is_winning(s)]
    assert game.winning_flags() == bytes(game.is_winning(s) for s in range(1 << m))
    assert table.nums == game.winning_flags()
    assert scores.winning_coalitions(game) == tuple(
        sorted(winning, key=lambda s: (s.bit_count(), s)))
    minimal = [s for s in sorted(winning, key=lambda s: (s.bit_count(), s))
               if not any(t != s and t & ~s == 0 for t in winning)]
    assert scores.minimal_winning_coalitions(game) == tuple(minimal)
    for template in TemplateId:
        got = scores.wvg_power_index(game, template).values
        if template in ALL_SUBSET_TEMPLATES:
            assert got == oracle_score_all_subsets(template, table)
        else:
            members = minimal if template is not TemplateId.ANDJIGA else \
                sorted(winning, key=lambda s: (s.bit_count(), s))
            assert got == oracle_score_family(template, table, members, m)


def test_tables_with_mixed_denominators():
    # a sum of tables with different denominators exercises the common
    # denominator of the integer cores
    problem = next(p for name, p in CORPUS if name.startswith("tree-m5"))
    table = charfun.cf_sum(charfun.cf_expected(problem), charfun.cf_similarity(problem))
    for template in ALL_SUBSET_TEMPLATES:
        assert (all_subsets_vector(template, table).values
                == oracle_score_all_subsets(template, table))
    members = explain.enumerate_waxps(problem).members
    for template in FAMILY_TEMPLATES:
        assert (family_vector(template, table, members, problem.m, True).values
                == oracle_score_family(template, table, members, problem.m, True))


@pytest.mark.parametrize("m", range(0, 9))
def test_superset_sums_match_direct_sums(m):
    rng = random.Random(m)
    values = [rng.randint(-5, 5) for _ in range(1 << m)]
    expected = [sum(v for t, v in enumerate(values) if t & s == s)
                for s in range(1 << m)]
    oracle_superset_sums(values)
    assert values == expected


def direct_superset_fold(values: list[int], combine) -> list[int]:
    """Entry S combines values[T] over every mask T containing S, visiting
    the supersets of S one by one in increasing order."""
    n = len(values)
    folded = []
    for s in range(n):
        total, t = values[s], (s + 1) | s
        while t < n:
            total = combine(total, values[t])
            t = (t + 1) | s
        folded.append(total)
    return folded


def superset_fold(values: list[int], width: int, combine) -> list[int]:
    """kernel.superset_fold on values packed into width-byte fields."""
    data = kernel.superset_fold(kernel.le_fields(values, width), width, combine)
    return list(kernel.field_ints(data, width))


@pytest.mark.parametrize("m", range(0, 11))
def test_superset_fold_adds_over_supersets(m):
    # each fill keeps the total, entry 0, within one field; "one" puts a
    # full field at one mask, which every subset of it must take whole
    rng = random.Random(100 + m)
    n = 1 << m
    for width in (1, 2, 4, 8):
        full = (1 << 8 * width) - 1
        k = max(1, n // 10)
        fills = {"random": [rng.randint(0, full // n) for _ in range(n)],
                 "top": [full // n] * n,
                 "sparse": [0] * n,
                 "one": [0] * n}
        for t in rng.sample(range(n), k):
            fills["sparse"][t] = full // k
        fills["one"][rng.randrange(n)] = full
        for fill, values in fills.items():
            assert (superset_fold(values, width, add)
                    == direct_superset_fold(values, add)), (width, fill)


@pytest.mark.parametrize("m", range(0, 11))
def test_superset_fold_ors_over_supersets(m):
    rng = random.Random(200 + m)
    n = 1 << m
    for values in ([rng.randrange(256) for _ in range(n)],
                   [rng.random() < 0.1 for _ in range(n)]):
        assert superset_fold(values, 1, or_) == direct_superset_fold(values, or_)


def test_superset_fold_with_uncached_selectors():
    # at m = 14, 8-byte fields need selectors of more than 64 KiB each,
    # built one at a time
    rng = random.Random(14)
    values = [rng.randint(0, 2**40) for _ in range(1 << 14)]
    expected = list(values)
    oracle_superset_sums(expected)
    assert superset_fold(values, 8, add) == expected


@pytest.mark.parametrize("m", range(0, 11))
def test_lacking_bit_selectors(m):
    n = 1 << m
    assert lacking_bit(n) == oracle_lacking_bit(n)
    # the folds' selectors over wider fields set every byte of a field
    for width in (2, 4, 8):
        top = (1 << 8 * width) - 1
        for b, selector in enumerate(kernel._selectors(kernel._lacking_fields, n, width)):
            fields = selector.to_bytes(n * width, "little")
            assert [int.from_bytes(fields[k * width:(k + 1) * width], "little")
                    for k in range(n)] == [0 if s >> b & 1 else top for s in range(n)]


@pytest.mark.parametrize("m", range(0, 9))
def test_size_classes_flag_the_masks_of_each_size(m):
    n = 1 << m
    classes = size_classes(n)
    assert len(classes) == m
    for k, sized in enumerate(classes, 1):
        assert sized.to_bytes(n, "little") == bytes(s.bit_count() == k for s in range(n))


def test_size_classes_past_the_cache_bound():
    # 2^17 one-byte flags exceed the 64 KiB bound: built one at a time
    m = 17
    n = 1 << m
    assert not isinstance(size_classes(n), tuple)
    classes = list(size_classes(n))
    assert [sized.bit_count() for sized in classes] == [math.comb(m, k)
                                                        for k in range(1, m + 1)]
    assert sum(classes) == int.from_bytes(b"\x00" + b"\x01" * (n - 1), "little")
    for s in random.Random(m).sample(range(1, n), 300):
        assert classes[s.bit_count() - 1] >> 8 * s & 1


def test_flag_passes_past_the_cache_bound_cache_no_selector():
    # 2^17 one-byte flags exceed the 64 KiB bound: every flag pass builds
    # its selectors and keeps none
    m = 17
    n = 1 << m
    assert not isinstance(lacking_bit(n), tuple)
    assert tuple(lacking_bit(n)) == oracle_lacking_bit(n)
    rng = random.Random(m)
    flags = bytes(rng.random() < 0.3 for _ in range(n))
    family = bytes(rng.random() < 0.1 for _ in range(n))
    cached = kernel._selector_cache.cache_info().currsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        up_closure(int.from_bytes(flags, "little"), lacking_bit(n))
        explain.minimal_masks(flags)
        scores._banzhaf_flags(flags)
        scores._johnston_flags(flags)
        scores._family_flags(TemplateId.ANDJIGA, flags, family)
        kernel.superset_fold(flags, 1, or_)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kernel._selector_cache.cache_info().currsize == cached
    assert kept < n  # less than one selector of this size


def test_injected_families_match_oracle_core():
    rng = random.Random(5)
    for m in range(1, 7):
        for _ in range(10):
            members = [s for s in range(1 << m) if rng.random() < 0.3]
            for template, normalized in FAMILY_VARIANTS:
                assert (family_vector(template, None, members, m, normalized).values
                        == oracle_score_family(template, None, members, m, normalized))


def _random_members(rng, m):
    return [s for s in range(1 << m) if rng.random() < 0.3]


def assert_cores_match_oracles(table, members):
    for template in ALL_SUBSET_TEMPLATES:
        assert (all_subsets_vector(template, table).values
                == oracle_score_all_subsets(template, table)), template
    for template, normalized in FAMILY_VARIANTS:
        for family_table in (table, None):
            m = table.n_features
            assert (family_vector(template, family_table, members, m, normalized).values
                    == oracle_score_family(template, family_table, members, m,
                                           normalized)), (template, normalized)


@pytest.mark.parametrize("m", range(1, 9))
def test_cores_match_oracles_on_random_integer_tables(m):
    # negative gains everywhere, and sums of tables over unrelated denominators
    rng = random.Random(100 + m)
    for _ in range(3):
        tables = [CharacteristicTable("T", m, tuple(rng.randint(-9, 9) for _ in range(1 << m)),
                                      rng.choice((1, 2, 6, 35, 1 << 20)))
                  for _ in range(2)]
        for table in tables + [charfun.cf_sum(*tables)]:
            assert_cores_match_oracles(table, _random_members(rng, m))


def _gain_totals(table):
    m = table.n_features
    return [sum(table.nums[s] - table.nums[s & ~(1 << i)] for i in range(m) if s >> i & 1)
            for s in range(1 << m)]


@pytest.mark.parametrize("m", (6, 8))
def test_johnston_with_many_distinct_gain_totals(m):
    # the common multiple of the totals grows to thousands of bits
    rng = random.Random(m)
    table = CharacteristicTable("T", m, tuple(rng.randint(-10**6, 10**6)
                                              for _ in range(1 << m)), 7)
    assert len(set(_gain_totals(table))) > (1 << m) * 9 // 10
    assert (all_subsets_vector(TemplateId.JOHNSTON, table).values
            == oracle_score_all_subsets(TemplateId.JOHNSTON, table))


# ---------------------------------------------------------------------------
# flag cores: Banzhaf and Johnston on an indicator's flag bytes

FLAG_TEMPLATES = (TemplateId.BANZHAF, TemplateId.JOHNSTON)
INDICATOR_IDS = (charfun.CF_W, charfun.CF_W_DUAL, charfun.CF_A,
                 charfun.CF_A_DUAL, charfun.CF_G)


def assert_flag_cores_match(table):
    """The flag core's (numerators, denominator) pair is the integer core's
    on the same numerators, unreduced, and its values are the oracle's."""
    assert type(table.nums) is bytes
    plain = dataclasses.replace(table, nums=tuple(table.nums))
    for template in FLAG_TEMPLATES:
        nums, den = scores._score_all_subsets(template, table)
        assert (list(nums), den) == scores._score_all_subsets(template, plain), \
            (template, table.cf_id)
        assert (ScoreVector(nums, den).values
                == oracle_score_all_subsets(template, table)), (template, table.cf_id)


def flag_table(m, flags):
    return CharacteristicTable("T", m, bytes(flags), 1)


@pytest.mark.parametrize("problem", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_flag_cores_on_corpus_indicator_tables(problem):
    for cf_id in INDICATOR_IDS:
        assert_flag_cores_match(charfun.build_table(cf_id, problem))
    for cf_id in (charfun.CF_E, charfun.CF_M):
        assert type(charfun.build_table(cf_id, problem).nums) is tuple


@pytest.mark.parametrize("m", range(1, 9))
def test_flag_cores_on_wvg_winning_tables(m):
    rng = random.Random(400 + m)
    for _ in range(4):
        weights = tuple(rng.randint(0, 4) for _ in range(m))
        assert_flag_cores_match(charfun.cf_wvg(
            WeightedVotingGame(rng.randint(0, sum(weights)), weights)))


@pytest.mark.parametrize("m", range(1, 11))
def test_flag_cores_on_random_non_monotone_tables(m):
    # a gain of -1 where a mask is flagged and its extension is not; the
    # gain totals run from -m to m
    rng = random.Random(500 + m)
    n = 1 << m
    for density in (0.1, 0.5, 0.9):
        for _ in range(3):
            assert_flag_cores_match(flag_table(m, [rng.random() < density
                                                   for _ in range(n)]))
    # only the full mask has total -m: it is the one mask left out
    assert_flag_cores_match(flag_table(m, [s != n - 1 for s in range(n)]))


@pytest.mark.parametrize("m", range(1, 9))
def test_flag_cores_on_constant_tables(m):
    for fill in (0, 1):
        table = flag_table(m, [fill] * (1 << m))
        assert_flag_cores_match(table)
        assert scores._score_all_subsets(TemplateId.JOHNSTON, table) == ([0] * m, 1)
        assert scores._score_all_subsets(TemplateId.BANZHAF, table)[0] == [0] * m


# ---------------------------------------------------------------------------
# family flag core: sums of gains over a family on an indicator's flag bytes

SUM_TEMPLATES = (TemplateId.DEEGAN_PACKEL, TemplateId.HOLLER_PACKEL, TemplateId.ANDJIGA)


def assert_family_flag_core_matches(template, table, family_flags):
    """Called directly, so that no selection hides either side: the flag
    core's (numerators, denominator) pair is the member walk's on the same
    family, unreduced, and its values are the oracle's."""
    m = table.n_features
    members = explain.members_of(family_flags)
    nums, den = scores._family_flags(template, table.nums, family_flags)
    assert (nums, den) == scores._family_walk(template, table, members, m), \
        (template, table.cf_id)
    assert (ScoreVector(nums, den).values
            == oracle_score_family(template, table, members, m)), (template, table.cf_id)


# (template, family, table): the recipes' pairs and their duals, then pairs
# whose family is not the table's (the tables P02 and P04 also try)
FAMILY_TABLE_PAIRS = (
    (TemplateId.ANDJIGA, ExplanationKind.WAXP, charfun.CF_W),
    (TemplateId.ANDJIGA, ExplanationKind.WCXP, charfun.CF_W_DUAL),
    (TemplateId.DEEGAN_PACKEL, ExplanationKind.AXP, charfun.CF_A),
    (TemplateId.HOLLER_PACKEL, ExplanationKind.AXP, charfun.CF_A),
    (TemplateId.DEEGAN_PACKEL, ExplanationKind.CXP, charfun.CF_A_DUAL),
    (TemplateId.HOLLER_PACKEL, ExplanationKind.CXP, charfun.CF_A_DUAL),
    (TemplateId.DEEGAN_PACKEL, ExplanationKind.WAXP, charfun.CF_G),
    (TemplateId.HOLLER_PACKEL, ExplanationKind.WAXP, charfun.CF_G),
    (TemplateId.ANDJIGA, ExplanationKind.WAXP, charfun.CF_G),
    (TemplateId.ANDJIGA, ExplanationKind.AXP, charfun.CF_W),
)


@pytest.mark.parametrize("problem", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_family_flag_core_on_corpus_families(problem):
    for template, kind, cf_id in FAMILY_TABLE_PAIRS:
        assert_family_flag_core_matches(template, charfun.build_table(cf_id, problem),
                                        explain.family(problem, kind).flags)


@pytest.mark.parametrize("m", range(1, 11))
def test_family_flag_core_on_random_non_monotone_tables(m):
    rng = random.Random(600 + m)
    n = 1 << m
    for density in (0.1, 0.5, 0.9):
        table = flag_table(m, [rng.random() < density for _ in range(n)])
        for family_density in (0.05, 0.5):
            family = bytes(rng.random() < family_density for _ in range(n))
            for template in SUM_TEMPLATES:
                assert_family_flag_core_matches(template, table, family)


@pytest.mark.parametrize("m", range(1, 7))
def test_family_flag_core_on_edge_families(m):
    # the empty family scores 0 over 1; mask 0 only counts toward the size
    rng = random.Random(700 + m)
    n = 1 << m
    table = flag_table(m, [rng.random() < 0.5 for _ in range(n)])
    only_empty_mask = b"\x01" + bytes(n - 1)
    for family in (bytes(n), only_empty_mask, b"\x01" * n):
        for template in SUM_TEMPLATES:
            assert_family_flag_core_matches(template, table, family)
    for template in SUM_TEMPLATES:
        assert scores._family_flags(template, table.nums, bytes(n)) == ([0] * m, 1)
        nums, den = scores._family_flags(template, table.nums, only_empty_mask)
        assert nums == [0] * m and den > 0


def test_dense_families_take_the_flag_core():
    # the m=20 chain's 1,030,865 weak AXPs are scored from flags, its
    # 17,711 weak CXPs by the walk; small problems walk below 4m members
    assert scores._dense(1_030_865, 20) and not scores._dense(17_711, 20)
    assert scores._dense(1280, 11) and not scores._dense(10, 11)
    assert not scores._dense(20, 5) and scores._dense(21, 5)


@pytest.mark.parametrize("m", range(1, 6))
def test_cores_on_a_constant_classifier(m):
    # every subset is sufficient, so the only minimal one is the empty set:
    # it counts toward the family size and scores no feature
    table = CharacteristicTable(charfun.CF_W, m, (1,) * (1 << m), 1)
    assert_cores_match_oracles(table, (0,))
    assert_cores_match_oracles(table, range(1 << m))
    for template, normalized in FAMILY_VARIANTS:
        assert family_vector(template, table, (0,), m, normalized).values == (ZERO,) * m
    for template in ALL_SUBSET_TEMPLATES:
        assert all_subsets_vector(template, table).values == (ZERO,) * m


def test_cores_on_the_empty_family():
    rng = random.Random(3)
    table = CharacteristicTable("T", 4, tuple(rng.randint(-3, 3) for _ in range(16)), 5)
    assert_cores_match_oracles(table, ())
    for template, normalized in FAMILY_VARIANTS:
        assert family_vector(template, table, (), 4, normalized).values == (ZERO,) * 4


def _up_closure(generators, m):
    return [any(g & ~s == 0 for g in generators) for s in range(1 << m)]


@pytest.mark.parametrize("m", range(0, 9))
def test_minimal_masks_match_oracle(m):
    rng = random.Random(m)
    for _ in range(30):
        generators = [rng.randrange(1 << m) for _ in range(rng.randint(0, 4))]
        for flags in (_up_closure(generators, m),
                      [rng.random() < 0.4 for _ in range(1 << m)]):
            minimal = explain.minimal_masks(bytes(flags))
            assert len(minimal) == 1 << m
            assert explain.members_of(minimal) == oracle_minimal_masks(flags)


def test_family_core_memory_stays_flat_in_family_size():
    # the m=14 chain (x1 & x2) | ... | (x13 & x14) has 15,397 weak AXPs
    # at the all-ones instance; Andjiga's core adds one integer per
    # feature per member to m running sums, where a list of terms per
    # (member, feature) pair traced 6.7 MB
    m = 14
    problem = make_problem(parse_boolean_expression(
        " | ".join(f"(x{i} & x{i + 1})" for i in range(1, m)), m), (1,) * m)
    members = explain.enumerate_waxps(problem).members
    table = charfun.cf_waxp(problem)
    assert len(members) == 15_397
    tracemalloc.start()
    try:
        scores._family_walk(TemplateId.ANDJIGA, table, members, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_family_flag_core_memory_stays_flat_in_family_size():
    # the same chain's weak AXPs through the flag core: m size classes and
    # a few working tables of 2^14 bytes each, once the selector caches are
    # warm
    m = 14
    problem = make_problem(parse_boolean_expression(
        " | ".join(f"(x{i} & x{i + 1})" for i in range(1, m)), m), (1,) * m)
    family = explain.enumerate_waxps(problem).flags
    table = charfun.cf_waxp(problem)
    expected = scores._family_flags(TemplateId.ANDJIGA, table.nums, family)
    tracemalloc.start()
    try:
        got = scores._family_flags(TemplateId.ANDJIGA, table.nums, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# whole-space transforms: label tables, coverage and hitting sets

def _leaves(labels):
    return tuple(TreeLeaf(c) for c in labels)


def _split(feature, values, children):
    return TreeSplit(feature, tuple(zip(values, children)))


def label_cases():
    """(features, classes, body) triples that stress the label kernel beyond
    the corpus; the classifiers are built inside the tests."""
    ternary = tuple(FeatureDomain(i, (0, 1, 2)) for i in (1, 2))
    # feature 1 is tested again below feature 2: one branch of the inner
    # test is the only reachable one
    inner = _split(1, (0, 1, 2), _leaves((2, 0, 1)))
    yield "tree-tests-a-feature-twice", (ternary, {0, 1, 2}, TreeBody(
        _split(1, (0, 1, 2), (_split(2, (0, 1, 2), (inner, TreeLeaf(1), TreeLeaf(0))),
                              TreeLeaf(0),
                              _split(2, (0, 1, 2), (inner, inner, TreeLeaf(2)))))))
    mixed = (FeatureDomain(1, ("lo", "hi")), FeatureDomain(2, ("only",)),
             FeatureDomain(3, ("c", "a", "b")))
    yield "tree-non-numeric-and-one-value", (mixed, {0, 5, 7}, TreeBody(
        _split(3, ("a", "b", "c"), (
            _split(1, ("hi", "lo"), _leaves((7, 0))),
            _split(2, ("only",), (_split(1, ("lo", "hi"), _leaves((5, 7))),)),
            TreeLeaf(5)))))
    reversed_bits = tuple(FeatureDomain(i, (1, 0) if i % 2 else (0, 1))
                          for i in range(1, 5))
    ast = parse_boolean_expression("x1 & !x2 | x3 & (x4 | !x1)").body.ast
    yield "boolexpr-over-1-0-domains", (reversed_bits, {0, 1}, BoolExprBody(ast))
    yield "wvg-with-zero-weights", (reversed_bits, {0, 1}, WVGBody(2, (0, 2, 0, 1)))
    # more than 256 labels: the label positions take two bytes per rank
    wide = (FeatureDomain(1, tuple(range(300))), FeatureDomain(2, (0, 1)))
    yield "tree-600-labels", (wide, set(range(600)), TreeBody(_split(2, (1, 0), tuple(
        _split(1, tuple(range(300)), _leaves(2 * v + b for v in range(300)))
        for b in (1, 0)))))
    yield "tree-300-sparse-labels", (wide, {10**9 + v for v in range(300)}, TreeBody(
        _split(1, tuple(range(300)), _leaves(10**9 + v for v in range(300)))))


LABEL_CASES = dict(label_cases())


def _points(features):
    return itertools.product(*(dom.values for dom in features))


@pytest.mark.parametrize("name", LABEL_CASES)
def test_label_table_matches_per_point_evaluation(name):
    features, classes, body = LABEL_CASES[name]
    labels = Classifier(features, frozenset(classes), body)._labels
    assert tuple(labels) == tuple(_eval_body(body, features, x) for x in _points(features))
    assert {type(label) for label in labels} == {int}


def test_label_positions_past_two_bytes():
    # 70,000 labels take four bytes per rank; the per-point oracle would
    # scan 70,000 branches per point, so the expected table is written out
    n = 70_000
    args = ((FeatureDomain(1, tuple(range(n))),), frozenset(range(n)),
            TreeBody(_split(1, range(n), _leaves(range(n - 1, -1, -1)))))
    tracemalloc.start()
    try:
        cls = Classifier(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls._labels == tuple(range(n - 1, -1, -1))
    # a few n-bit rank bitmaps per tree level and per bit of a label
    # position: about 10 MB here, where one bitmap per branch or per label
    # would hold some 70,000 * n / 16 bytes (300 MB) at once
    assert peak < 40 * 2**20


# domains of several sizes and value types, one of a single value
TREE_DOMAINS = ((0, 1, 2), ("lo", "hi"), ("only",), (None, 2.5, "q", 7), (1, 0))
TREE_CLASS_SETS = ((0, 1, 2), (0, 255, 256), (3, 10**9, 7))


def random_tree_model(rng):
    """(features, classes, body) of a random tree whose splits may test a
    feature again below itself, so that some of its subtrees are reached by
    no point."""
    m = rng.randint(1, 4)
    features = tuple(FeatureDomain(i, rng.choice(TREE_DOMAINS)) for i in range(1, m + 1))
    classes = rng.choice(TREE_CLASS_SETS)

    def node(depth):
        if depth == 0 or rng.random() < 0.25:
            return TreeLeaf(rng.choice(classes))
        feature = rng.randint(1, m)
        values = list(features[feature - 1].values)
        rng.shuffle(values)
        return TreeSplit(feature, tuple((v, node(depth - 1)) for v in values))
    return features, frozenset(classes), TreeBody(node(rng.randint(1, 5)))


def _tests_a_feature_twice(node, above=frozenset()) -> bool:
    if isinstance(node, TreeLeaf):
        return False
    return node.feature in above or any(
        _tests_a_feature_twice(child, above | {node.feature}) for _, child in node.branches)


@pytest.mark.parametrize("kept", [True, False], ids=["kept-bitmaps", "shifted"])
def test_random_tree_label_tables_match_per_point_evaluation(kept, monkeypatch):
    # with no room for kept value bitmaps, every branch shifts its
    # feature's first bitmap, as a domain past CACHED_SELECTOR_BYTES does
    if not kept:
        monkeypatch.setattr(model, "CACHED_SELECTOR_BYTES", 0)  # read by model._tree_planes
    rng = random.Random(26)
    built = twice = wide = 0
    for _ in range(400):
        features, classes, body = random_tree_model(rng)
        try:
            labels = Classifier(features, classes, body)._labels
        except DomainError as exc:
            assert str(exc) == "classification function is constant"
            continue
        assert list(labels) == [_eval_body(body, features, x) for x in _points(features)]
        assert type(labels) is (bytes if max(classes) < 256 else tuple)
        built += 1
        twice += _tests_a_feature_twice(body.root)
        wide += max(classes) >= 256
    assert built > 200 and twice > 100 and wide > 100, (built, twice, wide)


def test_large_domain_shifts_its_first_bitmap():
    # 600 values over 1,200 ranks take 90,000 bytes of value bitmaps, past
    # CACHED_SELECTOR_BYTES; feature 2's two bitmaps are kept
    features = (FeatureDomain(1, tuple(range(600))), FeatureDomain(2, ("a", "b")))
    assert 600 * 1200 > 8 * kernel.CACHED_SELECTOR_BYTES
    inner = _split(1, range(600), _leaves(v % 7 + 250 for v in range(600)))
    body = TreeBody(_split(2, ("b", "a"), (
        inner, _split(1, range(600), tuple(inner if v % 2 else TreeLeaf(v % 5)
                                           for v in range(600))))))
    labels = Classifier(features, frozenset(range(257)), body)._labels
    assert list(labels) == [_eval_body(body, features, x) for x in _points(features)]


def test_corpus_label_tables_match_per_point_evaluation():
    for name, problem in CORPUS:
        cls = problem.classifier
        if not isinstance(cls.body, TableBody):  # a table carries its labels
            assert tuple(cls._labels) == tuple(_eval_body(cls.body, cls.features, x)
                                               for x in _points(cls.features)), name


def route_case(kind: str, top: int):
    """(features, body) of one body kind over the classes {0, 1, top}: the
    table and the tree emit all three, the expression and the game 0 and
    1."""
    ternary = tuple(FeatureDomain(i, (0, 1, 2)) for i in (1, 2))
    boolean = tuple(FeatureDomain(i, (1, 0) if i == 2 else (0, 1)) for i in (1, 2, 3))
    if kind == "table":
        return ternary, TableBody((0, top, 1, 1, 0, top, top, 1, 0))
    if kind == "tree":
        return ternary, TreeBody(_split(2, (2, 0, 1), (
            TreeLeaf(top), _split(1, (0, 1, 2), _leaves((1, 0, top))), TreeLeaf(0))))
    if kind == "boolexpr":
        return boolean, parse_boolean_expression("x1 & !x2 | x3").body
    return boolean, WVGBody(3, (2, 1, 2))


@pytest.mark.parametrize("top", [255, 256])
@pytest.mark.parametrize("kind", ["table", "tree", "boolexpr", "wvg"])
def test_label_routes_match_per_point_evaluation(kind, top):
    """Classes below 256 keep their labels as bytes, a class of 256 or more
    as a tuple; both hold the per-point labels, and so does a relabelling
    onto classes below 256 and onto one above 255, from either route."""
    features, body = route_case(kind, top)
    classes = frozenset({0, 1, top})
    cls = Classifier(features, classes, body)
    assert type(cls._labels) is (bytes if top < 256 else tuple)
    expected = (list(body.labels) if isinstance(body, TableBody)
                else [_eval_body(body, features, x) for x in _points(features)])
    assert list(cls._labels) == expected
    assert [cls.evaluate(x) for x in _points(features)] == expected
    for image in ((7, 3, 9), (7, 3, 300)):
        sigma = dict(zip(sorted(classes), image))
        relabeled = model.relabel_classes(cls, sigma)
        assert type(relabeled._labels) is (bytes if max(image) < 256 else tuple)
        assert list(relabeled._labels) == [sigma[c] for c in expected]
        assert relabeled == Classifier(features, frozenset(image),
                                       TableBody(tuple(sigma[c] for c in expected)))
    # equality and hashing read the features, classes and body alone
    same = Classifier(features, classes, body)
    assert same == cls and hash(same) == hash(cls)
    again = pickle.loads(pickle.dumps(cls))
    assert again == cls and hash(again) == hash(cls)
    assert type(again._labels) is type(cls._labels) and again._labels == cls._labels


def assert_coverage_is_cube_union(problem):
    size = problem.classifier.space_size
    for contrastive in (False, True):
        expected = tuple(
            Fraction(len(scores.coverage_set(problem, i, contrastive)), size)
            for i in range(1, problem.m + 1))
        assert scores.coverage_score(problem, contrastive).values == expected


@pytest.mark.parametrize("problem", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_coverage_matches_cube_union(problem):
    assert_coverage_is_cube_union(problem)


@pytest.mark.parametrize("name", LABEL_CASES)
def test_coverage_matches_cube_union_off_the_corpus(name):
    features, classes, body = LABEL_CASES[name]
    cls = Classifier(features, frozenset(classes), body)
    for point in list(_points(features))[::97][:3]:
        assert_coverage_is_cube_union(make_problem(cls, point))


def test_hitting_sets_match_brute_force_on_corpus_families(brute_hitting_sets):
    for name, problem in CORPUS:
        full = problem.full_mask
        for kind in (ExplanationKind.AXP, ExplanationKind.CXP):
            members = explain.family(problem, kind).members
            got = explain.minimal_hitting_sets(members, full)
            assert list(got) == sorted(got, key=lambda s: (s.bit_count(), s))
            expected = brute_hitting_sets([features_of(t) for t in members],
                                          features_of(full))
            assert (sorted(map(features_of, got))
                    == sorted(tuple(sorted(s)) for s in expected)), (name, kind)


@pytest.mark.parametrize("m", range(0, 9))
def test_superset_or_is_the_union_over_supersets(m):
    # the union of the int masks at all supersets of S, bit by bit: bit j
    # of it is set iff some superset of S has bit j, that is iff the mirror
    # top ^ S lies in the up-closure of the mirrored bit-j flags
    rng = random.Random(m)
    values = [rng.randrange(1 << m) for _ in range(1 << m)]
    expected = []
    for s in range(1 << m):
        union = 0
        for t, v in enumerate(values):
            if t & s == s:
                union |= v
        expected.append(union)
    n, top = 1 << m, (1 << m) - 1
    union = [0] * n
    for j in range(m):
        mirrored = bytes(values[top ^ s] >> j & 1 for s in range(n))
        closed = up_closure(int.from_bytes(mirrored, "little"),
                            lacking_bit(n)).to_bytes(n, "little")
        for s in range(n):
            union[s] |= closed[top ^ s] << j
    assert union == expected


@pytest.mark.parametrize("m", range(0, 9))
def test_up_closure_matches_superset_scan(m):
    rng = random.Random(100 + m)
    n = 1 << m
    for density in (0.02, 0.2, 0.6):
        flags = [rng.random() < density for _ in range(n)]
        got = up_closure(int.from_bytes(bytes(flags), "little"), lacking_bit(n))
        members = [t for t in range(n) if flags[t]]
        assert got.to_bytes(n, "little") == bytes(_up_closure(members, m))
        assert got < 1 << 8 * n  # nothing is shifted past the last mask


@pytest.mark.parametrize("m", range(0, 9))
def test_hitting_sets_match_brute_force_on_random_families(m, brute_hitting_sets):
    rng = random.Random(200 + m)
    for _ in range(12):
        # a random universe of m features among 0..9, so often not the
        # lowest m bits
        universe = sum(1 << k for k in rng.sample(range(10), m))
        subsets = [s for s in range(universe + 1) if not s & ~universe]
        members = rng.sample(subsets, min(len(subsets), rng.randint(1, 5)))
        got = explain.minimal_hitting_sets(members, universe)
        assert list(got) == sorted(got, key=lambda s: (s.bit_count(), s))
        expected = brute_hitting_sets([features_of(t) for t in members],
                                      features_of(universe))
        assert (sorted(map(features_of, got))
                == sorted(tuple(sorted(s)) for s in expected)), (members, universe)


@pytest.mark.parametrize("seed", range(6))
def test_coverage_matches_cube_union_on_mixed_domains(seed):
    # domain sizes 1..4: a mask's exact point count is a product of sizes
    # less one, zero whenever a one-value feature is left free
    rng = random.Random(300 + seed)
    for m in range(1, 7):
        features = tuple(FeatureDomain(i, tuple(range(rng.randint(1, 4))))
                         for i in range(1, m + 1))
        size = 1
        for dom in features:
            size *= dom.size
        if not 2 <= size <= 400:  # one point gives a constant classifier
            continue

        def build():
            labels = tuple(rng.randrange(3) for _ in range(size))
            return Classifier(features, frozenset({0, 1, 2}), TableBody(labels))
        cls = _nonconstant(build)
        for point in rng.sample(list(cls.points()), min(3, size)):
            assert_coverage_is_cube_union(make_problem(cls, point))


def test_kernel_imports_only_the_standard_library():
    # the kernel sits below every layer: no fislab module, relative or not
    path = Path(__file__).resolve().parents[1] / "src" / "fislab" / "kernel.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            imported.add(node.module.partition(".")[0])
    assert "fislab" not in imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def test_traced_names_stay_in_the_model_module():
    # bench/tracing.py times the model layer by the functions and classes
    # whose __module__ is fislab.model, and bench/test_bench.py pins these
    for obj in (Classifier, ExplanationProblem, load_problem, relabel_classes):
        assert obj.__module__ == "fislab.model", obj
