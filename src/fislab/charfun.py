"""Memoized exact-rational characteristic-function tables over all subsets.

Every table holds 2^m integer numerators indexed by subset mask over one
denominator: the space size for CF_E and CF_M, 1 for the indicators.  An
indicator's numerators are a flag table (one byte per mask, see
model.lacking_bit), the bytes object itself: the family's own flags, the
generators' from shifts of the sufficient flags, or a voting game's winning
flags.  scores' flag cores count swings in those bytes.  Values are never
forced: the empty set gets whatever the defining formula yields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import explain
from .explain import ExplanationKind
from .model import (CACHED_SELECTOR_BYTES, ExplanationProblem, WeightedVotingGame,
                    agreement_sums, as_mask, cached_value, lacking_bit)

CF_E = "CF_E"            # conditional expected value of the class label
CF_M = "CF_M"            # fraction of points keeping the prediction
CF_A = "CF_A"            # indicator of minimal sufficient subsets
CF_A_DUAL = "CF_A_DUAL"  # indicator of minimal contrastive subsets
CF_W = "CF_W"            # indicator of sufficient subsets
CF_W_DUAL = "CF_W_DUAL"  # indicator of contrastive subsets
CF_G = "CF_G"            # indicator of generators (every one-feature extension sufficient)
CF_WVG = "CF_WVG"        # indicator of winning coalitions
CF_SUM = "CF_SUM"

# the indicator table of each explanation family.  A table's dual is the
# indicator of the dual family; CF_E and CF_M read no family and are their
# own duals.
_INDICATOR = {ExplanationKind.WAXP: CF_W, ExplanationKind.WCXP: CF_W_DUAL,
              ExplanationKind.AXP: CF_A, ExplanationKind.CXP: CF_A_DUAL}
_DUALS = {CF_E: CF_E, CF_M: CF_M}
_DUALS.update((cf_id, _INDICATOR[kind.dual]) for kind, cf_id in _INDICATOR.items())


@dataclass(frozen=True)
class CharacteristicTable:
    """One set function, fully materialized: subset mask S has value nums[S] / den.

    An indicator table's nums is its flag table, a bytes object (one byte
    per mask); a numeric table's is a tuple.  A table is these four fields
    alone: it compares, hashes and pickles by them, and refers to no problem.
    """

    cf_id: str
    n_features: int
    nums: tuple[int, ...] | bytes
    den: int

    def __post_init__(self):
        if len(self.nums) != 1 << self.n_features:
            raise ValueError(
                f"{len(self.nums)} values for {self.n_features} features")
        if self.den < 1:
            raise ValueError(f"denominator {self.den} is below 1")

    @cached_value
    def values(self) -> tuple[Fraction, ...]:
        """The values as Fractions, built on first use."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def value(self, subset) -> Fraction:
        return self[as_mask(subset, self.n_features)]

    def __getitem__(self, mask: int) -> Fraction:
        return Fraction(self.nums[mask], self.den)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_features) - 1


def mask_scale(sizes) -> tuple[int, ...]:
    """Per subset mask S, the product of sizes[j] over the features j in S.
    From the empty mask, each feature appends the masks with it at size
    times the masks without it, read from a dict of the few distinct
    products, so that equal entries share one int."""
    scale, products = [1], {1}
    for size in sizes:
        times = {p: p * size for p in products}
        products.update(times.values())
        scale += map(times.__getitem__, tuple(scale))
    return tuple(scale)


def exact_groups(sizes) -> tuple[tuple[int, int], ...]:
    """The subset masks grouped by how many points agree with an instance on
    exactly S, the product of sizes[j] - 1 over the features j not in S:
    (count, the group's flag table read as one int) per count above 0.
    Each feature doubles the masks: those with it (shifted up by 8 << j
    bits) keep their count, those without it take sizes[j] - 1 times it,
    and a one-value feature leaves them no point.  Every domain of two
    values makes one group."""
    groups = {1: 1}
    for j, size in enumerate(sizes):
        grown: dict[int, int] = {}
        for count, flags in groups.items():
            grown[count] = grown.get(count, 0) | flags << (8 << j)
            if size > 1:
                count *= size - 1
                grown[count] = grown.get(count, 0) | flags
        groups = grown
    return tuple(groups.items())


def domain_weights(problem: ExplanationProblem, weights):
    """weights (mask_scale or exact_groups) of the problem's domain sizes.
    Kept per sizes for the last 32 while 8 bytes a mask fit in
    CACHED_SELECTOR_BYTES, like model._selectors; built per call above it,
    so that no table of 2^m weights outlives a large problem."""
    sizes = tuple(dom.size for dom in problem.classifier.features)
    if 8 << len(sizes) > CACHED_SELECTOR_BYTES:
        return weights(sizes)
    return _kept_weights(weights, sizes)


@functools.lru_cache(maxsize=32)
def _kept_weights(weights, sizes: tuple[int, ...]):
    return weights(sizes)


def _agreement_table(problem: ExplanationProblem, cf_id: str) -> CharacteristicTable:
    """CF_E or CF_M, built together from one fold (model.agreement_sums) and
    kept on the problem each under its own key.  Each mask's sums over the
    points agreeing on S become numerators over the space size: those
    points number the space size over mask_scale's entry for S, so that
    entry scales S."""
    cache = problem._cache
    if ("cf", cf_id) not in cache:
        scale = domain_weights(problem, mask_scale)
        den = problem.classifier.space_size
        for table_id, sums in zip((CF_E, CF_M), agreement_sums(problem)):
            cache["cf", table_id] = CharacteristicTable(
                table_id, problem.m, tuple(map(mul, sums, scale)), den)
    return cache["cf", cf_id]


def cf_expected(problem: ExplanationProblem) -> CharacteristicTable:
    """Mean class label over the points that agree with the instance on S."""
    return _agreement_table(problem, CF_E)


def cf_similarity(problem: ExplanationProblem) -> CharacteristicTable:
    """Fraction of agreeing points whose prediction matches the instance."""
    return _agreement_table(problem, CF_M)


def _family_indicator(problem, kind) -> CharacteristicTable:
    cf_id = _INDICATOR[kind]
    return problem._memo(("cf", cf_id), lambda: CharacteristicTable(
        cf_id, problem.m, explain.family(problem, kind).flags, 1))


def cf_waxp(problem: ExplanationProblem) -> CharacteristicTable:
    return _family_indicator(problem, ExplanationKind.WAXP)


def cf_wcxp(problem: ExplanationProblem) -> CharacteristicTable:
    return _family_indicator(problem, ExplanationKind.WCXP)


def cf_axp(problem: ExplanationProblem) -> CharacteristicTable:
    return _family_indicator(problem, ExplanationKind.AXP)


def cf_cxp(problem: ExplanationProblem) -> CharacteristicTable:
    return _family_indicator(problem, ExplanationKind.CXP)


def cf_generator(problem: ExplanationProblem) -> CharacteristicTable:
    """Indicator of subsets whose every one-feature extension is sufficient.

    The full set qualifies vacuously.  Per bit b, shifting the sufficient
    flags down by one step of 8 << b puts each mask's extension by b at the
    mask itself; a mask lacking b whose extension is not sufficient is no
    generator.
    """
    def build():
        n = 1 << problem.m
        sufficient = int.from_bytes(explain.enumerate_waxps(problem).flags, "little")
        failed = 0
        for b, lacking in enumerate(lacking_bit(n)):
            failed |= lacking & ~(sufficient >> (8 << b))
        generator = int.from_bytes(b"\x01" * n, "little") & ~failed
        return CharacteristicTable(CF_G, problem.m, generator.to_bytes(n, "little"), 1)
    return problem._memo(("cf", CF_G), build)


def cf_wvg(game: WeightedVotingGame) -> CharacteristicTable:
    """Indicator of winning coalitions; monotone by non-negative weights."""
    return CharacteristicTable(CF_WVG, game.m, game.winning_flags(), 1)


def cf_sum(table1: CharacteristicTable, table2: CharacteristicTable) -> CharacteristicTable:
    """The pointwise sum, over the lcm of the two denominators."""
    if table1.n_features != table2.n_features:
        raise ValueError("cannot add tables over different feature counts")
    den = math.lcm(table1.den, table2.den)
    k1, k2 = den // table1.den, den // table2.den
    nums = tuple(a * k1 + b * k2 for a, b in zip(table1.nums, table2.nums))
    return CharacteristicTable(CF_SUM, table1.n_features, nums, den)


def dual_id(cf_id: str) -> str:
    """Id of the mechanical dual: sufficiency indicators swap for their
    contrastive twins and back."""
    if cf_id not in _DUALS:
        raise ValueError(f"no dual defined for {cf_id}")
    return _DUALS[cf_id]


_BUILDERS = {
    CF_E: cf_expected,
    CF_M: cf_similarity,
    CF_A: cf_axp,
    CF_A_DUAL: cf_cxp,
    CF_W: cf_waxp,
    CF_W_DUAL: cf_wcxp,
    CF_G: cf_generator,
}


def build_table(cf_id: str, problem: ExplanationProblem) -> CharacteristicTable:
    try:
        builder = _BUILDERS[cf_id]
    except KeyError:
        raise ValueError(f"unknown characteristic function id {cf_id!r}") from None
    return builder(problem)


def delta_total(table: CharacteristicTable, subset) -> Fraction:
    """Sum of the per-feature influences over the subset's own features."""
    mask = as_mask(subset, table.n_features)
    nums = table.nums
    total = sum(nums[mask] - nums[mask & ~(1 << i)]
                for i in range(table.n_features) if mask >> i & 1)
    return Fraction(total, table.den)
