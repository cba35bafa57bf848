"""Memoized exact-rational characteristic-function tables over all subsets.

Every table holds 2^m Fraction values indexed by subset mask.  Values are
never forced: the empty set gets whatever the defining formula yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import explain
from .explain import ExplanationKind
from .model import ExplanationProblem, WeightedVotingGame, as_mask

CF_E = "CF_E"            # conditional expected value of the class label
CF_M = "CF_M"            # fraction of points keeping the prediction
CF_A = "CF_A"            # indicator of minimal sufficient subsets
CF_A_DUAL = "CF_A_DUAL"  # indicator of minimal contrastive subsets
CF_W = "CF_W"            # indicator of sufficient subsets
CF_W_DUAL = "CF_W_DUAL"  # indicator of contrastive subsets
CF_G = "CF_G"            # indicator of generators (every one-feature extension sufficient)
CF_WVG = "CF_WVG"        # indicator of winning coalitions
CF_SUM = "CF_SUM"

ZERO = Fraction(0)
ONE = Fraction(1)

# the indicator table of each explanation family.  A table's dual is the
# indicator of the dual family; CF_E and CF_M read no family and are their
# own duals.
_INDICATOR = {ExplanationKind.WAXP: CF_W, ExplanationKind.WCXP: CF_W_DUAL,
              ExplanationKind.AXP: CF_A, ExplanationKind.CXP: CF_A_DUAL}
_DUALS = {CF_E: CF_E, CF_M: CF_M}
_DUALS.update((cf_id, _INDICATOR[kind.dual]) for kind, cf_id in _INDICATOR.items())


@dataclass(frozen=True)
class CharacteristicTable:
    """One set function, fully materialized."""

    cf_id: str
    n_features: int
    values: tuple[Fraction, ...]
    problem: ExplanationProblem | None = None
    children: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.values) != 1 << self.n_features:
            raise ValueError(
                f"{len(self.values)} values for {self.n_features} features")

    def value(self, subset) -> Fraction:
        return self.values[as_mask(subset, self.n_features)]

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]

    @property
    def full_mask(self) -> int:
        return (1 << self.n_features) - 1

    def export(self) -> dict[int, str]:
        """Debug view: subset mask -> rational string."""
        return {mask: str(v) for mask, v in enumerate(self.values)}


def _cached(problem: ExplanationProblem, cf_id: str, build):
    key = ("cf", cf_id)
    if key not in problem._cache:
        problem._cache[key] = build()
    return problem._cache[key]


def cf_expected(problem: ExplanationProblem) -> CharacteristicTable:
    """Mean class label over the points that agree with the instance on S."""
    def build():
        labels = problem.classifier._labels
        values = []
        for mask in range(1 << problem.m):
            total = 0
            count = 0
            for rank in problem.select_ranks(mask):
                total += labels[rank]
                count += 1
            values.append(Fraction(total, count))
        return CharacteristicTable(CF_E, problem.m, tuple(values), problem)
    return _cached(problem, CF_E, build)


def cf_similarity(problem: ExplanationProblem) -> CharacteristicTable:
    """Fraction of agreeing points whose prediction matches the instance."""
    def build():
        labels = problem.classifier._labels
        c = problem.c
        values = []
        for mask in range(1 << problem.m):
            same = 0
            count = 0
            for rank in problem.select_ranks(mask):
                if labels[rank] == c:
                    same += 1
                count += 1
            values.append(Fraction(same, count))
        return CharacteristicTable(CF_M, problem.m, tuple(values), problem)
    return _cached(problem, CF_M, build)


def _indicator(problem, cf_id, accepted_masks) -> CharacteristicTable:
    accepted = set(accepted_masks)
    values = tuple(ONE if mask in accepted else ZERO
                   for mask in range(1 << problem.m))
    return CharacteristicTable(cf_id, problem.m, values, problem)


def _family_indicator(problem, kind) -> CharacteristicTable:
    cf_id = _INDICATOR[kind]
    return _cached(problem, cf_id, lambda: _indicator(
        problem, cf_id, explain.family(problem, kind).members))


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

    The full set qualifies vacuously.
    """
    def build():
        sufficient = set(explain.enumerate_waxps(problem).members)
        full = problem.full_mask
        accepted = []
        for mask in range(1 << problem.m):
            rest = full & ~mask
            ok = True
            i = 0
            while rest >> i:
                if rest >> i & 1 and (mask | 1 << i) not in sufficient:
                    ok = False
                    break
                i += 1
            if ok:
                accepted.append(mask)
        return _indicator(problem, CF_G, accepted)
    return _cached(problem, CF_G, build)


def cf_wvg(game: WeightedVotingGame) -> CharacteristicTable:
    """Indicator of winning coalitions; monotone by non-negative weights."""
    values = tuple(ONE if game.is_winning(mask) else ZERO
                   for mask in range(1 << game.m))
    return CharacteristicTable(CF_WVG, game.m, values)


def cf_sum(table1: CharacteristicTable, table2: CharacteristicTable) -> CharacteristicTable:
    if table1.n_features != table2.n_features:
        raise ValueError("cannot add tables over different feature counts")
    if table1.problem is not None and table2.problem is not None \
            and table1.problem != table2.problem:
        raise ValueError("cannot add tables built on different problems")
    values = tuple(a + b for a, b in zip(table1.values, table2.values))
    return CharacteristicTable(CF_SUM, table1.n_features, values,
                               table1.problem or table2.problem,
                               children=(table1.cf_id, table2.cf_id))


def dual_id(cf_id: str) -> str:
    """Id of the mechanical dual: sufficiency indicators swap for their
    contrastive twins and back."""
    if cf_id not in _DUALS:
        raise ValueError(f"no dual defined for {cf_id}")
    return _DUALS[cf_id]


def dual_table(table: CharacteristicTable) -> CharacteristicTable:
    """The dual table on the same problem (see dual_id)."""
    if table.problem is None:
        raise ValueError(f"no dual defined for {table.cf_id}")
    return build_table(dual_id(table.cf_id), table.problem)


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


def delta_i(table: CharacteristicTable, i: int, subset) -> Fraction:
    """Influence of feature i inside the subset: value drop when i leaves."""
    mask = as_mask(subset, table.n_features)
    bit = 1 << (i - 1)
    if not mask & bit:
        raise ValueError(f"feature {i} is not in the subset")
    return table.values[mask] - table.values[mask & ~bit]


def delta_total(table: CharacteristicTable, subset) -> Fraction:
    """Sum of the per-feature influences over the subset's own features."""
    mask = as_mask(subset, table.n_features)
    total = ZERO
    value = table.values[mask]
    i = 0
    while mask >> i:
        if mask >> i & 1:
            total += value - table.values[mask & ~(1 << i)]
        i += 1
    return total
