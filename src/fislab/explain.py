"""Weak/minimal abductive and contrastive explanations, criticality, duality.

The families read the problem's agreement sums (model.AgreementSums): a
subset is sufficient when every point agreeing with the instance on it keeps
the instance's class.  The predicates is_waxp and is_wcxp decide one subset
by scanning its slice of feature space; that scan is the ground truth the
families are tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from operator import gt, or_

from .model import ExplanationProblem, as_mask, bit_slices, features_of, superset_sums


class InvariantError(RuntimeError):
    """A result contradicts a theorem the library relies on: a bug, not bad input."""


class ExplanationKind(enum.Enum):
    """The explanation families; each value is the family's report name."""

    WAXP = "waxp"
    AXP = "axp"
    WCXP = "wcxp"
    CXP = "cxp"

    @property
    def dual(self) -> "ExplanationKind":
        """The mechanical dual: sufficiency swapped for contrast, weak or
        minimal kept.  Every dual score and table derives from this map."""
        return _DUAL_KIND[self]


_DUAL_KIND = {ExplanationKind.WAXP: ExplanationKind.WCXP,
              ExplanationKind.WCXP: ExplanationKind.WAXP,
              ExplanationKind.AXP: ExplanationKind.CXP,
              ExplanationKind.CXP: ExplanationKind.AXP}


@dataclass(frozen=True)
class ExplanationFamily:
    """All subsets of one explanation kind, sorted by (cardinality, mask)."""

    kind: ExplanationKind
    members: tuple[int, ...]
    problem: ExplanationProblem

    def containing(self, i: int) -> tuple[int, ...]:
        bit = 1 << (i - 1)
        return tuple(s for s in self.members if s & bit)

    def member_lists(self) -> list[list[int]]:
        """Serialized form: sorted list of sorted feature-index lists."""
        return [list(features_of(s)) for s in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members


def is_waxp(problem: ExplanationProblem, subset) -> bool:
    """True iff fixing the subset to the instance values pins the prediction."""
    mask = as_mask(subset, problem.m)
    labels = problem.classifier._labels
    c = problem.c
    for rank in problem.select_ranks(mask):
        if labels[rank] != c:
            return False
    return True


def is_wcxp(problem: ExplanationProblem, subset) -> bool:
    """True iff freeing the subset (fixing its complement) can change the prediction."""
    mask = as_mask(subset, problem.m)
    labels = problem.classifier._labels
    c = problem.c
    for rank in problem.select_ranks(problem.full_mask & ~mask):
        if labels[rank] != c:
            return True
    return False


def _by_cardinality(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def minimal_masks(qualifies: list[bool]) -> tuple[int, ...]:
    """The minimal masks of an up-closed family given as one flag per mask,
    sorted by (cardinality, mask).

    In an up-closed family S is minimal iff it qualifies and no S minus one
    element does.  Per bit, below[S] of each mask S with the bit is or-ed
    with qualifies[S minus the bit], which leaves below[S] true iff some S
    minus one element qualifies.
    """
    n = len(qualifies)
    below = [False] * n
    for pairs in bit_slices(n):
        for with_bit, without in pairs:
            below[with_bit] = map(or_, below[with_bit], qualifies[without])
    # qualifies and not below: of two flags, only True > False holds
    members = compress(range(n), map(gt, qualifies, below))
    return tuple(sorted(members, key=_by_cardinality))


def family(problem: ExplanationProblem, kind: ExplanationKind) -> ExplanationFamily:
    """The problem's family of the given kind, memoized on the problem."""
    cache = problem._cache
    key = ("family", kind)
    if key not in cache:
        cache[key] = _build_family(problem, kind)
    return cache[key]


def _build_family(problem, kind):
    sums = problem.agreement_sums()
    sufficient = [same == count for same, count in zip(sums.same, sums.count)]
    if kind in (ExplanationKind.WAXP, ExplanationKind.AXP):
        qualifies = sufficient
    else:
        # S is contrastive iff its complement (mask full ^ S) is not sufficient
        qualifies = [not ok for ok in reversed(sufficient)]
    if kind in (ExplanationKind.AXP, ExplanationKind.CXP):
        members = minimal_masks(qualifies)
    else:
        members = tuple(sorted((s for s, ok in enumerate(qualifies) if ok),
                               key=_by_cardinality))
    return ExplanationFamily(kind, members, problem)


def enumerate_waxps(problem: ExplanationProblem) -> ExplanationFamily:
    return family(problem, ExplanationKind.WAXP)


def enumerate_wcxps(problem: ExplanationProblem) -> ExplanationFamily:
    return family(problem, ExplanationKind.WCXP)


def enumerate_axps(problem: ExplanationProblem) -> ExplanationFamily:
    """Subset-minimal weak abductive explanations."""
    return family(problem, ExplanationKind.AXP)


def enumerate_cxps(problem: ExplanationProblem) -> ExplanationFamily:
    """Subset-minimal weak contrastive explanations."""
    return family(problem, ExplanationKind.CXP)


def minimal_hitting_sets(members, universe_mask: int) -> tuple[int, ...]:
    """All subset-minimal H <= universe with H intersecting every member,
    sorted by (cardinality, mask).

    The universe's bits are renumbered 0..k-1, which keeps their order and
    so the sort.  H misses a member T exactly when T lies inside the
    complement of H, so one superset pass over the member indicator, each T
    put at its complement's index, counts at H the members H misses.
    Hitting every member is up-closed, so the hitting sets are the minimal
    masks among those that miss none.
    """
    members = tuple(members)
    if not members:
        raise ValueError("hitting sets of an empty family are undefined")
    if any(t & ~universe_mask for t in members):
        raise ValueError("family member outside the universe")
    bits = list(_bits(universe_mask))
    top = (1 << len(bits)) - 1
    missed = [0] * (top + 1)
    for t in members:
        missed[top ^ sum(1 << j for j, bit in enumerate(bits) if t & bit)] += 1
    superset_sums(missed)
    hits = minimal_masks([n == 0 for n in missed])
    return tuple(sum(bit for j, bit in enumerate(bits) if s >> j & 1)
                 for s in hits)


def relevant_features(problem: ExplanationProblem) -> int:
    """Mask of features occurring in at least one minimal abductive explanation.

    Cross-checked against the contrastive side, which must yield the same set.
    """
    key = ("relevant",)
    if key not in problem._cache:
        via_a = 0
        for s in enumerate_axps(problem).members:
            via_a |= s
        via_c = 0
        for s in enumerate_cxps(problem).members:
            via_c |= s
        if via_a != via_c:
            raise InvariantError(
                f"relevancy mismatch between explanation families: "
                f"{features_of(via_a)} vs {features_of(via_c)}")
        problem._cache[key] = via_a
    return problem._cache[key]


def is_critical(problem: ExplanationProblem, i: int, subset) -> bool:
    """Feature i turns the subset from non-sufficient to sufficient."""
    mask = as_mask(subset, problem.m)
    bit = 1 << (i - 1)
    if not mask & bit:
        raise ValueError(f"feature {i} is not in the subset")
    return is_waxp(problem, mask) and not is_waxp(problem, mask & ~bit)


def is_critical_dual(problem: ExplanationProblem, i: int, subset) -> bool:
    """Contrastive twin: i turns the subset from non-contrastive to contrastive."""
    mask = as_mask(subset, problem.m)
    bit = 1 << (i - 1)
    if not mask & bit:
        raise ValueError(f"feature {i} is not in the subset")
    return is_wcxp(problem, mask) and not is_wcxp(problem, mask & ~bit)
