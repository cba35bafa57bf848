"""Weak/minimal abductive and contrastive explanations, criticality, duality.

All predicates decide by exhaustive enumeration of the relevant slice of
feature space; at desk scale the scan is the ground truth everything else is
tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import ExplanationProblem, as_mask, features_of


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
        return mask in set(self.members)


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


def _masks_by_cardinality(m: int) -> list[int]:
    return sorted(range(1 << m), key=lambda s: (s.bit_count(), s))


def family(problem: ExplanationProblem, kind: ExplanationKind) -> ExplanationFamily:
    """The problem's family of the given kind, memoized on the problem."""
    cache = problem._cache
    key = ("family", kind)
    if key not in cache:
        cache[key] = _build_family(problem, kind)
    return cache[key]


def _build_family(problem, kind):
    predicate = is_waxp if kind in (ExplanationKind.WAXP, ExplanationKind.AXP) else is_wcxp
    members = []
    if kind in (ExplanationKind.WAXP, ExplanationKind.WCXP):
        members = [s for s in _masks_by_cardinality(problem.m) if predicate(problem, s)]
    else:
        # increasing cardinality; anything containing an accepted member is
        # a weak explanation but not minimal
        for s in _masks_by_cardinality(problem.m):
            if any(t & ~s == 0 for t in members):
                continue
            if predicate(problem, s):
                members.append(s)
    return ExplanationFamily(kind, tuple(members), problem)


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
    """All subset-minimal H <= universe with H intersecting every member.

    Brute force over the subset lattice in increasing cardinality.
    """
    members = tuple(members)
    if not members:
        raise ValueError("hitting sets of an empty family are undefined")
    if any(t & ~universe_mask for t in members):
        raise ValueError("family member outside the universe")
    hits = []
    m = universe_mask.bit_count()
    universe_bits = [1 << i for i in range(universe_mask.bit_length())
                     if universe_mask >> i & 1]
    for s in _masks_by_cardinality(m):
        h = 0
        rest = s
        for bit in universe_bits:
            if rest & 1:
                h |= bit
            rest >>= 1
        if any(t & ~h == 0 for t in hits):
            continue
        if all(h & t for t in members):
            hits.append(h)
    return tuple(sorted(hits, key=lambda x: (x.bit_count(), x)))


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
            raise AssertionError(
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
