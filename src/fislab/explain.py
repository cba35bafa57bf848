"""Weak/minimal abductive and contrastive explanations, criticality, duality.

Every family reads the problem's one table of sufficient subsets
(ExplanationProblem._sufficient_flags): a subset is sufficient when every
point agreeing with the instance on it keeps the instance's class.  That
table is the problem's fold (model._fold_order) of its other-class flags
with OR, on every problem, and builds no integer agreement sums
(model.agreement_sums): the CF_E and CF_M tables read those.  A family is
held as a flag table, one byte per mask (see kernel.lacking_bit), and the
minimal families and the minimal hitting sets are whole-table shifts on it.
The predicates is_waxp and is_wcxp decide one subset by scanning its slice
of feature space; that scan is the ground truth the families are tested
against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import compress

from .kernel import FLIP_FLAGS, cached_value, lacking_bit, up_closure
from .model import ExplanationProblem, as_mask, features_of


class InvariantError(RuntimeError):
    """A result contradicts a theorem the library relies on: a bug, not bad input."""


class ExplanationKind(enum.Enum):
    """The explanation families; each value is the family's report name."""

    WAXP = "waxp"
    AXP = "axp"
    WCXP = "wcxp"
    CXP = "cxp"

    # members are singletons compared by identity, so the identity hash
    # (in C) serves the memo keys and _DUAL_KIND
    __hash__ = object.__hash__

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
    """All subsets of one explanation kind, held as their flag table: one
    byte per mask over the problem's 2^m masks, 1 for a member."""

    kind: ExplanationKind
    flags: bytes = field(repr=False)

    @cached_value
    def members(self) -> tuple[int, ...]:
        """The members sorted by (cardinality, mask), built on first read."""
        return members_of(self.flags)

    def containing(self, i: int) -> tuple[int, ...]:
        bit = 1 << (i - 1)
        return tuple(s for s in self.members if s & bit)

    def member_lists(self) -> list[list[int]]:
        """Serialized form: sorted list of sorted feature-index lists."""
        return [list(features_of(s)) for s in self.members]

    def __len__(self) -> int:
        return self.flags.count(1)

    def __contains__(self, mask) -> bool:
        return type(mask) is int and 0 <= mask < len(self.flags) and self.flags[mask] == 1


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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def members_of(flags: bytes) -> tuple[int, ...]:
    """The masks a flag table holds, sorted by (cardinality, mask): compress
    yields them in ascending order and the sort by cardinality is stable."""
    return tuple(sorted(compress(range(len(flags)), flags), key=int.bit_count))


def minimal_masks(flags: bytes) -> bytes:
    """The flag table of the minimal members of an up-closed family.

    In an up-closed family S is minimal iff it is a member and no S minus
    one element is.  Per bit b, shifting the members that lack b by one
    step of 8 << b puts each at its superset with b, so the or over the
    bits marks every mask with some member one element below it.
    """
    n = len(flags)
    table = int.from_bytes(flags, "little")
    below = 0
    for b, lacking in enumerate(lacking_bit(n)):
        below |= (table & lacking) << (8 << b)
    return (table & ~below).to_bytes(n, "little")


def family(problem: ExplanationProblem, kind: ExplanationKind) -> ExplanationFamily:
    """The problem's family of the given kind, memoized on the problem."""
    return problem._memo(("family", kind), lambda: _build_family(problem, kind))


def _build_family(problem, kind):
    flags = problem._sufficient_flags()
    if kind in (ExplanationKind.WCXP, ExplanationKind.CXP):
        # S is contrastive iff its complement, mask full ^ S = n - 1 - S,
        # is not sufficient
        flags = flags[::-1].translate(FLIP_FLAGS)
    if kind in (ExplanationKind.AXP, ExplanationKind.CXP):
        flags = minimal_masks(flags)
    return ExplanationFamily(kind, flags)


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
    so the sort; a universe that already is 0..k-1 (a full mask) is read
    as it is.  H misses a member T exactly when T lies inside the
    complement of H, that is when the complement is in the up-closure of
    the members.  Read big-endian, the closure holds the complement of H at
    index H; inverted, it flags the hitting sets.  Hitting every member is
    up-closed, so the minimal hitting sets are its minimal masks.
    """
    members = tuple(members)
    if not members:
        raise ValueError("hitting sets of an empty family are undefined")
    if any(t & ~universe_mask for t in members):
        raise ValueError("family member outside the universe")
    contiguous = universe_mask & (universe_mask + 1) == 0
    bits = list(_bits(universe_mask))
    if not contiguous:
        members = [sum(1 << j for j, bit in enumerate(bits) if t & bit) for t in members]
    n = 1 << len(bits)
    indicator = bytearray(n)
    for t in members:
        indicator[t] = 1
    missed = up_closure(int.from_bytes(indicator, "little"), lacking_bit(n))
    hits = members_of(minimal_masks(missed.to_bytes(n, "big").translate(FLIP_FLAGS)))
    if contiguous:
        return hits
    return tuple(sum(bit for j, bit in enumerate(bits) if s >> j & 1) for s in hits)


def relevant_features(problem: ExplanationProblem) -> int:
    """Mask of features occurring in at least one minimal abductive explanation.

    Cross-checked against the contrastive side, which must yield the same set.
    """
    def build():
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
        return via_a
    return problem._memo(("relevant",), build)


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
