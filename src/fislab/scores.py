"""Power-index template scores and their feature-importance instantiations.

A template score is a power-index formula abstracted over the characteristic
table it reads; an FIS pins the table (and, for the family-restricted
templates, the family of subsets summed over).  Duals are produced
mechanically: the family flips between sufficiency and contrastive kinds and
the table is replaced by its dual.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from . import charfun, explain
from .charfun import CharacteristicTable
from .explain import ExplanationKind
from .kernel import (CACHED_SELECTOR_BYTES, bit_counts, bit_slices, cached_value, lacking_bit,
                     size_classes, up_closure)
from .model import ExplanationProblem, WeightedVotingGame, as_mask


class TemplateId(enum.Enum):
    SHAPLEY_SHUBIK = "shapley_shubik"
    BANZHAF = "banzhaf"
    JOHNSTON = "johnston"
    DEEGAN_PACKEL = "deegan_packel"
    HOLLER_PACKEL = "holler_packel"
    RESPONSIBILITY = "responsibility"
    ANDJIGA = "andjiga"

    # members are singletons compared by identity, so the identity hash
    # (in C) serves every dict keyed by them
    __hash__ = object.__hash__


# template -> (canonical characteristic id, family summed over); a family of
# None means all 2^m subsets
TEMPLATE_DEFAULTS = {
    TemplateId.SHAPLEY_SHUBIK: (charfun.CF_W, None),
    TemplateId.BANZHAF: (charfun.CF_W, None),
    TemplateId.JOHNSTON: (charfun.CF_W, None),
    TemplateId.DEEGAN_PACKEL: (charfun.CF_A, ExplanationKind.AXP),
    TemplateId.HOLLER_PACKEL: (charfun.CF_A, ExplanationKind.AXP),
    TemplateId.RESPONSIBILITY: (charfun.CF_A, ExplanationKind.AXP),
    TemplateId.ANDJIGA: (charfun.CF_W, ExplanationKind.WAXP),
}


@dataclass(frozen=True)
class ScoreVector:
    """Per-feature exact rationals for one score on one problem: feature i
    scores nums[i - 1] / den.

    The pair is kept reduced (den >= 1 and gcd(den, *nums) == 1), so two
    vectors are equal exactly when their nums and den are equal.
    """

    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        nums, den = self.nums, self.den
        if den < 1:
            raise ValueError(f"denominator {den} is below 1")
        common = math.gcd(den, *nums)
        if common > 1:
            object.__setattr__(self, "nums", tuple([n // common for n in nums]))
            object.__setattr__(self, "den", den // common)
        elif type(nums) is not tuple:
            object.__setattr__(self, "nums", tuple(nums))

    @cached_value
    def values(self) -> tuple[Fraction, ...]:
        """The scores as Fractions, built on first use."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def score(self, i: int) -> Fraction:
        return Fraction(self.nums[i - 1], self.den)

    @property
    def m(self) -> int:
        return len(self.nums)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def as_strings(self) -> list[str]:
        """Each score as str(Fraction) writes it, without building one."""
        den = self.den
        out = []
        for n in self.nums:
            common = math.gcd(n, den)
            out.append(str(n // common) if common == den
                       else f"{n // common}/{den // common}")
        return out

    def ranking(self) -> tuple[int, ...]:
        """Dense ranks, 1 = largest value; ties share a rank.  The numerators
        share one positive denominator, so they rank as the values do."""
        nums = self.nums
        pos = {k: rank for rank, k in enumerate(sorted(set(nums), reverse=True), 1)}
        return tuple(map(pos.__getitem__, nums))


# ---------------------------------------------------------------------------
# template evaluation cores
#
# A table holds integer numerators over one common denominator, so every
# marginal gain is an integer.  The all-subset cores read the 2^m
# numerators through the slices of kernel.bit_slices, except that Banzhaf and
# Johnston on an indicator table count swings in its flag table; the family
# cores add one integer per feature of each member.  Each returns one
# integer numerator per feature over a common denominator; ScoreVector
# reduces the pair.

_Scores = tuple[list[int], int]  # (numerator per feature, common denominator)


def _score_all_subsets(template: TemplateId, table: CharacteristicTable) -> _Scores:
    m = table.n_features
    nums, den = table.nums, table.den
    if type(nums) is bytes and template is not TemplateId.SHAPLEY_SHUBIK:
        if template is TemplateId.JOHNSTON:
            return _johnston_flags(nums)
        return _banzhaf_flags(nums)
    if template is TemplateId.JOHNSTON:
        return _johnston(nums)
    # feature i's weighted gains: the sum over S containing i of
    # w(|S|) * v(S), less the sum over T without i of w(|T| + 1) * v(T).
    # The masks without i are all masks less those with it, so this is the
    # sum over S containing i of (w(|S|) + w(|S| + 1)) * v(S), less the sum
    # over every T of w(|T| + 1) * v(T).
    if template is TemplateId.BANZHAF:  # every weight 1/2^(m-1)
        joined, left = [2 * v for v in nums], sum(nums)
        scale = den << (m - 1)
    else:
        joined_weight, left_weight = _shapley_weights(m)
        joined = list(map(mul, joined_weight, nums))
        left = sum(map(mul, left_weight, nums))
        scale = math.factorial(m) * den
    return ([sum(sum(joined[with_bit]) for with_bit, _ in pairs) - left
             for pairs in bit_slices(len(nums))], scale)


def _shapley_weights(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per mask S, the Shapley weights w(|S|) + w(|S| + 1) and w(|S| + 1)
    over m!, where w(k) = (k-1)!(m-k)! weighs a gain that completes a
    coalition of size k (and w(0) = w(m + 1) = 0).  Kept per m while 8
    bytes a mask fit in CACHED_SELECTOR_BYTES, like kernel._selectors; built
    per call above it."""
    if 8 << m > CACHED_SELECTOR_BYTES:
        return _build_shapley_weights(m)
    return _kept_shapley_weights(m)


def _build_shapley_weights(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_shapley_weights, each mask's read from its bit count (a byte) among
    the m + 1 distinct weights of each kind."""
    weight = [0] + [math.factorial(k - 1) * math.factorial(m - k)
                    for k in range(1, m + 1)] + [0]
    sizes = bit_counts(1 << m)
    left = weight[1:]
    joined = list(map(add, weight, left))
    return tuple(map(joined.__getitem__, sizes)), tuple(map(left.__getitem__, sizes))


_kept_shapley_weights = functools.cache(_build_shapley_weights)


def _johnston(nums: tuple[int, ...]) -> _Scores:
    """Each coalition S with a nonzero gain total t(S) splits one unit among
    its features in proportion to their gains; the common denominator
    cancels.  Over the lcm of the nonzero totals, multiple, feature i's
    share of S is gain_i(S) * (multiple // t(S)), so each feature sums one
    integer dot product of its gains with those quotients."""
    n = len(nums)
    total = [0] * n
    for pairs in bit_slices(n):
        for with_bit, without in pairs:
            total[with_bit] = map(add, total[with_bit],
                                  map(sub, nums[with_bit], nums[without]))
    distinct = set(total)
    distinct.discard(0)
    multiple = math.lcm(*distinct)
    quotient = {t: multiple // t for t in distinct}
    quotient[0] = 0
    share = list(map(quotient.__getitem__, total))
    return ([sum(sum(map(mul, map(sub, nums[with_bit], nums[without]),
                         share[with_bit]))
                 for with_bit, without in pairs)
             for pairs in bit_slices(n)], multiple)


# The flag cores read an indicator's flag table as one int V, mask S at bit
# 8*S (see kernel.lacking_bit).  With L_i = V & lacking_i, the flags of the
# masks without feature i, V ^ L_i flags v(S) at the masks S with i and
# L_i << (8 << i) moves v(S - i) onto the same masks, so feature i's gain at
# S is the first flag less the second.

def _flag_gains(values: int, lacking, parts) -> list[int]:
    """Per feature i, the sum over the (weight, part) pairs of parts of
    weight times i's gains on the masks flagged in part: a popcount of
    part & (V ^ L_i) less one of part & (L_i << (8 << i)).  lacking is
    lacking_bit(n) of the table's n masks."""
    nums = []
    for b, without in enumerate(lacking):
        low = values & without
        gained, lost = values ^ low, low << (8 << b)
        nums.append(sum(weight * ((part & gained).bit_count() - (part & lost).bit_count())
                        for weight, part in parts))
    return nums


def _banzhaf_flags(flags: bytes) -> _Scores:
    """Feature i's gains sum to the members with i less the members without
    it: popcount(V) - 2 * popcount(L_i), over 2^(m-1)."""
    n = len(flags)
    table = int.from_bytes(flags, "little")
    members = table.bit_count()
    return ([members - 2 * (table & lacking).bit_count() for lacking in lacking_bit(n)],
            n >> 1)


def _johnston_flags(flags: bytes) -> _Scores:
    """_johnston on a flag table, where every gain is -1, 0 or 1.

    Adding each feature's gains to m in every byte field gives each mask's
    gain total t(S) + m, one byte per mask: the running field stays within
    0..2m (m is at most 20), so no field borrows from or carries into the
    next.  One
    bytes.translate per nonzero total flags the masks that have it, and
    feature i's numerator over the lcm of the totals, multiple, is the sum
    over them of (multiple // t) times its gains on those masks, counted by
    popcount (_flag_gains).  The gains are built again in that second pass
    rather than kept, m pairs of 2^m-byte ints.
    """
    n = len(flags)
    m = n.bit_length() - 1
    table = int.from_bytes(flags, "little")
    lacking = tuple(lacking_bit(n))  # read twice
    biased = int.from_bytes(bytes((m,)) * n, "little")
    for b, without in enumerate(lacking):
        low = table & without
        biased = biased + (table ^ low) - (low << (8 << b))
    totals = biased.to_bytes(n, "little")
    del biased
    codes = set(totals)
    codes.discard(m)  # a total of 0 shares nothing out
    multiple = math.lcm(*(code - m for code in codes))
    by_total = [(multiple // (code - m), int.from_bytes(
                    totals.translate(bytes(code) + b"\x01" + bytes(255 - code)), "little"))
                for code in codes]
    del totals
    return _flag_gains(table, lacking, by_total), multiple


def _family_flags(template: TemplateId, table: bytes, family: bytes) -> _Scores:
    """Deegan-Packel, Holler-Packel and Andjiga from flag tables: the
    indicator's, V, and the family's, F.

    Feature i's gains at the masks with i are V ^ L_i less L_i << (8 << i),
    as in the all-subset flag cores, so its gains over the members of one
    size k are popcounts of their and with F_k, the members with k bits
    (_flag_gains).  The size weight lcm(1..m) // k of Deegan-Packel and
    Andjiga multiplies each size's count; Holler-Packel weighs every member
    1 and reads F whole.  The empty mask lies in no F_k and has no gains, so it only
    counts toward the family size.  The pair is _score_family's, unreduced.
    """
    n = len(family)
    m = n.bit_length() - 1
    members = int.from_bytes(family, "little")
    count = members.bit_count()
    if not count:
        return [0] * m, 1
    if template is TemplateId.HOLLER_PACKEL:
        multiple, by_size = 1, [(1, members)]
    else:
        multiple = math.lcm(*range(1, m + 1))
        by_size = []
        for k, sized in enumerate(size_classes(n), 1):
            part = members & sized
            if part:
                by_size.append((multiple // k, part))
    return (_flag_gains(int.from_bytes(table, "little"), lacking_bit(n), by_size),
            multiple * count)


def _dense(count: int, m: int) -> bool:
    """Whether a family of count members over m features is dense enough
    for _family_flags to beat the member walk: more than 4m members, and
    more than 2m(1 + 2^m / 256).  The walk costs about m / 2 steps per
    member, the flag core m passes over the 2^m-byte tables per size
    whatever the count; below 4m members its fixed cost loses on small m."""
    return count * 128 > m * max((1 << m) + 256, 512)


def _score_family(template: TemplateId, table: CharacteristicTable,
                  family: explain.ExplanationFamily, normalized: bool = False) -> _Scores:
    """Family-restricted templates: read from the two flag tables when the
    table is an indicator and the family dense (_family_flags), else walked."""
    m = table.n_features
    if (type(table.nums) is bytes and template is not TemplateId.RESPONSIBILITY
            and _dense(len(family), m)):
        return _family_flags(template, table.nums, family.flags)
    return _family_walk(template, table, family.members, m, normalized)


def _family_walk(template: TemplateId, table: CharacteristicTable | None,
                 members, m: int, normalized: bool = False) -> _Scores:
    """_score_family over the given members; a missing table means unit influence.

    With an indicator table whose members all score 1 and whose immediate
    subsets score 0 (the minimal-explanation indicators), the two readings
    coincide.  Each member walks its own set bits and adds one integer per
    feature; the empty member only counts toward the family size.
    """
    members = tuple(members)
    count = len(members)
    if not count:
        return [0] * m, 1
    nums, den = (None, 1) if table is None else (table.nums, table.den)
    if template is TemplateId.RESPONSIBILITY:
        # the largest gain / size, compared by cross-multiplication
        best_gain, best_size = [0] * m, [0] * m  # size 0: no member yet
        for s in members:
            size = s.bit_count()
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                gain = 1 if nums is None else nums[s] - nums[s ^ low]
                i = low.bit_length() - 1
                if not best_size[i] or gain * best_size[i] > best_gain[i] * size:
                    best_gain[i], best_size[i] = gain, size
        # over the lcm of the sizes that occur; a feature in no member
        # (size 0) scores 0 and must not enter the lcm
        multiple = math.lcm(*{size for size in best_size if size})
        scale = den * count if normalized else den
        return ([g * (multiple // size) if size else 0
                 for g, size in zip(best_gain, best_size)], multiple * scale)
    # Deegan-Packel and Andjiga: gain / (size * count), over the common size
    # multiple lcm(1..m); Holler-Packel: gain / count
    if template is TemplateId.HOLLER_PACKEL:
        multiple, per_size = 1, [1] * (m + 1)
    else:
        multiple = math.lcm(*range(1, m + 1))
        per_size = [0] + [multiple // k for k in range(1, m + 1)]
    acc = [0] * m
    for s in members:
        weight = per_size[s.bit_count()]
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            gain = 1 if nums is None else nums[s] - nums[s ^ low]
            acc[low.bit_length() - 1] += weight * gain
    return acc, multiple * count * den


def _refuse_normalized(template_id: TemplateId, normalized: bool) -> None:
    if normalized and template_id is not TemplateId.RESPONSIBILITY:
        raise ValueError(f"{template_id.value} has no normalized form; "
                         f"only responsibility has")


def template_score(template_id: TemplateId, problem: ExplanationProblem,
                   table: CharacteristicTable,
                   family_mode: ExplanationKind | None = None,
                   normalized: bool = False) -> ScoreVector:
    """Evaluate one template on a problem with the given characteristic table.

    family_mode overrides the explanation family a family template sums
    over; the all-subset templates take none.  normalized divides
    responsibility by the family size; no other template takes it.  The
    template reads only the table's numbers and the problem's family, so any
    table over the problem's feature count is accepted, whoever built it.
    """
    _refuse_normalized(template_id, normalized)
    if table.n_features != problem.m:
        raise ValueError("table size does not match the problem")
    default = TEMPLATE_DEFAULTS[template_id][1]
    if default is None:
        if family_mode is not None:
            raise ValueError(f"{template_id.value} sums over all subsets, "
                             f"not over a family")
        nums, den = _score_all_subsets(template_id, table)
    else:
        nums, den = _score_family(template_id, table, explain.family(
            problem, family_mode or default), normalized)
    return ScoreVector(nums, den)


def family_score(template_id: TemplateId, members, n_features: int,
                 normalized: bool = False) -> ScoreVector:
    """Score an explicitly injected family of subsets (unit influence).

    members may be masks or iterables of 1-based feature indices;
    normalized applies to responsibility only, as in template_score.
    """
    masks = [as_mask(s, n_features) for s in members]
    if template_id in (TemplateId.SHAPLEY_SHUBIK, TemplateId.BANZHAF,
                       TemplateId.JOHNSTON):
        raise ValueError(f"{template_id.value} needs a characteristic table, "
                         f"not a bare family")
    _refuse_normalized(template_id, normalized)
    return ScoreVector(*_family_walk(template_id, None, masks, n_features, normalized))


# ---------------------------------------------------------------------------
# instantiated feature-importance scores

FIS_IDS = ("E", "M", "S", "B", "J", "D", "H", "R", "R_NORM", "A", "C", "V")

FIS_NAMES = {
    "E": "expected_value",
    "M": "similarity",
    "S": "shapley_shubik",
    "B": "banzhaf",
    "J": "johnston",
    "D": "deegan_packel",
    "H": "holler_packel",
    "R": "responsibility",
    "R_NORM": "responsibility_normalized",
    "A": "andjiga",
    "C": "contrastive_responsibility",
    "V": "coverage",
}

# fis id -> (template, characteristic id, family, normalized)
_FIS_RECIPES = {
    "E": (TemplateId.SHAPLEY_SHUBIK, charfun.CF_E, None, False),
    "M": (TemplateId.SHAPLEY_SHUBIK, charfun.CF_M, None, False),
    "S": (TemplateId.SHAPLEY_SHUBIK, charfun.CF_W, None, False),
    "B": (TemplateId.BANZHAF, charfun.CF_W, None, False),
    "J": (TemplateId.JOHNSTON, charfun.CF_W, None, False),
    "D": (TemplateId.DEEGAN_PACKEL, charfun.CF_A, ExplanationKind.AXP, False),
    "H": (TemplateId.HOLLER_PACKEL, charfun.CF_A, ExplanationKind.AXP, False),
    "R": (TemplateId.RESPONSIBILITY, charfun.CF_A, ExplanationKind.AXP, False),
    "R_NORM": (TemplateId.RESPONSIBILITY, charfun.CF_A, ExplanationKind.AXP, True),
    "A": (TemplateId.ANDJIGA, charfun.CF_W, ExplanationKind.WAXP, False),
    # already the contrastive twin of R: max influence/size over minimal
    # contrastive subsets, read from the contrastive indicator
    "C": (TemplateId.RESPONSIBILITY, charfun.CF_W_DUAL, ExplanationKind.CXP, False),
}


def parse_fis_id(text: str) -> tuple[str, bool]:
    """Accepts "D" or "DUAL(D)"; returns (fis id, dual flag)."""
    text = text.strip()
    if text.upper().startswith("DUAL(") and text.endswith(")"):
        inner = text[5:-1].strip()
        return _normalize_fis(inner), True
    return _normalize_fis(text), False


def _normalize_fis(text: str) -> str:
    upper = text.upper()
    if upper in FIS_IDS:
        return upper
    for fid, name in FIS_NAMES.items():
        if text.lower() == name:
            return fid
    raise ValueError(f"unknown score id {text!r}")


def compute_fis(fis_id: str, problem: ExplanationProblem, dual: bool = False) -> ScoreVector:
    """One named feature-importance score, primal or mechanically dualized,
    kept on the problem.

    The template's vector is kept too, keyed by its inputs (template,
    table id and family kind), so scores with the same inputs share one
    pass: DUAL(E) and DUAL(M) are E's and M's vectors, as CF_E and CF_M are
    their own duals, and R_NORM and DUAL(R_NORM) are R's and DUAL(R)'s over
    the family size.
    """
    # the memo inline: an audit reads each vector many times
    key, cache = ("fis", fis_id, dual), problem._cache
    if key not in cache:
        if fis_id not in FIS_IDS:
            raise ValueError(f"unknown score id {fis_id!r}")
        cache[key] = _fis_vector(fis_id, problem, dual)
    return cache[key]


def _fis_vector(fis_id: str, problem: ExplanationProblem, dual: bool) -> ScoreVector:
    if fis_id == "V":
        return coverage_score(problem, contrastive=dual)
    template, cf_id, family, normalized = _FIS_RECIPES[fis_id]
    if dual:
        cf_id = charfun.dual_id(cf_id)
        family = family.dual if family else None
    # the template's vector, shared by every score with these inputs
    vec = problem._memo(("template", template, cf_id, family), lambda: template_score(
        template, problem, charfun.build_table(cf_id, problem), family))
    if normalized:  # over the family size; an empty family scores 0 over 1
        return ScoreVector(vec.nums, vec.den * (len(explain.family(problem, family)) or 1))
    return vec


# ---------------------------------------------------------------------------
# coverage

def _minimal_family(problem: ExplanationProblem, contrastive: bool):
    return explain.enumerate_cxps(problem) if contrastive else explain.enumerate_axps(problem)


def coverage_set(problem: ExplanationProblem, i: int, contrastive: bool = False) -> tuple:
    """Points lying in the cube of some minimal explanation containing i."""
    ranks: set[int] = set()
    for s in _minimal_family(problem, contrastive).containing(i):
        ranks.update(problem.select_ranks(s))
    all_points = list(problem.classifier.points())
    return tuple(all_points[r] for r in sorted(ranks))


def coverage_score(problem: ExplanationProblem, contrastive: bool = False) -> ScoreVector:
    """Covered fraction of feature space per feature.

    A point that agrees with the instance on exactly the mask A lies in the
    cube of each minimal explanation S inside A, so it is covered for
    feature i iff A is in the up-closure of the members containing i.  The
    mask A holds prod over j not in A of (|D_j| - 1) points, so feature i
    counts, per group of masks with one such count (charfun.exact_groups),
    the count times the popcount of the group's covered masks.
    """
    family = _minimal_family(problem, contrastive)
    n = len(family.flags)
    members = int.from_bytes(family.flags, "little")
    groups = charfun.domain_weights(problem, charfun.exact_groups)
    counts = []
    lacking = tuple(lacking_bit(n))  # read once per feature and in each closure
    for without in lacking:
        covered = up_closure(members & ~without, lacking)
        counts.append(sum(k * (covered & flags).bit_count() for k, flags in groups))
    return ScoreVector(counts, problem.classifier.space_size)


# ---------------------------------------------------------------------------
# independent oracle and voting games

def shapley_permutation_oracle(problem: ExplanationProblem | None,
                               table: CharacteristicTable) -> ScoreVector:
    """Average marginal contribution over all feature orderings.

    Deliberately shares nothing with the subset-sum formula; capped at 8
    features (8! orderings).
    """
    m = table.n_features
    if problem is not None and problem.m != m:
        raise ValueError("table size does not match the problem")
    if m > 8:
        raise ValueError(f"permutation oracle capped at 8 features, got {m}")
    nums = table.nums
    totals = [0] * m
    for order in itertools.permutations(range(m)):
        mask = 0
        for i in order:
            grown = mask | 1 << i
            totals[i] += nums[grown] - nums[mask]
            mask = grown
    return ScoreVector(totals, math.factorial(m) * table.den)


def winning_coalitions(game: WeightedVotingGame) -> tuple[int, ...]:
    return explain.members_of(game.winning_flags())


def minimal_winning_coalitions(game: WeightedVotingGame) -> tuple[int, ...]:
    return explain.members_of(explain.minimal_masks(game.winning_flags()))


def wvg_power_index(game: WeightedVotingGame, template_id: TemplateId,
                    normalized: bool = False) -> ScoreVector:
    """Classical power indices: the templates read the winning-coalition
    indicator, with minimal winning coalitions standing in for the minimal
    sufficient subsets.  normalized applies to responsibility only."""
    _refuse_normalized(template_id, normalized)
    table = charfun.cf_wvg(game)
    kind = TEMPLATE_DEFAULTS[template_id][1]
    if kind is None:
        nums, den = _score_all_subsets(template_id, table)
    else:
        # the table's numerators are the winning coalitions' flags
        flags = table.nums
        if kind is ExplanationKind.AXP:
            flags = explain.minimal_masks(flags)
        nums, den = _score_family(template_id, table, explain.ExplanationFamily(kind, flags),
                                  normalized)
    return ScoreVector(nums, den)
