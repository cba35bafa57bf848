"""Power-index template scores and their feature-importance instantiations.

A template score is a power-index formula abstracted over the characteristic
table it reads; an FIS pins the table (and, for the family-restricted
templates, the family of subsets summed over).  Duals are produced
mechanically: the family flips between sufficiency and contrastive kinds and
the table is replaced by its dual.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import charfun, explain
from .charfun import CharacteristicTable, ZERO
from .explain import ExplanationKind
from .model import ExplanationProblem, WeightedVotingGame


class TemplateId(enum.Enum):
    SHAPLEY_SHUBIK = "shapley_shubik"
    BANZHAF = "banzhaf"
    JOHNSTON = "johnston"
    DEEGAN_PACKEL = "deegan_packel"
    HOLLER_PACKEL = "holler_packel"
    RESPONSIBILITY = "responsibility"
    ANDJIGA = "andjiga"


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


def coefficient_sigma(n_features: int, set_size: int) -> Fraction:
    """Shapley ordering weight 1 / (m * C(m-1, k-1)); symmetric in k and m-k+1."""
    if not 1 <= set_size <= n_features:
        raise ValueError(f"set size {set_size} outside 1..{n_features}")
    return Fraction(1, n_features * math.comb(n_features - 1, set_size - 1))


@dataclass(frozen=True)
class ScoreVector:
    """Per-feature exact rationals for one score on one problem."""

    values: tuple[Fraction, ...]
    label: str
    cf_id: str | None = None
    problem: ExplanationProblem | None = None

    def score(self, i: int) -> Fraction:
        return self.values[i - 1]

    @property
    def m(self) -> int:
        return len(self.values)

    def total(self) -> Fraction:
        return sum(self.values, ZERO)

    def as_strings(self) -> list[str]:
        return [str(v) for v in self.values]

    def ranking(self) -> tuple[int, ...]:
        """Dense ranks, 1 = largest value; ties share a rank."""
        distinct = sorted(set(self.values), reverse=True)
        pos = {v: k + 1 for k, v in enumerate(distinct)}
        return tuple(pos[v] for v in self.values)

    def __add__(self, other: "ScoreVector") -> "ScoreVector":
        if self.m != other.m:
            raise ValueError("score vectors of different lengths")
        return ScoreVector(tuple(a + b for a, b in zip(self.values, other.values)),
                           f"{self.label}+{other.label}")


# ---------------------------------------------------------------------------
# template evaluation cores

def _score_all_subsets(template: TemplateId, table: CharacteristicTable) -> tuple[Fraction, ...]:
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


def _score_family(template: TemplateId, table: CharacteristicTable | None,
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


def template_score(template_id: TemplateId, problem: ExplanationProblem,
                   table: CharacteristicTable,
                   family_mode: ExplanationKind | None = None,
                   normalized: bool = False) -> ScoreVector:
    """Evaluate one template on a problem with the given characteristic table.

    family_mode overrides the explanation family a family template sums
    over; the all-subset templates take none.
    """
    if table.problem is not None and table.problem != problem:
        raise ValueError("table was built on a different problem")
    if table.n_features != problem.m:
        raise ValueError("table size does not match the problem")
    default = TEMPLATE_DEFAULTS[template_id][1]
    if default is None:
        if family_mode is not None:
            raise ValueError(f"{template_id.value} sums over all subsets, "
                             f"not over a family")
        values = _score_all_subsets(template_id, table)
    else:
        members = explain.family(problem, family_mode or default).members
        values = _score_family(template_id, table, members, problem.m, normalized)
    name = template_id.value + ("_normalized" if normalized else "")
    return ScoreVector(values, name, table.cf_id, problem)


def family_score(template_id: TemplateId, members, n_features: int,
                 normalized: bool = False) -> ScoreVector:
    """Score an explicitly injected family of subsets (unit influence).

    members may be masks or iterables of 1-based feature indices.
    """
    masks = []
    for s in members:
        if isinstance(s, int):
            masks.append(s)
        else:
            mask = 0
            for i in s:
                mask |= 1 << (i - 1)
            masks.append(mask)
    if template_id in (TemplateId.SHAPLEY_SHUBIK, TemplateId.BANZHAF,
                       TemplateId.JOHNSTON):
        raise ValueError(f"{template_id.value} needs a characteristic table, "
                         f"not a bare family")
    values = _score_family(template_id, None, masks, n_features, normalized)
    name = template_id.value + ("_normalized" if normalized else "")
    return ScoreVector(values, name)


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
    """One named feature-importance score, primal or mechanically dualized."""
    if fis_id not in FIS_IDS:
        raise ValueError(f"unknown score id {fis_id!r}")
    label = f"DUAL({fis_id})" if dual else fis_id
    if fis_id == "V":
        vec = coverage_score(problem, contrastive=dual)
        return ScoreVector(vec.values, label, None, problem)
    template, cf_id, family, normalized = _FIS_RECIPES[fis_id]
    if dual:
        cf_id = charfun.dual_id(cf_id)
        family = family.dual if family else None
    table = charfun.build_table(cf_id, problem)
    vec = template_score(template, problem, table, family, normalized)
    return ScoreVector(vec.values, label, cf_id, problem)


# ---------------------------------------------------------------------------
# coverage

def _coverage_ranks(problem: ExplanationProblem, i: int, contrastive: bool) -> set[int]:
    fam = explain.enumerate_cxps(problem) if contrastive else explain.enumerate_axps(problem)
    covered: set[int] = set()
    for s in fam.containing(i):
        covered.update(problem.select_ranks(s))
    return covered


def coverage_set(problem: ExplanationProblem, i: int, contrastive: bool = False) -> tuple:
    """Points lying in the cube of some minimal explanation containing i."""
    ranks = sorted(_coverage_ranks(problem, i, contrastive))
    all_points = list(problem.classifier.points())
    return tuple(all_points[r] for r in ranks)


def coverage_score(problem: ExplanationProblem, contrastive: bool = False) -> ScoreVector:
    """Covered fraction of feature space per feature."""
    size = problem.classifier.space_size
    values = tuple(Fraction(len(_coverage_ranks(problem, i, contrastive)), size)
                   for i in range(1, problem.m + 1))
    return ScoreVector(values, "coverage", None, problem)


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
    totals = [ZERO] * m
    for order in itertools.permutations(range(m)):
        mask = 0
        for i in order:
            grown = mask | 1 << i
            gain = table.values[grown] - table.values[mask]
            if gain != 0:
                totals[i] += gain
            mask = grown
    count = math.factorial(m)
    return ScoreVector(tuple(t / count for t in totals),
                       "shapley_permutation_oracle", table.cf_id, problem)


def winning_coalitions(game: WeightedVotingGame) -> tuple[int, ...]:
    masks = [s for s in range(1 << game.m) if game.is_winning(s)]
    return tuple(sorted(masks, key=lambda s: (s.bit_count(), s)))


def minimal_winning_coalitions(game: WeightedVotingGame) -> tuple[int, ...]:
    minimal = []
    for s in winning_coalitions(game):
        if not any(t & ~s == 0 for t in minimal):
            minimal.append(s)
    return tuple(minimal)


def wvg_power_index(game: WeightedVotingGame, template_id: TemplateId,
                    normalized: bool = False) -> ScoreVector:
    """Classical power indices: the templates read the winning-coalition
    indicator, with minimal winning coalitions standing in for the minimal
    sufficient subsets."""
    table = charfun.cf_wvg(game)
    family = TEMPLATE_DEFAULTS[template_id][1]
    if family is None:
        values = _score_all_subsets(template_id, table)
    else:
        if family is ExplanationKind.AXP:
            members = minimal_winning_coalitions(game)
        else:
            members = winning_coalitions(game)
        values = _score_family(template_id, table, members, game.m, normalized)
    name = template_id.value + ("_normalized" if normalized else "")
    return ScoreVector(values, name, charfun.CF_WVG)

