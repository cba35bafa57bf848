"""Audits template scores and FISs against the nine-property catalog.

Universal properties can only be refuted here, never proved: a "holds"
verdict means "no violation found on this data" and the matrix marks it
with a trailing asterisk.  Every failing verdict carries a witness whose
re-evaluation reproduces the violation.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from . import charfun, explain, scores
from .charfun import CharacteristicTable
from .explain import ExplanationKind
from .model import (Classifier, ExplanationProblem, FeatureDomain, Instance,
                    TableBody, features_of, max_feature_limit, relabel_classes)
from .scores import ScoreVector, TemplateId

PROPERTY_IDS = ("P01", "P02", "P03", "P04", "P05", "P06", "P07", "P08", "P09")

AUDITED_FIS = ("S", "B", "D", "H", "R", "R_NORM", "J", "A", "C", "V")


@dataclass(frozen=True)
class Witness:
    """Reproducible counterexample: the problem plus replay parameters."""

    problem: ExplanationProblem | None
    data: dict


@dataclass(frozen=True)
class PropertyVerdict:
    property_id: str
    subject: str
    holds: bool
    witness: Witness | None = None
    note: str = ""

    @property
    def verdict(self) -> str:
        return "holds-on-instance" if self.holds else "fails-with-witness"


class DualityLevel(enum.Enum):
    STRONG = "strong"
    EQUIVALENT = "equivalent"
    WEAK = "weak"
    NONE = "none"


@dataclass(frozen=True)
class DualityVerdict:
    """Instance-level comparison of a score with its mechanical dual."""

    fis_id: str
    problem: ExplanationProblem
    primal: ScoreVector
    dual: ScoreVector
    strong: bool
    equivalent: bool
    weak: bool
    alpha: Fraction | None

    @property
    def level(self) -> DualityLevel:
        if self.strong:
            return DualityLevel.STRONG
        if self.equivalent:
            return DualityLevel.EQUIVALENT
        if self.weak:
            return DualityLevel.WEAK
        return DualityLevel.NONE


# ---------------------------------------------------------------------------
# table-level structure helpers

def _submasks(rest: int) -> Iterator[int]:
    s = rest
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & rest


def symmetric_pairs(table: CharacteristicTable) -> list[tuple[int, int]]:
    """Pairs (i, j) interchangeable under the table on all avoiding subsets."""
    m = table.n_features
    full = table.full_mask
    nums = table.nums
    pairs = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            rest = full & ~bi & ~bj
            if all(nums[s | bi] == nums[s | bj] for s in _submasks(rest)):
                pairs.append((i, j))
    return pairs


def dummy_features(table: CharacteristicTable) -> list[int]:
    """Features whose presence never changes the table value."""
    m = table.n_features
    full = table.full_mask
    nums = table.nums
    out = []
    for i in range(1, m + 1):
        bit = 1 << (i - 1)
        rest = full & ~bit
        if all(nums[s] == nums[s | bit] for s in _submasks(rest)):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# P01..P04 act on a template/table pair

_ALL_SUBSETS = "all_subsets"  # witness family_mode of the all-subset templates


def _subject(template_id: TemplateId, table: CharacteristicTable) -> str:
    return f"{template_id.value}[{table.cf_id}]"


def _template_failure(property_id: str, subject: str, problem, template_id,
                      family_mode, **found) -> PropertyVerdict:
    """Failing verdict whose witness stores the template replay parameters;
    its "normalized" key is a constant False that keeps the report format."""
    family = family_mode or scores.TEMPLATE_DEFAULTS[template_id][1]
    witness = Witness(problem, {
        "property": property_id, "template": template_id.value,
        "family_mode": family.value if family else _ALL_SUBSETS,
        "normalized": False, **found})
    return PropertyVerdict(property_id, subject, False, witness)


def _fis_failure(property_id: str, fis_id: str, problem, **found) -> PropertyVerdict:
    """Failing verdict whose witness names the property and the score."""
    witness = Witness(problem, {"property": property_id, "fis": fis_id, **found})
    return PropertyVerdict(property_id, fis_id, False, witness)


def check_efficiency(problem: ExplanationProblem, template_id: TemplateId,
                     table: CharacteristicTable,
                     family_mode: ExplanationKind | None = None) -> PropertyVerdict:
    """Score total must equal the table swing between the full and empty set."""
    vec = scores.template_score(template_id, problem, table, family_mode)
    swing = table.nums[table.full_mask] - table.nums[0]
    subject = _subject(template_id, table)
    if sum(vec.nums) * table.den == swing * vec.den:
        return PropertyVerdict("P01", subject, True)
    return _template_failure("P01", subject, problem, template_id, family_mode,
                             cf_id=table.cf_id, sum=str(vec.total()),
                             target=str(Fraction(swing, table.den)))


def check_symmetry(problem: ExplanationProblem, template_id: TemplateId,
                   table: CharacteristicTable,
                   family_mode: ExplanationKind | None = None) -> PropertyVerdict:
    """Table-symmetric feature pairs must receive equal scores."""
    vec = scores.template_score(template_id, problem, table, family_mode)
    subject = _subject(template_id, table)
    for i, j in symmetric_pairs(table):
        if vec.nums[i - 1] != vec.nums[j - 1]:
            return _template_failure(
                "P02", subject, problem, template_id, family_mode,
                cf_id=table.cf_id, pair=(i, j),
                scores=(str(vec.score(i)), str(vec.score(j))))
    return PropertyVerdict("P02", subject, True)


def check_additivity(problem: ExplanationProblem, template_id: TemplateId,
                     table1: CharacteristicTable, table2: CharacteristicTable,
                     family_mode: ExplanationKind | None = None) -> PropertyVerdict:
    """Score of the pointwise-sum table vs sum of the individual scores.
    The sum of two of the problem's own kept tables is kept on the problem
    too, keyed by their ids; any other pair is summed afresh."""
    if all(problem._cache.get(("cf", t.cf_id)) is t for t in (table1, table2)):
        combined = problem._memo(("cf_sum", table1.cf_id, table2.cf_id),
                                 lambda: charfun.cf_sum(table1, table2))
    else:
        combined = charfun.cf_sum(table1, table2)
    vec12, vec1, vec2 = (scores.template_score(template_id, problem, table, family_mode)
                         for table in (combined, table1, table2))
    subject = f"{template_id.value}[{table1.cf_id}+{table2.cf_id}]"
    # n12 / d12 == n1 / d1 + n2 / d2, cross-multiplied
    d12, d1, d2 = vec12.den, vec1.den, vec2.den
    for i, (n12, n1, n2) in enumerate(zip(vec12.nums, vec1.nums, vec2.nums), 1):
        if n12 * d1 * d2 != (n1 * d2 + n2 * d1) * d12:
            return _template_failure(
                "P03", subject, problem, template_id, family_mode,
                cf_ids=(table1.cf_id, table2.cf_id), feature=i,
                combined=str(vec12.score(i)),
                parts=(str(vec1.score(i)), str(vec2.score(i))))
    return PropertyVerdict("P03", subject, True)


def check_dummy(problem: ExplanationProblem, template_id: TemplateId,
                table: CharacteristicTable,
                family_mode: ExplanationKind | None = None) -> PropertyVerdict:
    """Features the table never reacts to must score zero."""
    vec = scores.template_score(template_id, problem, table, family_mode)
    subject = _subject(template_id, table)
    for i in dummy_features(table):
        if vec.nums[i - 1]:
            return _template_failure(
                "P04", subject, problem, template_id, family_mode,
                cf_id=table.cf_id, feature=i, score=str(vec.score(i)))
    return PropertyVerdict("P04", subject, True)


# ---------------------------------------------------------------------------
# P05..P08 act on an instantiated FIS

def _axp_containment(problem: ExplanationProblem) -> tuple[tuple[int, int], ...]:
    """The ordered pairs (i, j) of distinct features such that every AXP
    containing i contains j, row-major; kept on the problem.

    The AXPs containing i all contain j exactly when j lies in their
    intersection (every feature does when no AXP contains i).
    """
    def build():
        m = problem.m
        common = [problem.full_mask] * m
        for s in explain.enumerate_axps(problem).members:
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                common[low.bit_length() - 1] &= s
        return tuple((i, j) for i in range(1, m + 1) for j in range(1, m + 1)
                     if i != j and common[i - 1] >> (j - 1) & 1)
    return problem._memo(("axp_containment",), build)


def check_minimal_monotonicity(problem: ExplanationProblem, fis_id: str) -> PropertyVerdict:
    """Containment of per-feature minimal-explanation families must not invert scores."""
    vec = scores.compute_fis(fis_id, problem)
    for i, j in _axp_containment(problem):
        if vec.nums[i - 1] > vec.nums[j - 1]:
            fam = explain.enumerate_axps(problem)
            return _fis_failure(
                "P05", fis_id, problem, pair=(i, j),
                scores=(str(vec.score(i)), str(vec.score(j))),
                families=tuple([list(features_of(s)) for s in sorted(fam.containing(k))]
                               for k in (i, j)))
    return PropertyVerdict("P05", fis_id, True)


def gamma_value(problem: ExplanationProblem, fis_id: str) -> Fraction:
    """Exact per-feature score total (the efficiency-style constant)."""
    return scores.compute_fis(fis_id, problem).total()


def label_rotation(classes) -> dict[int, int]:
    ordered = sorted(classes)
    return {c: ordered[(k + 1) % len(ordered)] for k, c in enumerate(ordered)}


def label_scramble(classes) -> dict[int, int]:
    """Order-reversing relabeling onto fresh values (0,1 -> 7,3)."""
    ordered = sorted(classes)
    n = len(ordered)
    return {c: 3 + 4 * (n - 1 - k) for k, c in enumerate(ordered)}


def relabeled_problem(problem: ExplanationProblem, sigma) -> ExplanationProblem:
    """The problem with its classes renamed by sigma, kept on the problem.

    The result is a problem of its own, with its own cache: every score on it
    is computed from its own labels, never read across from the base.
    """
    return problem._memo(("relabeled", tuple(sorted(sigma.items()))),
                         lambda: ExplanationProblem(
                             relabel_classes(problem.classifier, sigma),
                             Instance(problem.v, sigma[problem.c])))


def check_class_relabeling(problem: ExplanationProblem, fis_id: str,
                           sigma) -> PropertyVerdict:
    """Scores must survive any bijective renaming of the class labels."""
    base = scores.compute_fis(fis_id, problem)
    other = scores.compute_fis(fis_id, relabeled_problem(problem, sigma))
    for i, (b, o) in enumerate(zip(base.nums, other.nums), 1):
        if b * other.den != o * base.den:
            return _fis_failure(
                "P07", fis_id, problem,
                sigma={str(k): v for k, v in sigma.items()}, feature=i,
                scores=(str(base.score(i)), str(other.score(i))))
    return PropertyVerdict("P07", fis_id, True)


def check_relevancy_consistency(problem: ExplanationProblem, fis_id: str) -> PropertyVerdict:
    """Non-zero score exactly on the features that occur in some explanation."""
    relevant = explain.relevant_features(problem)
    vec = scores.compute_fis(fis_id, problem)
    for i in range(1, problem.m + 1):
        is_relevant = bool(relevant >> (i - 1) & 1)
        if bool(vec.nums[i - 1]) != is_relevant:
            return _fis_failure("P08", fis_id, problem, feature=i,
                                relevant=is_relevant, score=str(vec.score(i)))
    return PropertyVerdict("P08", fis_id, True)


# ---------------------------------------------------------------------------
# P09: duality

def check_duality(problem: ExplanationProblem, fis_id: str) -> DualityVerdict:
    """Compare a score with its dual on this problem instance only."""
    primal = scores.compute_fis(fis_id, problem)
    dual = scores.compute_fis(fis_id, problem, dual=True)
    return DualityVerdict(fis_id, problem, primal, dual,
                          *_duality_levels(primal, dual))


def _duality_levels(primal: ScoreVector, dual: ScoreVector
                    ) -> tuple[bool, bool, bool, Fraction | None]:
    """(strong, equivalent, weak, alpha) of two vectors of one length."""
    strong = primal == dual
    # dual = alpha * primal with alpha > 0: each pair (p, d) is proportional
    # to the first nonzero pair (p0, d0), whose members share a sign.  The
    # denominators are positive, so they leave the signs alone and cancel
    # from the cross-multiplication.
    pairs = list(zip(primal.nums, dual.nums))
    p0, d0 = next((pair for pair in pairs if pair != (0, 0)), (1, 1))
    equivalent = p0 * d0 > 0 and all(d * p0 == d0 * p for p, d in pairs)
    alpha = Fraction(d0 * primal.den, p0 * dual.den) if equivalent else None
    # two vectors order every pair alike exactly when their dense rankings agree
    weak = equivalent or primal.ranking() == dual.ranking()
    return strong, equivalent, weak, alpha


# ---------------------------------------------------------------------------
# seeded random problems and counterexample search

def random_problem(base_seed: int, index: int,
                   m_range: tuple[int, int] = (2, 6)) -> ExplanationProblem:
    """Uniform random non-constant boolean truth table plus a random instance."""
    m_lo, m_hi = m_range
    limit = max_feature_limit()
    if not 1 <= m_lo <= m_hi <= limit:
        # a one-point table is constant: m = 0 would draw tables forever
        raise ValueError(f"m_range {m_range} is not within 1..{limit}")
    rng = random.Random(base_seed * 2_654_435_761 + index * 97 + 13)
    m = rng.randrange(m_lo, m_hi + 1)
    size = 1 << m
    while True:
        labels = tuple(rng.randrange(2) for _ in range(size))
        if any(labels) and not all(labels):
            break
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))
    classifier = Classifier(features, frozenset({0, 1}), TableBody(labels))
    rank = rng.randrange(size)
    point = tuple((rank >> (m - 1 - i)) & 1 for i in range(m))
    return ExplanationProblem(classifier, Instance(point, classifier.evaluate(point)))


def problem_stream(base_seed: int, count: int | None = None,
                   m_range: tuple[int, int] = (2, 6)):
    """Deterministic (index, problem) pairs; infinite when count is None."""
    k = 0
    while count is None or k < count:
        yield k, random_problem(base_seed, k, m_range)
        k += 1


_ADDITIVITY_PAIRS = (
    (charfun.CF_E, charfun.CF_W),
    (charfun.CF_E, charfun.CF_A),
    (charfun.CF_M, charfun.CF_W),
    (charfun.CF_W, charfun.CF_A),
    (charfun.CF_E, charfun.CF_M),
    (charfun.CF_M, charfun.CF_A),
)


# One property -> check table serves audits, searches and replays.  A search
# subject expands to one or more replay-parameter dicts, the same dicts a
# failing check stores in its witness; the run function evaluates one of them
# and returns the check's verdict.

def _template_subject(subject) -> tuple[TemplateId, tuple[str, ...]]:
    """A template name, bare or leading a tuple of characteristic ids."""
    if isinstance(subject, str):
        subject = (subject,)
    return TemplateId(subject[0]), tuple(subject[1:])


def _template_runs(subject, problem, index) -> list[dict]:
    template, cf_ids = _template_subject(subject)
    cf_id = cf_ids[0] if cf_ids else scores.TEMPLATE_DEFAULTS[template][0]
    return [{"template": template.value, "cf_id": cf_id}]


def _additivity_runs(subject, problem, index) -> list[dict]:
    template, cf_ids = _template_subject(subject)
    if len(cf_ids) < 2:
        cf_ids = _ADDITIVITY_PAIRS[index % len(_ADDITIVITY_PAIRS)]
    return [{"template": template.value, "cf_ids": cf_ids[:2]}]


def _fis_runs(subject, problem, index) -> list[dict]:
    return [{"fis": subject}]


def _relabel_runs(subject, problem, index) -> list[dict]:
    classes = problem.classifier.classes
    sigmas = problem._memo(("relabelings",), lambda: (label_rotation(classes),
                                                      label_scramble(classes)))
    return [{"fis": subject, "sigma": sigma} for sigma in sigmas]


def _run_template(check, problem, params):
    tables = [charfun.build_table(cf_id, problem)
              for cf_id in params.get("cf_ids") or (params["cf_id"],)]
    family = params.get("family_mode")
    kind = None if family in (None, _ALL_SUBSETS) else ExplanationKind(family)
    return check(problem, TemplateId(params["template"]), *tables, kind)


def _run_relabel(problem, params, property_id):
    sigma = {int(k): v for k, v in params["sigma"].items()}
    return check_class_relabeling(problem, params["fis"], sigma)


def _run_duality(problem, params, property_id):
    level = property_id.partition("-")[2] or "weak"  # checked by _check_for
    fis_id = params["fis"]
    dv = check_duality(problem, fis_id)
    if getattr(dv, level):
        return PropertyVerdict(property_id, fis_id, True)
    return _fis_failure(property_id, fis_id, problem,
                        primal=dv.primal.as_strings(), dual=dv.dual.as_strings())


# property -> (subject expansion, run on one replay-parameter dict).  The
# runs name each check in their body, so a check re-bound on this module (as
# the benchmark's tracer does) is the one that runs.
_CHECKS = {
    "P01": (_template_runs, lambda problem, params, _:
            _run_template(check_efficiency, problem, params)),
    "P02": (_template_runs, lambda problem, params, _:
            _run_template(check_symmetry, problem, params)),
    "P03": (_additivity_runs, lambda problem, params, _:
            _run_template(check_additivity, problem, params)),
    "P04": (_template_runs, lambda problem, params, _:
            _run_template(check_dummy, problem, params)),
    "P05": (_fis_runs, lambda problem, params, _:
            check_minimal_monotonicity(problem, params["fis"])),
    "P07": (_relabel_runs, _run_relabel),
    "P08": (_fis_runs, lambda problem, params, _:
            check_relevancy_consistency(problem, params["fis"])),
    "P09": (_fis_runs, _run_duality),
}


def _check_for(property_id: str):
    """A known property id, or P09 with a duality level: P09-strong,
    P09-equivalent or P09-weak (bare P09 checks weak duality)."""
    prop, dash, level = property_id.partition("-")
    if prop in _CHECKS and (not dash or prop == "P09" and level in (
            "strong", "equivalent", "weak")):
        return _CHECKS[prop]
    raise ValueError(f"cannot check property {property_id!r}")


def _probe(property_id: str, subject, problem: ExplanationProblem,
           index: int) -> PropertyVerdict | None:
    """Run one property check; return the verdict only when it fails."""
    expand, run = _check_for(property_id)
    for params in expand(subject, problem, index):
        verdict = run(problem, params, property_id)
        if not verdict.holds:
            return verdict
    return None


def _tagged(verdict: PropertyVerdict, generator: dict) -> Witness:
    """The failing verdict's witness, tagged with where its problem came from."""
    witness = verdict.witness
    return Witness(witness.problem, {**witness.data, "generator": generator})


@functools.cache
def _holding(property_id: str, subject: str) -> PropertyVerdict:
    """The one holding verdict of (property, subject), shared by every
    audit that finds no violation: verdicts are frozen."""
    return PropertyVerdict(property_id, subject, True)


def audit(property_id: str, subject, problem: ExplanationProblem) -> PropertyVerdict:
    """One property on one problem, with the subject's canonical setup."""
    verdict = _probe(property_id, subject, problem, 0)
    if verdict is None:
        return _holding(property_id, str(subject))
    return verdict


def _first_failures(probes, stream) -> list[Witness | None]:
    """Each (property id, subject) probe's first failing witness, or None,
    over a stream of (index, problem, generator) triples; the witness is
    tagged with the generator of the problem it fails on.

    A probe closes at its first failure, and no further problem is drawn
    once every probe has closed.
    """
    found: list[Witness | None] = [None] * len(probes)
    for index, problem, generator in stream:
        for k, (property_id, subject) in enumerate(probes):
            if found[k] is None:
                verdict = _probe(property_id, subject, problem, index)
                if verdict is not None:
                    found[k] = _tagged(verdict, generator)
        if None not in found:
            break
    return found


def _seeded(seed: int, start: int, stop: int, m_range: tuple[int, int]):
    """The seeded search stream over indices start..stop-1, drawn lazily."""
    return ((k, random_problem(seed, k, m_range),
             {"seed": seed, "index": k, "m_range": list(m_range)})
            for k in range(start, stop))


def _search_block(property_id: str, subject, seed: int,
                  m_range: tuple[int, int], start: int,
                  stop: int) -> Witness | None:
    """First witness in one block of the seeded stream; top level so that a
    process pool can pickle it."""
    return _first_failures([(property_id, subject)],
                           _seeded(seed, start, stop, m_range))[0]


def search_counterexample(property_id: str, subject, problems=None, *,
                          seed: int = 0, budget: int = 1000,
                          m_range: tuple[int, int] = (2, 6),
                          workers: int = 1) -> Witness | None:
    """First violating problem within the budget, or None.

    problems may inject a fixed stream of problems, indexed from 0;
    otherwise the seeded random generator is used.  With several
    workers the search is partitioned into blocks but the lowest index
    still wins: a short first block runs in process before any pool starts,
    and the pool's blocks are read in order until one holds a witness.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    _check_for(property_id)  # refused before any problem is drawn
    if problems is not None:
        problems = itertools.islice(problems, budget)
        stream = ((index, problem, {"seed": None, "index": index})
                  for index, problem in enumerate(problems))
        return _first_failures([(property_id, subject)], stream)[0]
    if workers <= 1:
        return _search_block(property_id, subject, seed, m_range, 0, budget)

    block = max(1, min(200, budget // workers))
    # a short first block: an early witness starts no pool, and a search
    # without one waits a fraction of a pool round for it
    head = max(1, block // workers)
    witness = _search_block(property_id, subject, seed, m_range, 0, head)
    if witness is not None or head >= budget:
        return witness
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_search_block, property_id, subject, seed,
                               m_range, start, min(start + block, budget))
                   for start in range(head, budget, block)]
        # blocks are contiguous and in order: the first witness is the lowest
        for future in futures:
            witness = future.result()
            if witness is not None:
                pool.shutdown(cancel_futures=True)
                break
    return witness


def reverify(verdict: PropertyVerdict) -> bool:
    """Re-run the violated predicate on the stored witness; True if it still fails."""
    if verdict.holds or verdict.witness is None:
        raise ValueError("only failing verdicts carry a witness to re-check")
    _, run = _check_for(verdict.property_id)
    witness = verdict.witness
    # a fresh problem, so that the replay recomputes instead of reading memos
    problem = ExplanationProblem(witness.problem.classifier,
                                 witness.problem.instance)
    return not run(problem, witness.data, verdict.property_id).holds


# ---------------------------------------------------------------------------
# property matrix

# the known classification the audit must reproduce; True = audits as holds*
PINNED_TEMPLATE: dict[tuple[str, str], bool] = {}
for _t in TemplateId:
    PINNED_TEMPLATE[(_t.value, "P01")] = _t is TemplateId.SHAPLEY_SHUBIK
    PINNED_TEMPLATE[(_t.value, "P02")] = _t in (
        TemplateId.SHAPLEY_SHUBIK, TemplateId.BANZHAF, TemplateId.JOHNSTON)
    PINNED_TEMPLATE[(_t.value, "P03")] = _t not in (
        TemplateId.JOHNSTON, TemplateId.RESPONSIBILITY)
    PINNED_TEMPLATE[(_t.value, "P04")] = True

PINNED_FIS: dict[tuple[str, str], object] = {("E", "P05"): False,
                                             ("M", "P05"): False}
for _f in AUDITED_FIS:
    PINNED_FIS[(_f, "P05")] = True
    PINNED_FIS[(_f, "P07")] = True
    PINNED_FIS[(_f, "P08")] = True
PINNED_FIS[("S", "P09")] = {"strong"}
PINNED_FIS[("B", "P09")] = {"strong"}
for _f in ("D", "H", "R", "R_NORM"):
    PINNED_FIS[(_f, "P09")] = {"none"}
for _f in ("J", "A", "V"):
    PINNED_FIS[(_f, "P09")] = {"weak", "none"}


@dataclass
class Cell:
    status: str                 # "holds*", "fails", "n/a", or a value/level string
    ok: bool | None = None      # True/False for checkable cells
    witness: Witness | None = None


@dataclass
class PropertyMatrix:
    template_rows: tuple[str, ...]
    fis_rows: tuple[str, ...]
    cells: dict[tuple[str, str], Cell]
    inconsistencies: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies

    def row_ids(self) -> list[str]:
        return list(self.template_rows) + list(self.fis_rows)


def _cell(witness: Witness | None) -> Cell:
    return Cell("holds*", True) if witness is None else Cell("fails", False, witness)


def property_matrix(*, seed: int = 0, corpus_count: int = 60,
                    search_budget: int = 600,
                    m_range: tuple[int, int] = (2, 5)) -> PropertyMatrix:
    """Recompute the score/property classification and compare it with the
    pinned expected cells.

    Every checked cell is one probe.  The FIS cells share one pass over the
    reference chain and the corpus; the P03 rows and the E and M cells left
    open share one walk of the seeded search stream, whose first
    corpus_count problems are the corpus.  The walk reuses the corpus's
    problems, which the open cells have already passed, so only the P03
    rows run on them; every problem after the corpus is dropped once its
    probes have run.
    """
    from . import reference

    if search_budget < 1:
        raise ValueError("budget must be >= 1")
    chain = reference.and_or_chain_problem()
    single_decider = reference.single_decider_problem()
    template_rows = tuple(t.value for t in TemplateId)
    fis_rows = tuple(scores.FIS_IDS)
    cells = {(row, prop): Cell("n/a")
             for row in template_rows + fis_rows for prop in PROPERTY_IDS}

    # P01, P02 and P04 with the canonical tables; where P02 or P04 holds on
    # the chain, the two-feature problem's generator and sufficiency
    # indicators are the decisive probes
    for row in template_rows:
        for prop, decisive in (("P01", None), ("P02", charfun.CF_G),
                               ("P04", charfun.CF_W)):
            verdict = audit(prop, row, chain)
            if verdict.holds and decisive:
                verdict = audit(prop, (row, decisive), single_decider)
            cells[(row, prop)] = _cell(verdict.witness)

    fis_probes = [(prop, row) for row in fis_rows
                  for prop in ("P05", "P07", "P08")]
    corpus = list(problem_stream(seed, corpus_count, m_range))
    stream = itertools.chain([(0, chain, {"reference": "and_or_chain"})], (
        (k, problem, {"seed": seed, "index": k}) for k, problem in corpus))
    witnesses = dict(zip(fis_probes, _first_failures(fis_probes, stream)))
    # each P03 row gets the witness its own search would report; E and M
    # are pinned to fail P05, so their open cells go on searching past the
    # corpus, every problem of which they have passed
    p03 = [("P03", row) for row in template_rows]
    head = [(k, problem, {"seed": seed, "index": k, "m_range": list(m_range)})
            for k, problem in corpus[:search_budget]]
    witnesses.update(zip(p03, _first_failures(p03, head)))
    walk = [probe for probe in p03 if witnesses[probe] is None] + [
        probe for probe in fis_probes
        if probe[1] in ("E", "M") and witnesses[probe] is None]
    witnesses.update(zip(walk, _first_failures(
        walk, _seeded(seed, len(head), search_budget, m_range))))
    for (prop, row), witness in witnesses.items():
        cells[(row, prop)] = _cell(witness)

    for row in fis_rows:
        cells[(row, "P06")] = Cell(str(gamma_value(chain, row)))
        cells[(row, "P09")] = Cell(check_duality(chain, row).level.value)

    # gamma pins: totals with known closed forms on any problem
    axps = explain.enumerate_axps(chain)
    avg_size = Fraction(sum(s.bit_count() for s in axps.members), len(axps))
    for fis_id, expected in (("S", Fraction(1)), ("D", Fraction(1)),
                             ("H", avg_size)):
        cell = cells[(fis_id, "P06")]
        cell.ok = Fraction(cell.status) == expected

    inconsistencies = []
    for (row, col), expected in {**PINNED_TEMPLATE, **PINNED_FIS}.items():
        cell = cells[(row, col)]
        if isinstance(expected, bool):
            if cell.ok is not expected:
                inconsistencies.append(
                    f"{row}/{col}: expected {'holds' if expected else 'fails'}, "
                    f"computed {cell.status}")
        elif cell.status not in expected:
            inconsistencies.append(
                f"{row}/{col}: expected one of {sorted(expected)}, "
                f"computed {cell.status}")
    for fis_id in ("S", "D", "H"):
        if cells[(fis_id, "P06")].ok is not True:
            inconsistencies.append(f"{fis_id}/P06: total off its closed form")

    return PropertyMatrix(template_rows, fis_rows, cells, inconsistencies)
