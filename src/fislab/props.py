"""Audits template scores and FISs against the nine-property catalog.

Universal properties can only be refuted here, never proved: a "holds"
verdict means "no violation found on this data" and the matrix marks it
with a trailing asterisk.  Every failing verdict carries a witness whose
re-evaluation reproduces the violation.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from . import charfun, explain, scores
from .charfun import CharacteristicTable
from .explain import ExplanationKind
from .model import (Classifier, ExplanationProblem, FeatureDomain, Instance,
                    TableBody, features_of, relabel_classes)
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
    pairs = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            rest = full & ~bi & ~bj
            if all(table.values[s | bi] == table.values[s | bj]
                   for s in _submasks(rest)):
                pairs.append((i, j))
    return pairs


def dummy_features(table: CharacteristicTable) -> list[int]:
    """Features whose presence never changes the table value."""
    m = table.n_features
    full = table.full_mask
    out = []
    for i in range(1, m + 1):
        bit = 1 << (i - 1)
        rest = full & ~bit
        if all(table.values[s] == table.values[s | bit] for s in _submasks(rest)):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# P01..P04 act on a template/table pair

_ALL_SUBSETS = "all_subsets"  # witness family_mode of the all-subset templates


def _subject(template_id: TemplateId, table: CharacteristicTable,
             normalized: bool) -> str:
    name = template_id.value + ("_normalized" if normalized else "")
    return f"{name}[{table.cf_id}]"


def _template_failure(property_id: str, subject: str, problem, template_id,
                      family_mode, normalized, **found) -> PropertyVerdict:
    """Failing verdict whose witness stores the template replay parameters."""
    family = family_mode or scores.TEMPLATE_DEFAULTS[template_id][1]
    witness = Witness(problem, {
        "property": property_id, "template": template_id.value,
        "family_mode": family.value if family else _ALL_SUBSETS,
        "normalized": normalized, **found})
    return PropertyVerdict(property_id, subject, False, witness)


def check_efficiency(problem: ExplanationProblem, template_id: TemplateId,
                     table: CharacteristicTable,
                     family_mode: ExplanationKind | None = None,
                     normalized: bool = False) -> PropertyVerdict:
    """Score total must equal the table swing between the full and empty set."""
    vec = scores.template_score(template_id, problem, table, family_mode, normalized)
    total = vec.total()
    target = table.values[table.full_mask] - table.values[0]
    subject = _subject(template_id, table, normalized)
    if total == target:
        return PropertyVerdict("P01", subject, True)
    return _template_failure("P01", subject, problem, template_id, family_mode,
                             normalized, cf_id=table.cf_id, sum=str(total),
                             target=str(target))


def check_symmetry(problem: ExplanationProblem, template_id: TemplateId,
                   table: CharacteristicTable,
                   family_mode: ExplanationKind | None = None,
                   normalized: bool = False) -> PropertyVerdict:
    """Table-symmetric feature pairs must receive equal scores."""
    vec = scores.template_score(template_id, problem, table, family_mode, normalized)
    subject = _subject(template_id, table, normalized)
    for i, j in symmetric_pairs(table):
        if vec.score(i) != vec.score(j):
            return _template_failure(
                "P02", subject, problem, template_id, family_mode, normalized,
                cf_id=table.cf_id, pair=(i, j),
                scores=(str(vec.score(i)), str(vec.score(j))))
    return PropertyVerdict("P02", subject, True)


def check_additivity(problem: ExplanationProblem, template_id: TemplateId,
                     table1: CharacteristicTable, table2: CharacteristicTable,
                     family_mode: ExplanationKind | None = None,
                     normalized: bool = False) -> PropertyVerdict:
    """Score of the pointwise-sum table vs sum of the individual scores."""
    combined = charfun.cf_sum(table1, table2)
    vec12, vec1, vec2 = (scores.template_score(template_id, problem, table,
                                               family_mode, normalized)
                         for table in (combined, table1, table2))
    subject = f"{template_id.value}[{table1.cf_id}+{table2.cf_id}]"
    for i in range(1, problem.m + 1):
        if vec12.score(i) != vec1.score(i) + vec2.score(i):
            return _template_failure(
                "P03", subject, problem, template_id, family_mode, normalized,
                cf_ids=(table1.cf_id, table2.cf_id), feature=i,
                combined=str(vec12.score(i)),
                parts=(str(vec1.score(i)), str(vec2.score(i))))
    return PropertyVerdict("P03", subject, True)


def check_dummy(problem: ExplanationProblem, template_id: TemplateId,
                table: CharacteristicTable,
                family_mode: ExplanationKind | None = None,
                normalized: bool = False) -> PropertyVerdict:
    """Features the table never reacts to must score zero."""
    vec = scores.template_score(template_id, problem, table, family_mode, normalized)
    subject = _subject(template_id, table, normalized)
    for i in dummy_features(table):
        if vec.score(i) != 0:
            return _template_failure(
                "P04", subject, problem, template_id, family_mode, normalized,
                cf_id=table.cf_id, feature=i, score=str(vec.score(i)))
    return PropertyVerdict("P04", subject, True)


# ---------------------------------------------------------------------------
# P05..P08 act on an instantiated FIS

def check_minimal_monotonicity(problem: ExplanationProblem, fis_id: str) -> PropertyVerdict:
    """Containment of per-feature minimal-explanation families must not invert scores."""
    fam = explain.enumerate_axps(problem)
    per_feature = [frozenset(fam.containing(i)) for i in range(1, problem.m + 1)]
    vec = scores.compute_fis(fis_id, problem)
    for i in range(1, problem.m + 1):
        for j in range(1, problem.m + 1):
            if i == j or not per_feature[i - 1] <= per_feature[j - 1]:
                continue
            if vec.score(i) > vec.score(j):
                witness = Witness(problem, {
                    "property": "P05", "fis": fis_id, "pair": (i, j),
                    "scores": (str(vec.score(i)), str(vec.score(j))),
                    "families": ([list(features_of(s)) for s in sorted(per_feature[i - 1])],
                                 [list(features_of(s)) for s in sorted(per_feature[j - 1])])})
                return PropertyVerdict("P05", fis_id, False, witness)
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
    new_classifier = relabel_classes(problem.classifier, sigma)
    return ExplanationProblem(new_classifier,
                              Instance(problem.v, sigma[problem.c]))


def check_class_relabeling(problem: ExplanationProblem, fis_id: str,
                           sigma) -> PropertyVerdict:
    """Scores must survive any bijective renaming of the class labels."""
    base = scores.compute_fis(fis_id, problem)
    other = scores.compute_fis(fis_id, relabeled_problem(problem, sigma))
    for i in range(1, problem.m + 1):
        if base.score(i) != other.score(i):
            witness = Witness(problem, {
                "property": "P07", "fis": fis_id,
                "sigma": {str(k): v for k, v in sigma.items()},
                "feature": i,
                "scores": (str(base.score(i)), str(other.score(i)))})
            return PropertyVerdict("P07", fis_id, False, witness)
    return PropertyVerdict("P07", fis_id, True)


def check_relevancy_consistency(problem: ExplanationProblem, fis_id: str) -> PropertyVerdict:
    """Non-zero score exactly on the features that occur in some explanation."""
    relevant = explain.relevant_features(problem)
    vec = scores.compute_fis(fis_id, problem)
    for i in range(1, problem.m + 1):
        is_relevant = bool(relevant >> (i - 1) & 1)
        if (vec.score(i) != 0) != is_relevant:
            witness = Witness(problem, {
                "property": "P08", "fis": fis_id, "feature": i,
                "relevant": is_relevant, "score": str(vec.score(i))})
            return PropertyVerdict("P08", fis_id, False, witness)
    return PropertyVerdict("P08", fis_id, True)


# ---------------------------------------------------------------------------
# P09: duality

def _pairwise_same_order(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            da = (a[i] > a[j]) - (a[i] < a[j])
            db = (b[i] > b[j]) - (b[i] < b[j])
            if da != db:
                return False
    return True


def check_duality(problem: ExplanationProblem, fis_id: str) -> DualityVerdict:
    """Compare a score with its dual on this problem instance only."""
    primal = scores.compute_fis(fis_id, problem)
    dual = scores.compute_fis(fis_id, problem, dual=True)
    strong = primal.values == dual.values
    alpha: Fraction | None = None
    equivalent = True
    for p, d in zip(primal.values, dual.values):
        if p == 0 and d == 0:
            continue
        if p == 0 or d == 0:
            equivalent = False
            break
        ratio = d / p
        if ratio <= 0:
            equivalent = False
            break
        if alpha is None:
            alpha = ratio
        elif alpha != ratio:
            equivalent = False
            break
    if equivalent and alpha is None:
        alpha = Fraction(1)  # both vectors identically zero
    if not equivalent:
        alpha = None
    weak = equivalent or _pairwise_same_order(primal.values, dual.values)
    return DualityVerdict(fis_id, problem, primal, dual, strong, equivalent,
                          weak, alpha)


# ---------------------------------------------------------------------------
# seeded random problems and counterexample search

def random_problem(base_seed: int, index: int,
                   m_range: tuple[int, int] = (2, 6)) -> ExplanationProblem:
    """Uniform random non-constant boolean truth table plus a random instance."""
    rng = random.Random(base_seed * 2_654_435_761 + index * 97 + 13)
    m_lo, m_hi = m_range
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


def build_corpus(base_seed: int = 0, count: int = 200,
                 m_range: tuple[int, int] = (2, 6)) -> list[ExplanationProblem]:
    return [p for _, p in problem_stream(base_seed, count, m_range)]


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
    return [{"fis": subject, "sigma": sigma}
            for sigma in (label_rotation(classes), label_scramble(classes))]


def _run_template(check, problem, params):
    tables = [charfun.build_table(cf_id, problem)
              for cf_id in params.get("cf_ids") or (params["cf_id"],)]
    family = params.get("family_mode")
    kind = None if family in (None, _ALL_SUBSETS) else ExplanationKind(family)
    return check(problem, TemplateId(params["template"]), *tables, kind,
                 params.get("normalized", False))


def _run_relabel(problem, params, property_id):
    sigma = {int(k): v for k, v in params["sigma"].items()}
    return check_class_relabeling(problem, params["fis"], sigma)


def _run_duality(problem, params, property_id):
    level = property_id.split("-")[1] if "-" in property_id else "weak"
    if level not in ("strong", "equivalent", "weak"):
        raise ValueError(f"unknown duality level {level!r}")
    fis_id = params["fis"]
    dv = check_duality(problem, fis_id)
    if getattr(dv, level):
        return PropertyVerdict(property_id, fis_id, True)
    witness = Witness(problem, {
        "property": property_id, "fis": fis_id,
        "primal": dv.primal.as_strings(), "dual": dv.dual.as_strings()})
    return PropertyVerdict(property_id, fis_id, False, witness)


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
    try:
        return _CHECKS[property_id.split("-")[0]]
    except KeyError:
        raise ValueError(f"cannot check property {property_id!r}") from None


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


def audit(property_id: str, subject, problem: ExplanationProblem) -> PropertyVerdict:
    """One property on one problem, with the subject's canonical setup."""
    verdict = _probe(property_id, subject, problem, 0)
    if verdict is None:
        return PropertyVerdict(property_id, str(subject), True)
    return verdict


def _search_block(property_id: str, subject, base_seed: int, start: int,
                  stop: int, m_range: tuple[int, int]):
    for k in range(start, stop):
        problem = random_problem(base_seed, k, m_range)
        verdict = _probe(property_id, subject, problem, k)
        if verdict is not None:
            return k, verdict
    return None


def search_counterexample(property_id: str, subject, problems=None, *,
                          seed: int = 0, budget: int = 1000,
                          m_range: tuple[int, int] = (2, 6),
                          workers: int = 1) -> Witness | None:
    """First violating problem within the budget, or None.

    problems may inject a fixed stream of problems or (index, problem)
    pairs; otherwise the seeded random generator is used.  With several
    workers the search is partitioned but the lowest index still wins.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if problems is not None:
        for k, item in enumerate(problems):
            if k >= budget:
                break
            index, problem = item if isinstance(item, tuple) else (k, item)
            verdict = _probe(property_id, subject, problem, index)
            if verdict is not None:
                return _tagged(verdict, {"seed": None, "index": index})
        return None

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        block = max(1, min(200, budget // workers))
        spans = [(s, min(s + block, budget)) for s in range(0, budget, block)]
        best = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_search_block, property_id, subject, seed,
                                   a, b, m_range) for a, b in spans]
            for fut in futures:
                res = fut.result()
                if res is not None and (best is None or res[0] < best[0]):
                    best = res
        found = best
    else:
        found = _search_block(property_id, subject, seed, 0, budget, m_range)
    if found is None:
        return None
    index, verdict = found
    return _tagged(verdict, {"seed": seed, "index": index, "m_range": list(m_range)})


def reverify(verdict: PropertyVerdict) -> bool:
    """Re-run the violated predicate on the stored witness; True if it still fails."""
    if verdict.holds or verdict.witness is None:
        raise ValueError("only failing verdicts carry a witness to re-check")
    _, run = _check_for(verdict.property_id)
    witness = verdict.witness
    return not run(witness.problem, witness.data, verdict.property_id).holds


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


def _fis_corpus_violation(fis_id, prop, corpus, seed) -> Witness | None:
    for k, problem in enumerate(corpus):
        verdict = _probe(prop, fis_id, problem, k)
        if verdict is not None:
            return _tagged(verdict, {"seed": seed, "index": k})
    return None


def _cell(witness: Witness | None) -> Cell:
    return Cell("holds*", True) if witness is None else Cell("fails", False, witness)


def property_matrix(*, seed: int = 0, corpus_count: int = 60,
                    search_budget: int = 600,
                    m_range: tuple[int, int] = (2, 5)) -> PropertyMatrix:
    """Recompute the score/property classification and compare it with the
    pinned expected cells."""
    from . import reference

    audit = reference.and_or_chain_problem()
    witness_problem = reference.single_decider_problem()
    corpus = build_corpus(seed, corpus_count, m_range)
    cells: dict[tuple[str, str], Cell] = {}

    def put(row, col, cell):
        cells[(row, col)] = cell

    # template rows: P01..P04 with the canonical tables
    for template in TemplateId:
        row = template.value
        cf_id = scores.TEMPLATE_DEFAULTS[template][0]
        table = charfun.build_table(cf_id, audit)
        for prop, check in (("P01", check_efficiency), ("P02", check_symmetry),
                            ("P04", check_dummy)):
            verdict = check(audit, template, table)
            if verdict.holds and prop == "P02":
                # the generator indicator on the two-feature problem is the
                # decisive symmetry probe
                verdict = check(witness_problem, template,
                                charfun.cf_generator(witness_problem))
            if verdict.holds and prop == "P04":
                verdict = check(witness_problem, template,
                                charfun.cf_waxp(witness_problem))
            put(row, prop, _cell(verdict.witness))
        put(row, "P03", _cell(search_counterexample(
            "P03", (template.value,), seed=seed, budget=search_budget,
            m_range=m_range)))
        for prop in ("P05", "P06", "P07", "P08", "P09"):
            put(row, prop, Cell("n/a"))

    # FIS rows
    for fis_id in scores.FIS_IDS:
        row = fis_id
        for prop in ("P01", "P02", "P03", "P04"):
            put(row, prop, Cell("n/a"))
        for prop in ("P05", "P07", "P08"):
            verdict = _probe(prop, fis_id, audit, 0)
            if verdict is not None:
                witness = _tagged(verdict, {"reference": "and_or_chain"})
            else:
                witness = _fis_corpus_violation(fis_id, prop, corpus, seed)
            if witness is None and fis_id in ("E", "M"):
                witness = search_counterexample(prop, fis_id, seed=seed,
                                                budget=search_budget,
                                                m_range=m_range)
            put(row, prop, _cell(witness))
        gamma = gamma_value(audit, fis_id)
        put(row, "P06", Cell(str(gamma)))
        dv = check_duality(audit, fis_id)
        put(row, "P09", Cell(dv.level.value))

    # gamma pins: totals with known closed forms on any problem
    axps = explain.enumerate_axps(audit)
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

    return PropertyMatrix(tuple(t.value for t in TemplateId),
                          tuple(scores.FIS_IDS), cells, inconsistencies)
