"""Output checks for the benchmark.

The checks read what the program produced (score vectors, explanation
families, reports) and compare it with identities every correct output
satisfies, and, for small feature spaces, with values recomputed here from
the generated labels alone.  Nothing here calls into the library.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

ORACLE_MAX_FEATURES = 8


def mask_of(features) -> int:
    mask = 0
    for i in features:
        mask |= 1 << (i - 1)
    return mask


def minimal_members(accepted: list[bool], m: int) -> set[int]:
    """Minimal masks of an up-closed family given as a membership list."""
    return {s for s in range(1 << m) if accepted[s]
            and not any(accepted[s & ~(1 << i)] for i in range(m) if s >> i & 1)}


def minimal_hitting_sets(family, m: int) -> set[int]:
    """Subset-minimal masks meeting every member, by a scan of all 2^m masks."""
    family = tuple(family)
    return minimal_members([all(s & t for t in family) for s in range(1 << m)], m)


@dataclass
class Reference:
    """One problem as generated: domains, labels in point order, the instance."""

    domains: tuple
    labels: tuple
    point: tuple
    label: int
    _cubes: tuple | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return len(self.domains)

    def mean_label(self) -> Fraction:
        return Fraction(sum(self.labels), len(self.labels))

    def cubes(self):
        """Per subset mask S: label sum, point count and count of points labelled
        like the instance, over the points agreeing with the instance on S."""
        if self._cubes is None:
            m = self.m
            agree = [sum(1 << i for i in range(m) if p[i] == self.point[i])
                     for p in itertools.product(*self.domains)]
            size = 1 << m
            total, count, same = [0] * size, [0] * size, [0] * size
            for s in range(size):
                for a, y in zip(agree, self.labels):
                    if a & s == s:
                        total[s] += y
                        count[s] += 1
                        same[s] += y == self.label
            self._cubes = (total, count, same)
        return self._cubes


@dataclass
class Output:
    """What the program produced for one problem."""

    primal: dict                    # fis id -> tuple of Fraction
    dual: dict = field(default_factory=dict)
    axps: set | None = None         # masks
    cxps: set | None = None
    hitting: tuple | None = None    # program's (mhs(cxps), mhs(axps)) as sets


def _total(values) -> Fraction:
    return sum(values, Fraction(0))


def check_output(ref: Reference, out: Output) -> list[str]:
    errors = []
    m, p = ref.m, out.primal
    if "S" in p and _total(p["S"]) != 1:
        errors.append(f"S total {_total(p['S'])} != 1")
    if "D" in p and _total(p["D"]) != 1:
        errors.append(f"D total {_total(p['D'])} != 1")
    if "E" in p and _total(p["E"]) != ref.label - ref.mean_label():
        errors.append(f"E total {_total(p['E'])} != label - mean label")
    if "H" in p and out.axps:
        mean_size = Fraction(sum(s.bit_count() for s in out.axps), len(out.axps))
        if _total(p["H"]) != mean_size:
            errors.append(f"H total {_total(p['H'])} != mean AXP size {mean_size}")
    for fis in ("S", "B"):
        if fis in p and fis in out.dual and tuple(p[fis]) != tuple(out.dual[fis]):
            errors.append(f"{fis} differs from its dual")
    if out.axps is not None and out.cxps is not None:
        if minimal_hitting_sets(out.cxps, m) != out.axps:
            errors.append("AXPs are not the minimal hitting sets of the CXPs")
        if minimal_hitting_sets(out.axps, m) != out.cxps:
            errors.append("CXPs are not the minimal hitting sets of the AXPs")
        if out.hitting is not None and out.hitting != (out.axps, out.cxps):
            errors.append("program's hitting sets differ from the families")
    if m <= ORACLE_MAX_FEATURES:
        errors += _check_small(ref, out)
    return errors


def _check_small(ref: Reference, out: Output) -> list[str]:
    """Families and ordering scores recomputed from the labels alone."""
    errors = []
    m = ref.m
    full = (1 << m) - 1
    total, count, same = ref.cubes()
    sufficient = [same[s] == count[s] for s in range(1 << m)]
    if out.axps is not None and out.axps != minimal_members(sufficient, m):
        errors.append("AXPs differ from the label scan")
    contrastive = [not sufficient[full & ~s] for s in range(1 << m)]
    if out.cxps is not None and out.cxps != minimal_members(contrastive, m):
        errors.append("CXPs differ from the label scan")
    wanted = [f for f in ("S", "E", "M") if f in out.primal]
    if wanted:
        n = len(ref.labels)
        tables = {"S": [int(x) * n for x in sufficient],
                  "E": [total[s] * (n // count[s]) for s in range(1 << m)],
                  "M": [same[s] * (n // count[s]) for s in range(1 << m)]}
        oracle = shapley_by_permutations([tables[f] for f in wanted], m)
        scale = n * math.factorial(m)
        for f, sums in zip(wanted, oracle):
            if tuple(Fraction(x, scale) for x in sums) != tuple(out.primal[f]):
                errors.append(f"{f} differs from the permutation oracle")
    return errors


def shapley_by_permutations(tables, m: int) -> list[list[int]]:
    """Summed marginal gains over all m! feature orders, per integer table."""
    sums = [[0] * m for _ in tables]
    for order in itertools.permutations(range(m)):
        mask = 0
        for i in order:
            grown = mask | 1 << i
            for table, acc in zip(tables, sums):
                acc[i] += table[grown] - table[mask]
            mask = grown
    return sums


# ---------------------------------------------------------------------------
# CLI reports

def output_from_reports(score: dict, explain: dict) -> Output:
    """Read the JSON reports of `score --dual` and `explain` for one model."""
    primal = {fis: tuple(Fraction(v) for v in e["values"])
              for fis, e in score["scores"].items()}
    dual = {fis: tuple(Fraction(v) for v in e["dual_values"])
            for fis, e in score["scores"].items() if "dual_values" in e}
    return Output(primal, dual,
                  {mask_of(s) for s in explain["axps"]},
                  {mask_of(s) for s in explain["cxps"]})


def check_reports(ref: Reference, score_code: int, score: dict,
                  explain_code: int, explain: dict) -> list[str]:
    errors = []
    if score_code != 0:
        errors.append(f"score exit code {score_code}")
    if explain_code != 0:
        errors.append(f"explain exit code {explain_code}")
    if explain["checks"]["hitting_set_duality"] != "PASS":
        errors.append("explain reports hitting-set duality FAIL")
    for report in (score, explain):
        if report["instance"] != list(ref.point) or report["label"] != ref.label:
            errors.append(f"{report['command']} reports another instance")
    out = output_from_reports(score, explain)
    relevant = 0
    for s in out.axps:
        relevant |= s
    if mask_of(explain["relevant_features"]) != relevant:
        errors.append("relevant features differ from the union of AXPs")
    return errors + check_output(ref, out)
