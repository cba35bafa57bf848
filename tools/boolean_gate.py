"""Bounded-exhaustive gate for the pinned property matrix.

Renumbering features permutes every score and renaming values changes none
(tests/test_metamorphic.py), so a boolean problem is fixed, up to feature
renumbering, by its truth table read at the all-ones instance.  For every
non-constant boolean function of m features at that instance, the gate
asserts five things:

* every cell pinned to hold in props.PINNED_TEMPLATE and props.PINNED_FIS
  holds, probed as the matrix probes it (the template cells also with the
  tables the matrix tries when the canonical one holds, and P03 over every
  additivity pair);
* Banzhaf and Johnston read from the flag bytes of each indicator table
  give the same (numerators, denominator) pair as the integer slice cores
  on the same numerators;
* Deegan-Packel, Holler-Packel and Andjiga read from the flag bytes of
  each explanation family and indicator table give the same pair as the
  member walk over that family and table;
* the WAXP flag table, a down-closure over the label bytes moved to
  agreement-mask order, and the agreement sums binned from those bytes
  equal what the per-point binning loop gives, at the all-ones and at the
  all-zeros instance;
* once the probes have run on the problem, every scores.compute_fis vector
  (each FIS, primal and dual) read from its memo equals the vector
  computed on a fresh problem of its own.

Tier-1 runs it on all 270 functions with m <= 3 (tests/test_exhaustive.py).
Run from the repository root, this script runs it on one function of each
of the 3,982 non-constant classes of m = 4 functions under feature
renumbering:

    PYTHONPATH=src python tools/boolean_gate.py

It prints the problem count, each failure and the wall time, and exits 1
if anything failed.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from operator import eq

from fislab import charfun, explain, model, props, scores
from fislab.explain import ExplanationKind
from fislab.model import (Classifier, ExplanationProblem, FeatureDomain, TableBody,
                          make_problem)
from fislab.scores import TemplateId

INDICATOR_IDS = (charfun.CF_W, charfun.CF_W_DUAL, charfun.CF_A,
                 charfun.CF_A_DUAL, charfun.CF_G)
SUM_TEMPLATES = (TemplateId.DEEGAN_PACKEL, TemplateId.HOLLER_PACKEL, TemplateId.ANDJIGA)


def nonconstant_functions(m: int, up_to_renumbering: bool = False):
    """Each non-constant boolean function of m features as an int whose bit
    r is the label of the point of rank r (feature 1 varies slowest).  With
    up_to_renumbering, only the least function of each class under feature
    renumbering; the seen-table takes 2^(2^m) bytes, so keep m <= 4 there."""
    n = 1 << m
    if not up_to_renumbering:
        yield from range(1, (1 << n) - 1)
        return
    # per renumbering, the rank each rank's point moves to
    moves = [[sum((r >> (m - 1 - j) & 1) << (m - 1 - k) for j, k in enumerate(order))
              for r in range(n)]
             for order in itertools.permutations(range(m))]
    seen = bytearray(1 << n)
    for f in range(1, (1 << n) - 1):
        if not seen[f]:
            for move in moves:
                seen[sum((f >> r & 1) << move[r] for r in range(n))] = 1
            yield f


def all_ones_problem(m: int, function: int):
    """The function as a table classifier over m boolean features, at the
    all-ones point."""
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))
    labels = tuple(function >> r & 1 for r in range(1 << m))
    return make_problem(Classifier(features, frozenset({0, 1}), TableBody(labels)),
                        (1,) * m)


def pinned_probes() -> list[tuple[str, object]]:
    """A (property, subject) probe for every cell pinned to hold."""
    decisive = {"P02": charfun.CF_G, "P04": charfun.CF_W}
    probes = []
    for (row, prop), holds in props.PINNED_TEMPLATE.items():
        if not holds:
            continue
        if prop == "P03":
            probes += [(prop, (row, *pair)) for pair in props._ADDITIVITY_PAIRS]
        else:
            probes.append((prop, row))
            if prop in decisive:
                probes.append((prop, (row, decisive[prop])))
    probes += [(prop, row) for (row, prop), holds in props.PINNED_FIS.items()
               if holds is True]
    return probes


def core_mismatches(problem) -> list[str]:
    """The indicator tables on which the flag and integer B/J cores differ,
    and the (family, indicator table) pairs on which the flag and walk
    D/H/A cores differ."""
    out = []
    families = [explain.family(problem, kind) for kind in ExplanationKind]
    for cf_id in INDICATOR_IDS:
        table = charfun.build_table(cf_id, problem)
        plain = dataclasses.replace(table, flags=None)
        for template in (TemplateId.BANZHAF, TemplateId.JOHNSTON):
            if (scores._score_all_subsets(template, table)
                    != scores._score_all_subsets(template, plain)):
                out.append(f"{template.value}[{cf_id}]")
        for family in families:
            for template in SUM_TEMPLATES:
                if (scores._family_flags(template, table.flags, family.flags)
                        != scores._score_family(template, table, family.members,
                                                problem.m)):
                    out.append(f"{template.value}[{family.kind.value}, {cf_id}]")
    return out


def kernel_mismatches(problem) -> list[str]:
    """The kernel facts that differ from the per-point binning loop: the
    WAXP flag table and the agreement sums, on the problem and on its
    function at the all-zeros instance (where every feature's mask bit is
    flipped).  A boolean problem must bin by its mask labels, or the loop
    would be compared with itself."""
    out = []
    zeros = make_problem(problem.classifier, (0,) * problem.m)
    for name, case in (("", problem), (" at 0...0", zeros)):
        if case._mask_labels() is None:
            out.append("mask labels" + name)
        loop = model._agreement_sums(case, None)
        if explain.family(case, ExplanationKind.WAXP).flags != bytes(
                map(eq, loop.same, loop.count)):
            out.append("waxp flags" + name)
        if case.agreement_sums() != loop:
            out.append("agreement sums" + name)
    return out


def memo_mismatches(problem) -> list[str]:
    """The FIS vectors, primal and dual, that the problem's memo gives
    otherwise than a fresh problem per vector does.  The primal scores come
    first, so each dual that shares a template pass with one reads it."""
    out = []
    for dual in (False, True):
        for fis_id in scores.FIS_IDS:
            shared = scores.compute_fis(fis_id, problem, dual)
            alone = scores.compute_fis(fis_id, ExplanationProblem(
                problem.classifier, problem.instance), dual)
            if (shared.nums, shared.den, shared.label, shared.cf_id) != (
                    alone.nums, alone.den, alone.label, alone.cf_id):
                out.append(shared.label)
    return out


def run_gate(ms, up_to_renumbering: bool = False,
             probes=None) -> tuple[int, list[str]]:
    """(problems drawn, failures) over the functions of each m in ms; probes
    defaults to pinned_probes()."""
    probes = pinned_probes() if probes is None else probes
    failures: list[str] = []
    drawn = 0

    def stream():
        nonlocal drawn
        for m in ms:
            for function in nonconstant_functions(m, up_to_renumbering):
                problem = all_ones_problem(m, function)
                failures.extend(f"cores differ on {name}, m={m} function={function:#x}"
                                for name in core_mismatches(problem))
                failures.extend(f"kernel differs on {name}, m={m} function={function:#x}"
                                for name in kernel_mismatches(problem))
                yield drawn, problem, {"m": m, "function": function}
                failures.extend(f"memo differs on {name}, m={m} function={function:#x}"
                                for name in memo_mismatches(problem))
                drawn += 1

    for (prop, subject), witness in zip(probes, props._first_failures(probes, stream())):
        if witness is not None:
            tag = witness.data["generator"]
            failures.append(f"{prop} {subject} fails, m={tag['m']} "
                            f"function={tag['function']:#x}")
    return drawn, failures


def main() -> int:
    start = time.perf_counter()
    drawn, failures = run_gate([4], up_to_renumbering=True)
    for line in failures:
        print(line)
    print(f"{drawn} problems, {len(failures)} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
