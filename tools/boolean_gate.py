"""Bounded-exhaustive gate for the pinned property matrix.

Renumbering features permutes every score and renaming or reordering a
domain's values changes none (tests/test_metamorphic.py), so a problem is
fixed, up to feature renumbering, by its label table read at one chosen
instance: the all-ones instance for boolean functions, the instance of all
first values for labellings of mixed spaces.  For every problem drawn, the
gate asserts five things:

* every cell pinned to hold in props.PINNED_TEMPLATE and props.PINNED_FIS
  holds, probed as the matrix probes it (the template cells also with the
  tables the matrix tries when the canonical one holds, and P03 over every
  additivity pair);
* Banzhaf and Johnston read from the flag bytes of each indicator table
  give the same (numerators, denominator) pair as the integer slice cores
  on the same numerators;
* Deegan-Packel, Holler-Packel and Andjiga read from the flag bytes of
  each explanation family and indicator table, and the family core that
  picks between the two readings, give the same pair as the member walk
  over that family and table;
* the WAXP flag table and the agreement sums equal what the per-point
  binning loop (point_loop_sums, the kernel's only oracle) gives, at the
  problem's instance and at the other end of its space; a boolean problem
  gets them from its label bytes moved to agreement-mask order, any other
  from the per-axis fold;
* once the probes have run on the problem, every scores.compute_fis vector
  (each FIS, primal and dual) read from its memo equals the vector
  computed on a fresh problem of its own.

Tier-1 runs it on all 270 boolean functions with m <= 3 and on every
non-constant labelling of the first four MIXED_SPACES
(tests/test_exhaustive.py).  Run from the repository root, this script runs
it on one function of each of the 3,982 non-constant classes of m = 4
boolean functions under feature renumbering, and on every labelling of all
five MIXED_SPACES and all three LARGER_SPACES.  It also compares the kernel
with the loop once more on every one of those labellings with each class c
renamed c + 256: classes of 256 or more have no label bytes, so the sums
take the route that packs the labels as ints (kernel.le_fields).  And it
rebuilds each of those labellings as three complete tree bodies
(tree_forms: splits in rank order, in reverse order, and with one repeated
split whose other branches no point reaches), whose label tables must equal
the table body's; Tier-1 does so on the first four MIXED_SPACES.

    PYTHONPATH=src python tools/boolean_gate.py

It prints the problem count, the renamed-class and tree counts, each
failure and the wall time, and exits 1 if anything failed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import time
from operator import eq

from fislab import charfun, explain, model, props, scores
from fislab.explain import ExplanationKind
from fislab.model import (Classifier, ExplanationProblem, FeatureDomain, TableBody,
                          TreeBody, TreeLeaf, TreeSplit, make_problem)
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
    and the (family, indicator table) pairs on which the flag D/H/A core or
    the family core's own pick differs from the member walk."""
    out = []
    families = [explain.family(problem, kind) for kind in ExplanationKind]
    for cf_id in INDICATOR_IDS:
        table = charfun.build_table(cf_id, problem)
        plain = dataclasses.replace(table, nums=tuple(table.nums))
        for template in (TemplateId.BANZHAF, TemplateId.JOHNSTON):
            if (scores._score_all_subsets(template, table)
                    != scores._score_all_subsets(template, plain)):
                out.append(f"{template.value}[{cf_id}]")
        for family in families:
            for template in SUM_TEMPLATES:
                walk = scores._family_walk(template, table, family.members, problem.m)
                if (scores._family_flags(template, table.nums, family.flags) != walk
                        or scores._score_family(template, table, family) != walk):
                    out.append(f"{template.value}[{family.kind.value}, {cf_id}]")
    return out


def superset_totals(bins: list[int]) -> tuple[int, ...]:
    """Entry S: the sum of bins[T] over every mask T containing S, visiting
    the supersets of S one by one."""
    totals = []
    for s in range(len(bins)):
        total, t = 0, s
        while t < len(bins):
            total += bins[t]
            t = (t + 1) | s  # the next mask containing s
        totals.append(total)
    return tuple(totals)


def point_loop_sums(problem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The agreement sums (label_sum, same) by the per-point binning loop,
    the oracle of model.agreement_sums: each point's label and same-class
    count go to the bin of its agreement mask with the instance, and each
    subset's totals add the bins of its supersets (superset_totals).  It
    shares no arithmetic with the kernel's folds."""
    cls = problem.classifier
    # agreement mask of every point, in rank order
    masks = model._rank_sums([[1 << i if k == index[v] else 0 for k in range(dom.size)]
                              for i, (dom, index, v)
                              in enumerate(zip(cls.features, cls._value_index, problem.v))])
    label_sum, same = [0] * (1 << problem.m), [0] * (1 << problem.m)
    for mask, label in zip(masks, cls._labels):
        label_sum[mask] += label
        if label == problem.c:
            same[mask] += 1
    return superset_totals(label_sum), superset_totals(same)


def point_counts(problem) -> list[int]:
    """Entry S: how many points agree with the instance on S, the product of
    the sizes of the domains of the features not in S; a subset is
    sufficient when all of them have the instance's class."""
    count = [1]
    for dom in problem.classifier.features:  # masks without feature i, then with it
        count = [n * dom.size for n in count] + count
    return count


def kernel_mismatches(problem) -> list[str]:
    """The kernel facts that differ from the per-point binning loop: the
    WAXP flag table and the agreement sums, on the problem and at the other
    end of its space: the all-zeros (all first values) instance for the
    gate's all-ones problems, the all-last-values one for problems at the
    first values.  A problem whose domains all have two values and whose
    classes are below 256 must bin by its mask labels; any other takes the
    per-axis fold."""
    out = []
    cls = problem.classifier
    firsts = tuple(dom.values[0] for dom in cls.features)
    if problem.v != firsts:
        other, where = firsts, " at 0...0"
    else:
        other, where = tuple(dom.values[-1] for dom in cls.features), " at the last values"
    boolean = max(cls.classes) < 256 and all(dom.size == 2 for dom in cls.features)
    for name, case in (("", problem), (where, make_problem(cls, other))):
        if boolean and case._mask_labels() is None:
            out.append("mask labels" + name)
        loop = point_loop_sums(case)
        if explain.family(case, ExplanationKind.WAXP).flags != bytes(
                map(eq, loop[1], point_counts(case))):
            out.append("waxp flags" + name)
        if tuple(map(tuple, model.agreement_sums(case))) != loop:
            out.append("agreement sums" + name)
    return out


def memo_mismatches(problem) -> list[str]:
    """The score ids, primal and DUAL(...), whose vector the problem's memo
    gives otherwise than a fresh problem per vector does.  The primal
    scores come first, so each dual that shares a template pass with one
    reads it."""
    out = []
    for dual in (False, True):
        for fis_id in scores.FIS_IDS:
            shared = scores.compute_fis(fis_id, problem, dual)
            alone = scores.compute_fis(fis_id, ExplanationProblem(
                problem.classifier, problem.instance), dual)
            if (shared.nums, shared.den) != (alone.nums, alone.den):
                out.append(f"DUAL({fis_id})" if dual else fis_id)
    return out


def boolean_problems(ms, up_to_renumbering: bool = False):
    """(tag, problem) for each non-constant function of each m in ms, at the
    all-ones instance (see nonconstant_functions)."""
    for m in ms:
        for function in nonconstant_functions(m, up_to_renumbering):
            yield f"m={m} function={function:#x}", all_ones_problem(m, function)


def labelling_problems(sizes, n_classes: int):
    """(tag, problem) for every non-constant labelling, with the classes
    0..n_classes-1, of the space whose feature i has the values
    0..sizes[i-1]-1, at the instance of all first values.  Renaming or
    reordering a domain's values changes no score, so this covers every
    problem over these domain sizes and classes."""
    features = tuple(FeatureDomain(i, tuple(range(size)))
                     for i, size in enumerate(sizes, start=1))
    classes = frozenset(range(n_classes))
    for labels in itertools.product(range(n_classes), repeat=math.prod(sizes)):
        if len(set(labels)) > 1:
            classifier = Classifier(features, classes, TableBody(labels))
            yield (f"domains={tuple(sizes)} labels={''.join(map(str, labels))}",
                   make_problem(classifier, (0,) * len(sizes)))


def tree_forms(classifier) -> dict[str, TreeBody]:
    """The labelling of a table classifier as three complete tree bodies:
    splits on features 1..m in rank order, on m..1, and in rank order with
    one more split on feature 1 below the root's first branch, which
    repeats that branch's test, so that its other branches are reached by no
    point (their leaves hold the next class, which no point may take)."""
    features, labels = classifier.features, classifier._labels
    classes = sorted(classifier.classes)
    strides = [math.prod(dom.size for dom in features[i + 1:]) for i in range(len(features))]

    def node(order, rank, shift=0):
        if not order:
            return TreeLeaf(classes[(classes.index(labels[rank]) + shift) % len(classes)])
        i = order[0]
        return TreeSplit(i + 1, tuple((value, node(order[1:], rank + k * strides[i], shift))
                                      for k, value in enumerate(features[i].values)))

    rank_order = list(range(len(features)))
    in_rank_order = node(rank_order, 0)
    (first, child), *rest = in_rank_order.branches
    again = TreeSplit(1, ((first, child),) + tuple(
        (value, node(rank_order[1:], 0, shift=1)) for value in features[0].values[1:]))
    return {"rank order": TreeBody(in_rank_order),
            "reverse order": TreeBody(node(rank_order[::-1], 0)),
            "repeated split": TreeBody(TreeSplit(1, ((first, again), *rest)))}


def tree_mismatches(problem) -> list[str]:
    """The tree forms of the problem's labelling (tree_forms) whose label
    table differs from its table body's, or that are refused."""
    cls, out = problem.classifier, []
    for name, body in tree_forms(cls).items():
        try:
            if Classifier(cls.features, cls.classes, body)._labels != cls._labels:
                out.append(f"tree differs on {name}")
        except ValueError as exc:
            out.append(f"tree differs on {name}: {exc}")
    return out


def run_problems(problems, probes=None) -> tuple[int, list[str]]:
    """(problems drawn, failures) over the (tag, problem) pairs; probes
    defaults to pinned_probes()."""
    probes = pinned_probes() if probes is None else probes
    failures: list[str] = []
    drawn = 0

    def stream():
        nonlocal drawn
        for tag, problem in problems:
            failures.extend(f"cores differ on {name}, {tag}"
                            for name in core_mismatches(problem))
            failures.extend(f"kernel differs on {name}, {tag}"
                            for name in kernel_mismatches(problem))
            yield drawn, problem, tag
            failures.extend(f"memo differs on {name}, {tag}"
                            for name in memo_mismatches(problem))
            drawn += 1

    for (prop, subject), witness in zip(probes, props._first_failures(probes, stream())):
        if witness is not None:
            failures.append(f"{prop} {subject} fails, {witness.data['generator']}")
    return drawn, failures


def run_gate(ms, up_to_renumbering: bool = False,
             probes=None) -> tuple[int, list[str]]:
    """run_problems over the boolean functions of each m in ms."""
    return run_problems(boolean_problems(ms, up_to_renumbering), probes)


# the mixed spaces the script checks: (domain sizes, class count); Tier-1
# checks all but the last (tests/test_exhaustive.py)
MIXED_SPACES = (((3,), 3), ((3, 2), 2), ((2, 2), 3), ((4, 2), 2), ((3, 2), 3))
# larger spaces, of 510, 240 and 6,558 problems, that only the script checks
LARGER_SPACES = (((3, 3), 2), ((5,), 3), ((2, 2, 2), 3))


def renamed_classes(problem) -> ExplanationProblem:
    """The problem with each class c renamed c + 256, at the same instance."""
    cls = problem.classifier
    return make_problem(model.relabel_classes(cls, {c: c + 256 for c in cls.classes}),
                        problem.v)


def main() -> int:
    start = time.perf_counter()
    drawn, failures = run_gate([4], up_to_renumbering=True)
    renamed = 0
    for sizes, n_classes in MIXED_SPACES + LARGER_SPACES:
        more, failed = run_problems(labelling_problems(sizes, n_classes))
        drawn += more
        failures += failed
        for tag, problem in labelling_problems(sizes, n_classes):
            failures += [f"kernel differs on {name}, classes + 256, {tag}"
                         for name in kernel_mismatches(renamed_classes(problem))]
            failures += [f"{line}, {tag}" for line in tree_mismatches(problem)]
            renamed += 1
    for line in failures:
        print(line)
    print(f"{drawn} problems, {renamed} of them with classes renamed and as "
          f"{3 * renamed} trees, {len(failures)} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
