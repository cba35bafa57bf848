"""The bounded-exhaustive gate of tools/boolean_gate.py on every
non-constant boolean function with m <= 3 at the all-ones instance, and on
every non-constant labelling of four small mixed spaces at the instance of
all first values: every pinned holds* cell holds, the flag and integer
Banzhaf and Johnston cores agree on each problem's indicator tables, the
flag and walk Deegan-Packel, Holler-Packel and Andjiga cores agree on each
of its families with each of those tables, the WAXP flag table and the
agreement sums equal the per-point binning loop's, and every FIS vector,
primal and dual, read from the problem's memo after the probes equals the
vector computed on a fresh problem."""

import importlib.util
import itertools
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "boolean_gate.py"
_SPEC = importlib.util.spec_from_file_location("boolean_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def test_pinned_cells_hold_on_every_boolean_problem_up_to_three_features():
    drawn, failures = gate.run_gate(range(1, 4))
    assert drawn == 2 + 14 + 254
    assert failures == []


def test_gate_reports_cells_that_fail():
    drawn, failures = gate.run_gate(range(1, 4), probes=[
        ("P01", "banzhaf"), ("P05", "E"), ("P01", "shapley_shubik")])
    assert drawn == 270
    assert [line.split(" fails")[0] for line in failures] == ["P01 banzhaf", "P05 E"]


@pytest.mark.parametrize("broken, expected", [
    # label bytes left in rank order: wrong wherever reversing the bit
    # order or flipping the instance's bits moves a label
    (lambda problem: bytes(problem.classifier._labels),
     ["kernel differs on agreement sums at 0...0, m=1 function=0x1",
      "kernel differs on waxp flags, m=2 function=0x2"]),
    # no mask labels: the loop would be compared with itself
    (lambda problem: None, ["kernel differs on mask labels, m=1 function=0x1"]),
], ids=["rank-order", "none"])
def test_gate_reports_kernel_mismatches(broken, expected, monkeypatch):
    monkeypatch.setattr(gate.model, "_mask_labels", broken)
    drawn, failures = gate.run_gate(range(1, 3))
    assert drawn == 16
    assert all(line.startswith("kernel differs") for line in failures)
    assert set(expected) <= set(failures)


# the script's mixed spaces but the largest: (3) with 3 classes, (3, 2)
# with 2, (2, 2) with 3 and (4, 2) with 2
TIER1_SPACES = gate.MIXED_SPACES[:-1]


@pytest.mark.parametrize("sizes, n_classes", TIER1_SPACES,
                         ids=[f"{sizes}-{n}cls" for sizes, n in TIER1_SPACES])
def test_pinned_cells_hold_on_every_problem_of_small_mixed_spaces(sizes, n_classes):
    drawn, failures = gate.run_problems(gate.labelling_problems(sizes, n_classes))
    # every labelling but the n_classes constant ones: 24, 62, 78 and 254
    assert drawn == n_classes ** math.prod(sizes) - n_classes
    assert failures == []


@pytest.mark.parametrize("sizes, n_classes", TIER1_SPACES,
                         ids=[f"{sizes}-{n}cls" for sizes, n in TIER1_SPACES])
def test_every_labelling_of_small_mixed_spaces_builds_as_trees(sizes, n_classes):
    drawn, failures = 0, []
    for tag, problem in gate.labelling_problems(sizes, n_classes):
        forms = gate.tree_forms(problem.classifier)
        assert list(forms) == ["rank order", "reverse order", "repeated split"]
        failures += [f"{line}, {tag}" for line in gate.tree_mismatches(problem)]
        drawn += 1
    assert drawn == n_classes ** math.prod(sizes) - n_classes
    assert failures == []


def test_gate_reports_tree_mismatches(monkeypatch):
    # a split no point reaches walked as if every point of the (3, 2) space
    # reached it: wrong under the repeated split, whose other branches hold
    # the next class
    walk = gate.model._walk_split
    monkeypatch.setattr(gate.model, "_walk_split",
                        lambda split, reach, tree: walk(split, reach or 0b111111, tree))
    failures = [line for _, problem in gate.labelling_problems((3, 2), 2)
                for line in gate.tree_mismatches(problem)]
    assert len(failures) == 62
    assert {line.split(":")[0] for line in failures} == {"tree differs on repeated split"}


def test_gate_reports_fold_mismatches(monkeypatch):
    # the fold's index bits left in reverse order: wrong wherever the two
    # features' agreement bits differ
    monkeypatch.setattr(gate.model, "_reverse_bits", lambda table, n, width: table)
    drawn, failures = gate.run_problems(gate.labelling_problems((3, 2), 2))
    assert drawn == 62
    assert all(line.startswith("kernel differs") for line in failures)
    assert {line.split(",")[0] for line in failures} == {
        "kernel differs on waxp flags", "kernel differs on agreement sums",
        "kernel differs on waxp flags at the last values",
        "kernel differs on agreement sums at the last values"}


@pytest.mark.parametrize("m, classes", [(1, 2), (2, 10), (3, 78)])
def test_renumbering_classes(m, classes):
    # each class's orbit, taken over every renumbering, covers every
    # non-constant function exactly once
    n = 1 << m
    least = list(gate.nonconstant_functions(m, up_to_renumbering=True))
    assert len(least) == classes

    def renumbered(f, order):
        out = 0
        for r in range(n):
            point = [r >> (m - 1 - j) & 1 for j in range(m)]
            moved = sum(point[order[k]] << (m - 1 - k) for k in range(m))
            out |= (f >> moved & 1) << r
        return out

    orbits = [{renumbered(f, order) for order in itertools.permutations(range(m))}
              for f in least]
    assert all(f == min(orbit) for f, orbit in zip(least, orbits))
    assert sum(map(len, orbits)) == len(set().union(*orbits)) == (1 << n) - 2
