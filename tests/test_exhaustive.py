"""The bounded-exhaustive gate of tools/boolean_gate.py on every
non-constant boolean function with m <= 3 at the all-ones instance: every
pinned holds* cell holds, the flag and integer Banzhaf and Johnston cores
agree on each problem's indicator tables, the flag and walk
Deegan-Packel, Holler-Packel and Andjiga cores agree on each of its
families with each of those tables, the WAXP flag table and the agreement
sums equal the per-point binning loop's, and every FIS vector, primal and
dual, read from the problem's memo after the probes equals the vector
computed on a fresh problem."""

import importlib.util
import itertools
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
