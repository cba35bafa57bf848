"""A dropped problem goes by reference counting alone.

A problem's memo holds its tables, families and score vectors, and each of
them is only its numbers (a family its kind and flags): no memo entry refers
back to the problem, so the memo forms no reference cycle with it.
With the cyclic collector off, a sweep-style and an audit-style operation
leave nothing for it to collect, and the problem is gone as soon as its
last strong reference is.  So do the JSON reports of the command
line.  Verdicts keep their problem alive: they
are results, not memo entries.
"""

import contextlib
import gc
import io
import json
import pickle
import weakref

import pytest

from fislab import charfun, cli, explain, props, scores


def sweep_op(problem):
    """Every score and its dual with the duality level and decimals, both
    minimal families and both hitting-set maps."""
    report = []
    for fis_id in scores.FIS_IDS:
        dv = props.check_duality(problem, fis_id)
        report.append((dv.primal.as_strings(), [cli.decimal_str(v) for v in dv.primal.values],
                       dv.dual.as_strings(), dv.level.value))
    axps, cxps = explain.enumerate_axps(problem), explain.enumerate_cxps(problem)
    report += [explain.minimal_hitting_sets(family.members, problem.full_mask)
               for family in (cxps, axps)]
    return report


def audit_op(problem):
    """P05, P07 and P08 on every audited score, and S and B duality."""
    verdicts = [props.audit(prop, fis_id, problem).holds
                for prop in ("P05", "P07", "P08") for fis_id in props.AUDITED_FIS]
    return verdicts + [props.check_duality(problem, fis_id).level
                       for fis_id in ("S", "B")]


def cyclic_garbage(run) -> int:
    """What the cyclic collector finds after run(), with it off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("op", [sweep_op, audit_op])
def test_an_operation_leaves_no_cyclic_garbage(op):
    dead = []

    def run():
        for k in range(8):
            problem = props.random_problem(5, k, (2, 5))
            result = op(problem)
            ref = weakref.ref(problem)
            del problem, result
            dead.append(ref() is None)  # no collection has run

    assert cyclic_garbage(run) == 0
    assert dead == [True] * 8



def test_json_reports_leave_no_cyclic_garbage(tmp_path):
    # json.dumps with an indent builds its encoder from closures that
    # reference each other; the CLI's own writer builds none
    model = tmp_path / "chain.json"
    model.write_text(json.dumps({
        "features": [{"id": i, "values": [0, 1]} for i in range(1, 5)],
        "classes": [0, 1], "body": {"kind": "boolexpr", "expr": "x1 & (x2 | x3 & x4)"},
        "instance": {"point": [1, 1, 1, 1], "label": 1}}))
    common = ["--model", str(model), "--format", "json"]
    commands = [["score", "--fis", "all", "--dual", "--rank"] + common,
                ["explain"] + common]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert [cli.main(argv) for argv in commands] == [0, 0]

    run()  # the parser is built once per process
    assert cyclic_garbage(run) == 0

def test_memo_entries_outlive_their_problem_without_it():
    problem = props.random_problem(5, 1, (3, 3))
    table = charfun.build_table(charfun.CF_W, problem)
    family = explain.enumerate_axps(problem)
    vec = scores.compute_fis("S", problem)
    ref = weakref.ref(problem)
    del problem
    assert ref() is None
    # the frozen dataclasses still compare, hash and print by their fields
    rebuilt = charfun.CharacteristicTable(table.cf_id, table.n_features, table.nums, table.den)
    assert rebuilt == table and hash(rebuilt) == hash(table)
    assert repr(table).startswith("CharacteristicTable(cf_id='CF_W', n_features=")
    assert hash(family) == hash(explain.ExplanationFamily(family.kind, family.flags))
    assert vec.as_strings()


def test_tables_families_and_vectors_pickle_without_their_problem():
    problem = props.random_problem(5, 3, (3, 3))
    table = charfun.build_table(charfun.CF_W, problem)
    family = explain.enumerate_axps(problem)
    vec = scores.compute_fis("S", problem)
    vec.values  # the kept Fraction view travels with the vector
    table_copy, family_copy, vec_copy = pickle.loads(pickle.dumps((table, family, vec)))
    assert table_copy == table and hash(table_copy) == hash(table)
    assert type(table_copy.nums) is bytes  # an indicator's flag bytes, by content
    assert family_copy == family and family_copy.members == family.members
    assert vec_copy == vec and vec_copy.values == vec.values


def test_verdicts_keep_their_problem_alive(chain):
    problem = props.relabeled_problem(chain, {0: 1, 1: 0})
    ref = weakref.ref(problem)
    duality = props.check_duality(problem, "S")
    verdict = props.audit("P07", "E", problem)
    assert not verdict.holds
    del problem
    assert ref() is duality.problem is verdict.witness.problem
    assert props.reverify(verdict)


def test_a_pickled_problem_leaves_its_memo_behind():
    problem = props.random_problem(5, 2, (3, 3))
    audit_op(problem)
    assert problem._cache
    copy = pickle.loads(pickle.dumps(problem))
    assert copy == problem and copy._cache == {}
    assert scores.compute_fis("S", copy) == scores.compute_fis("S", problem)
