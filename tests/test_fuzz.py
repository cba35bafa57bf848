"""Fuzz gate: mutated model documents and argv never crash the command line.

Every run ends with exit 0, exit 1 together with a FAIL in its report, or
exit 2 with an ``error:`` line, and never with a traceback.  The one
exception is a test that injects a broken invariant, which may also see the
internal-error exit.  Inputs stay small (m <= 3, --budget <= 3, at most six
voters, always --workers 1), and the examples are derandomized so that the
gate runs the same inputs every time.
"""

import contextlib
import copy
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fislab import explain, props, scores
from fislab.cli import INTERNAL_ERROR, main
from fislab.scores import TemplateId

GATE = settings(max_examples=120, deadline=None, derandomize=True,
                database=None)

DOCUMENTS = [
    {"features": [{"id": 1, "values": [0, 1]}, {"id": 2, "values": [0, 1, 2]}],
     "classes": [0, 1, 2],
     "body": {"kind": "table", "labels": [0, 1, 2, 1, 1, 0]},
     "instance": {"point": [1, 2], "label": 0}},
    {"features": [{"id": i, "values": [0, 1]} for i in range(1, 4)],
     "classes": [0, 1],
     "body": {"kind": "boolexpr", "expr": "x1 & (x2 | !x3)"},
     "instance": {"point": [1, 1, 1], "label": 1}},
    {"features": [{"id": 1, "values": ["lo", "hi"]}, {"id": 2, "values": [0, 1, 2]}],
     "classes": [0, 1],
     "body": {"kind": "tree", "root": {"feature": 1, "branches": [
         {"value": "lo", "child": {"class": 0}},
         {"value": "hi", "child": {"feature": 2, "branches": [
             {"value": v, "child": {"class": v % 2}} for v in range(3)]}}]}},
     "instance": {"point": ["hi", 1], "label": 1}},
    {"features": [{"id": i, "values": [0, 1]} for i in range(1, 4)],
     "classes": [0, 1],
     "body": {"kind": "wvg", "quota": 2, "weights": [2, 1, 1]},
     "instance": {"point": [1, 0, 1], "label": 1}},
]

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="x01!&|() ,-a", max_size=6),
    st.lists(st.integers(-1, 3), max_size=4),
    st.just({}), st.just({"kind": "table"}))

# a string or an object where a JSON array belongs; over the values the
# documents use, so that reading one as its characters or keys could pass
STRING_OR_OBJECT = st.one_of(
    st.text(alphabet="01lohi", max_size=4),
    st.dictionaries(st.sampled_from(["0", "1", "lo", "hi"]), st.integers(0, 2),
                    max_size=3))
ARRAY_KEYS = ("values", "point", "classes", "labels", "weights")

FIS_TOKENS = st.one_of(
    st.sampled_from(scores.FIS_IDS + ("all", "DUAL(S)", "e")),
    st.lists(st.sampled_from(scores.FIS_IDS), min_size=1, max_size=3).map(",".join),
    st.text(alphabet="SBDHRJ_,()x ", max_size=5))
TEMPLATES = st.one_of(
    st.sampled_from([t.value for t in TemplateId] + ["all"]),
    st.lists(st.sampled_from([t.value for t in TemplateId]), min_size=1,
             max_size=3).map(",".join),
    st.text(alphabet="abnz,", max_size=4))
FORMATS = st.sampled_from(["text", "json", "csv"])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"FISLAB_MAX_FEATURES": "16"}):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err, allowed=(0, 1, 2)):
    assert code in allowed, (code, err)
    assert "Traceback" not in err
    if code == 1:  # only a check that really failed may exit 1
        assert "FAIL" in out
    if code == 2:
        assert out == "" and "error: " in err


def _paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.one_of(JUNK, STRING_OR_OBJECT))
    return doc


@st.composite
def documents_with_a_non_array(draw):
    """One document with a string or an object in place of one of its arrays."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    path = draw(st.sampled_from([p for p in _paths(doc) if p and p[-1] in ARRAY_KEYS]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(STRING_OR_OBJECT)
    return doc


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


def _model_argv(doc, command, fis, fmt, model_path):
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--model", str(model_path), "--format", fmt, "--workers", "1"]
    if command == "score":
        argv += ["--fis", fis]
    return argv


@GATE
@given(doc=documents(), command=st.sampled_from(["explain", "score"]),
       fis=FIS_TOKENS, fmt=FORMATS)
def test_mutated_documents_exit_cleanly(model_path, doc, command, fis, fmt):
    assert_clean_exit(*run(_model_argv(doc, command, fis, fmt, model_path)))


@GATE
@given(doc=documents_with_a_non_array(), command=st.sampled_from(["explain", "score"]),
       fmt=FORMATS)
def test_non_array_fields_are_usage_errors(model_path, doc, command, fmt):
    code, out, err = run(_model_argv(doc, command, "S", fmt, model_path))
    assert_clean_exit(code, out, err)
    assert code == 2 and "must be a JSON array" in err


def _spoil(draw, tokens, bad):
    """Mostly leave the tokens alone; sometimes replace one with a bad one."""
    tokens = list(tokens)
    if tokens and draw(st.integers(0, 2)) == 0:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(bad))
    return tokens


@st.composite
def instance_argv(draw):
    doc = draw(st.sampled_from(DOCUMENTS))
    point = [str(draw(st.sampled_from(f["values"]))) for f in doc["features"]]
    point = _spoil(draw, point, ["", "x", "3", "1.0"])
    if draw(st.integers(0, 5)) == 0:
        point = point[:-1] if draw(st.booleans()) else point + ["0"]
    label = draw(st.one_of(st.none(), st.integers(-1, 3)))
    return doc, ",".join(point), label


@GATE
@given(case=instance_argv(), fis=FIS_TOKENS)
def test_instance_overrides_exit_cleanly(model_path, case, fis):
    doc, instance, label = case
    argv = _model_argv(doc, "score", fis, "json", model_path)
    argv += ["--instance", instance]
    if label is not None:
        argv += ["--label", str(label)]
    assert_clean_exit(*run(argv))


@st.composite
def wvg_game(draw):
    tokens = [str(draw(st.integers(-1, 12)))]  # the quota, then the weights
    tokens += [str(draw(st.integers(0, 4))) for _ in range(draw(st.integers(1, 6)))]
    tokens = _spoil(draw, tokens, ["", "x", "2.0", "-1"])
    return tokens[0], ",".join(tokens[1:])


@GATE
@given(game=wvg_game(), template=TEMPLATES, fmt=FORMATS)
@example(game=("2", ",".join("1" * 17)), template="all", fmt="text")
def test_wvg_argv_exits_cleanly(game, template, fmt):
    quota, weights = game
    code, out, err = run(["wvg", "--quota", quota, "--weights", weights,
                          "--template", template, "--format", fmt,
                          "--workers", "1"])
    assert_clean_exit(code, out, err)
    if weights.count(",") >= 16:
        assert code == 2 and "exceeds the limit" in err


@GATE
@given(prop=st.sampled_from(props.PROPERTY_IDS + (
           "P09-strong", "P09-equivalent", "P09-bogus", "P10", "p05", "")),
       subject=st.one_of(st.none(), FIS_TOKENS,
                         st.sampled_from([t.value for t in TemplateId])),
       budget=st.integers(-1, 3), seed=st.integers(0, 3), fmt=FORMATS)
def test_props_search_argv_exits_cleanly(prop, subject, budget, seed, fmt):
    argv = ["props", "--search", prop, "--budget", str(budget), "--seed",
            str(seed), "--format", fmt, "--workers", "1"]
    if subject is not None:
        argv += ["--fis", subject]
    assert_clean_exit(*run(argv))


@settings(GATE, max_examples=40)
@given(doc=documents())
@example(doc=DOCUMENTS[1])
def test_injected_invariant_error_exits_on_its_own_code(model_path, doc):
    # the contrastive family loses all but its first member, so relevancy
    # disagrees on any problem with two or more minimal contrastive sets
    cxps = explain.enumerate_cxps

    def short_cxps(problem):
        family = cxps(problem)
        first = family.members[0]
        return explain.ExplanationFamily(
            family.kind, bytes(s == first for s in range(len(family.flags))))

    with mock.patch.object(explain, "enumerate_cxps", short_cxps):
        code, out, err = run(_model_argv(doc, "explain", "", "text", model_path))
    assert_clean_exit(code, out, err, allowed=(0, 1, 2, INTERNAL_ERROR))
    if doc == DOCUMENTS[1]:  # CXPs {1} and {2}, one AXP {1, 2}
        assert code == INTERNAL_ERROR
    if code == INTERNAL_ERROR:
        assert out == "" and err.startswith("internal error: ")
        assert err.count("\n") == 1
