import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fislab
from fislab import cli, explain, scores
from fislab.cli import INTERNAL_ERROR, _decimal, _json, build_parser, decimal_str, main
from fractions import Fraction
from test_model import MALFORMED_NODES, malformed_tree_document


@pytest.fixture
def chain_model(tmp_path):
    doc = {
        "features": [{"id": i, "values": [0, 1]} for i in range(1, 5)],
        "classes": [0, 1],
        "body": {"kind": "boolexpr", "expr": "x1 & (x2 | x3 & x4)"},
        "instance": {"point": [1, 1, 1, 1], "label": 1},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# explain

def test_explain_text(chain_model, capsys):
    code, out, _ = run(capsys, "explain", "--model", chain_model)
    assert code == 0
    assert "[1, 2]; [1, 3, 4]" in out
    assert "[1]; [2, 3]; [2, 4]" in out
    assert "hitting-set duality: PASS" in out


def test_explain_instance_override(chain_model, capsys):
    code, out, _ = run(capsys, "explain", "--model", chain_model,
                       "--instance", "0,0,0,0", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["label"] == 0
    assert report["checks"]["hitting_set_duality"] == "PASS"


def test_explain_label_mismatch(chain_model, capsys):
    code, _, err = run(capsys, "explain", "--model", chain_model,
                       "--instance", "1,1,1,1", "--label", "0")
    assert code == 2
    assert "label mismatch" in err


@pytest.mark.parametrize("command", ["explain", "score"])
def test_label_without_an_instance_is_refused(chain_model, command, capsys):
    # 7 is no class of the model: read alone, --label would go unchecked
    code, out, err = run(capsys, command, "--model", chain_model, "--label", "7")
    assert code == 2
    assert out == ""
    assert err == "error: --label checks the class of --instance, and no --instance is given\n"


def test_explain_missing_model(capsys):
    code, _, err = run(capsys, "explain", "--model", "/does/not/exist.json")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# score

def test_score_golden_json(chain_model, capsys):
    code, out, _ = run(capsys, "score", "--model", chain_model,
                       "--fis", "D,H", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["scores"]["D"]["values"] == ["5/12", "1/4", "1/6", "1/6"]
    assert report["scores"]["H"]["values"] == ["1", "1/2", "1/2", "1/2"]


def test_score_dual_wrapper_ids(chain_model, capsys):
    code, out, _ = run(capsys, "score", "--model", chain_model,
                       "--fis", "D,DUAL(D)", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["scores"]["DUAL(D)"]["values"] == ["1/3", "1/3", "1/6", "1/6"]


def test_score_all_with_oracle(chain_model, capsys):
    code, out, _ = run(capsys, "score", "--model", chain_model,
                       "--fis", "all", "--oracle", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report["scores"]) == {"E", "M", "S", "B", "J", "D", "H", "R",
                                     "R_NORM", "A", "C", "V"}
    for fis_id in ("E", "M", "S"):
        assert report["scores"][fis_id]["oracle"] == "PASS"


def test_oracle_mismatch_is_an_internal_error(chain_model, monkeypatch, capsys):
    # Shapley-Shubik is the permutation average, so a mismatch is a bug and
    # no report is printed
    oracle = scores.shapley_permutation_oracle

    def perturbed(problem, table):
        vec = oracle(problem, table)
        return scores.ScoreVector((vec.nums[0] + vec.den,) + vec.nums[1:], vec.den)

    monkeypatch.setattr(scores, "shapley_permutation_oracle", perturbed)
    code, out, err = run(capsys, "score", "--model", chain_model,
                         "--fis", "S", "--oracle")
    assert code == INTERNAL_ERROR
    assert out == ""
    assert err.startswith("internal error: permutation oracle")
    assert err.count("\n") == 1


def test_score_oracle_past_eight_features_is_a_usage_error(tmp_path, capsys):
    doc = {"features": [{"id": i, "values": [0, 1]} for i in range(1, 10)],
           "classes": [0, 1],
           "body": {"kind": "boolexpr", "expr": " | ".join(f"x{i}" for i in range(1, 10))},
           "instance": {"point": [1] * 9, "label": 1}}
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "score", "--model", str(path), "--fis", "S", "--oracle")
    assert (code, out) == (2, "")
    assert err == "error: permutation oracle capped at 8 features, got 9\n"
    # no Shapley-Shubik score, no oracle to run
    code, _, _ = run(capsys, "score", "--model", str(path), "--fis", "B,DUAL(S)", "--oracle")
    assert code == 0


def test_score_formats_agree(chain_model, capsys):
    _, json_out, _ = run(capsys, "score", "--model", chain_model,
                         "--fis", "J", "--format", "json")
    _, text_out, _ = run(capsys, "score", "--model", chain_model,
                         "--fis", "J", "--format", "text")
    _, csv_out, _ = run(capsys, "score", "--model", chain_model,
                        "--fis", "J", "--format", "csv")
    values = json.loads(json_out)["scores"]["J"]["values"]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [r["value"] for r in rows] == values
    for v in values:
        assert v in text_out


@pytest.mark.parametrize("repeated, once", [
    ("S,S", ["S"]), ("S,shapley_shubik", ["S"]),
    ("B,DUAL(S),b,S,dual(shapley_shubik)", ["B", "DUAL(S)", "S"])])
def test_score_prints_each_named_score_once(repeated, once, chain_model, capsys):
    # every format keeps the first occurrence of each (score, dual) pair
    outputs = {fmt: run(capsys, "score", "--model", chain_model, "--fis", repeated,
                        "--format", fmt) for fmt in ("json", "csv", "text")}
    assert all(code == 0 for code, _, _ in outputs.values())
    assert list(json.loads(outputs["json"][1])["scores"]) == sorted(once)
    rows = list(csv.DictReader(io.StringIO(outputs["csv"][1])))
    assert list(dict.fromkeys(r["fis"] for r in rows)) == once
    assert outputs["text"][1].splitlines()[0].split() == ["feature"] + once
    _, single, _ = run(capsys, "score", "--model", chain_model, "--fis", ",".join(once))
    assert outputs["text"][1] == single


def test_score_unknown_fis(chain_model, capsys):
    code, _, err = run(capsys, "score", "--model", chain_model, "--fis", "Z")
    assert code == 2
    assert "unknown score id" in err


def test_score_rank_column(chain_model, capsys):
    code, out, _ = run(capsys, "score", "--model", chain_model,
                       "--fis", "D", "--rank", "--format", "json")
    assert code == 0
    assert json.loads(out)["scores"]["D"]["ranking"] == [1, 2, 3, 3]


# ---------------------------------------------------------------------------
# props

def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_props_matrix_consistent(capsys):
    code, out, _ = run(capsys, "props", "--corpus", "20", "--budget", "200",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["consistent"] is True
    assert report["cells"]["E/P05"] == "fails"
    assert report["cells"]["S/P09"] == "strong"
    # every cell, witness and replay parameter, byte for byte
    assert sha256(out) == ("fb47c63031aeedd527ad6ccd95e51718"
                           "330b77e583b24caffd865c1ac88cfd70")


def test_props_matrix_pinned_at_another_seed(capsys):
    # a second seed: another corpus and other search witnesses
    code, out, _ = run(capsys, "props", "--seed", "3", "--corpus", "20",
                       "--budget", "200", "--format", "json")
    assert code == 0
    assert sha256(out) == ("f2ac17f219b6cc9d2ed467522d2bb4ca"
                           "c27a513a145fb75ab15dc8208a514e2b")


@pytest.mark.parametrize("fmt, digest", [
    ("text", "e8304abb0965b692af6abb58f574756460d4b6d6f6ec668157a4e517190e3643"),
    ("csv", "0256ac46c8e9268f8e33b6845622e6be03fac72f51357956a833e9d54471ad22"),
], ids=["text", "csv"])
def test_props_matrix_pinned_in_text_and_csv(fmt, digest, capsys):
    # the text grid lists each witness with its generator; the csv rows
    # carry every cell
    code, out, _ = run(capsys, "props", "--seed", "5", "--corpus", "20",
                       "--budget", "200", "--format", fmt)
    assert code == 0
    assert sha256(out) == digest


def test_props_search(capsys):
    code, out, _ = run(capsys, "props", "--search", "P05", "--fis", "E",
                       "--budget", "50", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["witness_found"] is True
    assert report["witness"]["generator"]["index"] == 0


@pytest.mark.parametrize("spelling", ["e", "expected_value", None],
                         ids=["e", "expected_value", "default"])
def test_props_search_normalizes_score_ids(spelling, capsys):
    # a score property searches E when no --fis is given
    _, expected, _ = run(capsys, "props", "--search", "P05", "--fis", "E",
                         "--budget", "50", "--format", "json")
    fis = ["--fis", spelling] if spelling else []
    code, out, err = run(capsys, "props", "--search", "P05", *fis,
                         "--budget", "50", "--format", "json")
    assert code == 0, err
    assert out == expected
    assert json.loads(out)["subject"] == "E"


@pytest.mark.parametrize("subject", ["banzhaf", "johnston"])
def test_props_search_template_property(subject, capsys):
    code, out, _ = run(capsys, "props", "--search", "P01", "--fis", subject,
                       "--budget", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["subject"] == subject
    assert report["witness_found"] is True
    assert report["witness"]["template"] == subject
    assert report["witness"]["cf_id"] == "CF_W"
    assert report["witness"]["family_mode"] == "all_subsets"


@pytest.mark.parametrize("prop", ["P01", "P02", "P03", "P04"])
def test_props_search_template_property_needs_a_template(prop, capsys):
    code, out, err = run(capsys, "props", "--search", prop, "--budget", "1")
    assert code == 2
    assert out == ""
    assert err == (f"error: props --search {prop} needs a template name "
                   f"in --fis, e.g. banzhaf\n")


@pytest.mark.parametrize("argv", [
    ["P05-x", "--fis", "E"], ["P03-strong", "--fis", "banzhaf"],
    ["P09-weak-x", "--fis", "S"], ["P09-", "--fis", "S"], ["P09-none", "--fis", "S"]],
    ids=lambda argv: argv[0])
def test_props_search_refuses_an_unknown_property_suffix(argv, capsys):
    code, out, err = run(capsys, "props", "--search", *argv, "--budget", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: cannot check property {argv[0]!r}\n"


def test_props_duality_tabulation(capsys):
    code, out, _ = run(capsys, "props", "--duality", "--fis", "S,B",
                       "--budget", "25", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["levels"]["S"] == {"strong": 25}
    assert report["levels"]["B"] == {"strong": 25}


@pytest.mark.parametrize("fis", ["DUAL(S)", "S,DUAL(S)", "B, dual(b)"])
def test_props_duality_refuses_a_dual_mark(fis, capsys):
    # the check compares each score with its dual, so DUAL(S) would be
    # read as S under the name S
    code, out, err = run(capsys, "props", "--duality", "--fis", fis, "--budget", "2")
    assert code == 2
    assert out == ""
    assert err == "error: props --duality takes a score id, not DUAL(...)\n"


@pytest.mark.parametrize("fis, counted", [
    ("S,S", ["S"]), ("S,shapley_shubik,B,S", ["S", "B"]), ("B,S,b", ["B", "S"])])
def test_props_duality_counts_each_named_score_once(fis, counted, capsys):
    code, out, _ = run(capsys, "props", "--duality", "--fis", fis,
                       "--budget", "2", "--format", "json")
    assert code == 0
    levels = json.loads(out)["levels"]  # keys sorted by the writer
    assert sorted(levels) == sorted(counted)
    assert all(sum(level.values()) == 2 for level in levels.values())
    code, out, _ = run(capsys, "props", "--duality", "--fis", fis, "--budget", "2")
    assert out.splitlines() == [f"{f}: strong=2" for f in counted]


# ---------------------------------------------------------------------------
# repro

def test_repro_all_pass(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    assert "overall: PASS" in out
    assert "FAIL" not in out.replace("PASS/FAIL", "")
    assert "responsibility variants" in out


def test_repro_json_lists_checks(capsys):
    code, out, _ = run(capsys, "repro", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "PASS"
    assert all(c["status"] == "PASS" for c in report["checks"])
    assert report["responsibility_variants"]["family_size"] == 2


# ---------------------------------------------------------------------------
# wvg

def test_wvg_majority_game(capsys):
    code, out, _ = run(capsys, "wvg", "--quota", "3", "--weights", "2,1,1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["indices"]["shapley_shubik"]["values"] == ["2/3", "1/6", "1/6"]
    assert report["indices"]["holler_packel"]["values"] == ["1", "1/2", "1/2"]


def test_wvg_symmetric_game(capsys):
    code, out, _ = run(capsys, "wvg", "--quota", "2", "--weights", "1,1,1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["indices"]["shapley_shubik"]["values"] == ["1/3"] * 3


def test_wvg_reports_each_named_template_once(capsys):
    # every format counts a template once, in the order first named
    argv = ("wvg", "--quota", "2", "--weights", "2,1,1", "--template")
    outputs = {fmt: run(capsys, *argv, "johnston,banzhaf,johnston", "--format", fmt)
               for fmt in ("json", "csv", "text")}
    assert all(code == 0 for code, _, _ in outputs.values())
    assert list(json.loads(outputs["json"][1])["indices"]) == ["banzhaf", "johnston"]
    rows = list(csv.DictReader(io.StringIO(outputs["csv"][1])))
    assert [r["template"] for r in rows] == ["johnston"] * 3 + ["banzhaf"] * 3
    assert outputs["text"][1].splitlines()[1].split() == ["voter", "johnston", "banzhaf"]
    _, once, _ = run(capsys, *argv, "johnston,banzhaf")
    assert outputs["text"][1] == once


def test_wvg_quota_above_total_weight(capsys):
    code, _, err = run(capsys, "wvg", "--quota", "5", "--weights", "2,1,1")
    assert code == 2
    assert "quota" in err


# ---------------------------------------------------------------------------
# report discipline

def test_reports_byte_identical(chain_model, capsys):
    _, first, _ = run(capsys, "score", "--model", chain_model, "--fis", "all",
                      "--format", "json")
    _, second, _ = run(capsys, "score", "--model", chain_model, "--fis", "all",
                       "--format", "json")
    assert first == second
    _, t1, _ = run(capsys, "props", "--corpus", "10", "--budget", "100")
    _, t2, _ = run(capsys, "props", "--corpus", "10", "--budget", "100")
    assert t1 == t2


def test_score_report_pinned(chain_model, capsys):
    code, out, _ = run(capsys, "score", "--model", chain_model, "--fis", "all",
                       "--dual", "--rank", "--format", "json")
    assert code == 0
    assert sha256(out) == ("171e6642d755ee37e12a8d2e8de75ecf"
                           "1f2eb77a6180a612410d522f1863ff9a")


def _ternary_tree(path=()):
    """Multi-way tree over six ternary features emitting classes 0..2."""
    total = sum(v for _, v in path)
    if len(path) == 5 or (path and total % 4 == 3):
        return {"class": (sum(f * v for f, v in path) + len(path)) % 3}
    free = [i for i in range(1, 7) if i not in {f for f, _ in path}]
    feature = free[(len(path) + total) % len(free)]
    return {"feature": feature,
            "branches": [{"value": v, "child": _ternary_tree(path + ((feature, v),))}
                         for v in range(3)]}


@pytest.fixture
def ternary_tree_model(tmp_path):
    # multi-valued domains (729 points) and a multi-class label sum
    doc = {"features": [{"id": i, "values": [0, 1, 2]} for i in range(1, 7)],
           "classes": [0, 1, 2], "body": {"kind": "tree", "root": _ternary_tree()},
           "instance": {"point": [2, 0, 1, 1, 1, 1], "label": 0}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mixed_domain_model(tmp_path):
    # domain sizes 1, 2, 3 and 4: the point count of a subset's slice is not a
    # power of two and differs from subset to subset
    doc = {"features": [{"id": i, "values": list(range(i))} for i in range(1, 5)],
           "classes": [0, 1, 2],
           "body": {"kind": "table",
                    "labels": [0, 0, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2,
                               0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1]},
           "instance": {"point": [0, 1, 1, 2], "label": 1}}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_score_report_pinned_ternary_tree(ternary_tree_model, capsys):
    code, out, _ = run(capsys, "score", "--model", ternary_tree_model, "--fis", "all",
                       "--dual", "--rank", "--format", "json")
    assert code == 0
    assert sha256(out) == ("191c9abbf9fcb5535f52b910292ac488"
                           "81e9a4545954c551c3e3d93ec2a66a97")


def test_score_report_pinned_mixed_domain_sizes(mixed_domain_model, capsys):
    code, out, _ = run(capsys, "score", "--model", mixed_domain_model, "--fis", "all",
                       "--dual", "--rank", "--format", "json")
    assert code == 0
    assert sha256(out) == ("b3cf053155925600d47779f385dd44c4"
                           "f40e7173bc2a7bdcd38d393e05e57905")


@pytest.mark.parametrize("model, digest", [
    ("ternary_tree_model",
     "1238360228877fe5f41cccbcae5987fefadf22f6d0bad2053a04ecd292579d6c"),
    ("mixed_domain_model",
     "b4254f6277d5b37b29caa5dfa6084af33cf31c7da6a605e8ffb88ee4de2ac03f"),
])
def test_explain_report_pinned(model, digest, request, capsys):
    # the minimal families, their relevancy and the hitting-set check
    code, out, _ = run(capsys, "explain", "--model", request.getfixturevalue(model),
                       "--format", "json")
    assert code == 0
    assert sha256(out) == digest


def test_wvg_report_pinned(capsys):
    code, out, _ = run(capsys, "wvg", "--quota", "5", "--weights", "3,2,2,1",
                       "--template", "all", "--format", "json")
    assert code == 0
    assert sha256(out) == ("10f08f5f471421620c94eb20813cad9c"
                           "453280b37ffdb340fd6fde26a703dad4")


TEXT_AND_CSV_PINS = [
    ("chain_model", ("score", "--fis", "all", "--dual", "--rank"), "text",
     "dc18ee16b86d7fda53773a63cf89ad5ae227718f72f701c064561447e77b54cb"),
    ("chain_model", ("score", "--fis", "all", "--dual", "--rank"), "csv",
     "e3aca479ce45aaaf088488d9663ee66b01c4329c8a24d6b4706eefe111a1eca8"),
    ("chain_model", ("explain",), "text",
     "686291799d02ef44ad94e5a740c2583560c3e48719f43edc3cd16da18cfb042f"),
    ("chain_model", ("explain",), "csv",
     "d3748aa3e09ddc21a62db89f485bfbc453ce155891513aab61186be12fb85128"),
    ("ternary_tree_model", ("score", "--fis", "all", "--dual", "--rank"), "text",
     "30525fa36eaf0004ae7f5d178165a6b485a682b78e2d41ab65830ef90b4bb0c0"),
    ("ternary_tree_model", ("score", "--fis", "all", "--dual", "--rank"), "csv",
     "9783ff3252ea15609dccbc157cb2983d48ba71b523c0ecda751ff426e1983866"),
    ("ternary_tree_model", ("explain",), "text",
     "a7844af6af616aeaf9cd4117c543c148af156617064bebfd3ef8eda9af68071d"),
    ("ternary_tree_model", ("explain",), "csv",
     "d83228efa2ba17d4e0978a40f15be00b2664c208d3c0f3d90cd8af137f599535"),
]


@pytest.mark.parametrize("model, argv, fmt, digest", TEXT_AND_CSV_PINS,
                         ids=[f"{model.removesuffix('_model')}-{argv[0]}-{fmt}"
                              for model, argv, fmt, _ in TEXT_AND_CSV_PINS])
def test_score_and_explain_pinned_in_text_and_csv(model, argv, fmt, digest, request,
                                                  capsys):
    # the text grid and csv rows are built only when asked for
    code, out, _ = run(capsys, *argv, "--model", request.getfixturevalue(model),
                       "--format", fmt)
    assert code == 0
    assert sha256(out) == digest


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(obj, sort_keys=True, indent=2) is its oracle

def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


CLI_REPORTS = [
    ("chain_model", ("explain",)),
    ("chain_model", ("explain", "--instance", "0,0,0,0")),
    ("ternary_tree_model", ("explain",)),
    ("mixed_domain_model", ("explain",)),
    ("chain_model", ("score", "--fis", "D,H")),
    ("chain_model", ("score", "--fis", "all", "--dual", "--rank", "--oracle")),
    ("ternary_tree_model", ("score", "--fis", "all", "--dual", "--rank")),
    ("mixed_domain_model", ("score", "--fis", "all", "--dual", "--rank")),
    ("huge_label_model", ("score", "--fis", "E,DUAL(E)")),
    (None, ("props", "--corpus", "20", "--budget", "200")),
    (None, ("props", "--seed", "3", "--corpus", "20", "--budget", "200")),
    (None, ("props", "--search", "P05", "--fis", "E", "--budget", "50")),
    (None, ("props", "--search", "P01", "--fis", "banzhaf", "--budget", "5")),
    (None, ("props", "--search", "P08", "--fis", "S", "--budget", "5")),
    (None, ("props", "--duality", "--fis", "S,B", "--budget", "25")),
    (None, ("repro",)),
    (None, ("wvg", "--quota", "3", "--weights", "2,1,1")),
    (None, ("wvg", "--quota", "5", "--weights", "3,2,2,1", "--template", "all")),
]


@pytest.mark.parametrize("model, argv", CLI_REPORTS,
                         ids=[" ".join(argv + ((model.removesuffix("_model"),) if model else ()))
                              for model, argv in CLI_REPORTS])
def test_json_writer_matches_json_dumps_on_every_report(model, argv, request,
                                                        monkeypatch, capsys):
    reports = []
    emit = cli._emit

    def recording_emit(report, *rest):
        reports.append(report)
        emit(report, *rest)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    if model is not None:
        argv += ("--model", request.getfixturevalue(model))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    [report] = reports
    assert out == dumps(report) + "\n"


SPECIAL_CHARACTERS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9",
                      "\u2028", "\ufeff", "\U0001f600", "\U0010ffff", "\ud800"]
JSON_STRINGS = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL_CHARACTERS)),
                       max_size=8)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.integers(-10**80, 10**80),
    st.floats(allow_nan=True, allow_infinity=True), JSON_STRINGS)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
        st.lists(st.integers(-10**20, 10**20), max_size=4),
        st.lists(JSON_STRINGS, max_size=4).map(tuple)),
    max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=JSON_VALUES)
def test_json_writer_matches_json_dumps_on_random_values(value):
    assert _json(value) == dumps(value)


@pytest.mark.parametrize("value", [
    {1: "a"}, {"a": {None: 1}}, {"a": [{True: 1}]}, {(1, 2): 0}, {"a": 1, 2: 3},
    {1.5: 0},
], ids=repr)
def test_json_writer_refuses_keys_that_are_not_strs(value):
    # json.dumps would write these keys as strs; a report never has them
    with pytest.raises(TypeError):
        _json(value)

def _chain_document():
    return {
        "features": [{"id": i, "values": [0, 1]} for i in range(1, 5)],
        "classes": [0, 1],
        "body": {"kind": "boolexpr", "expr": "x1 & (x2 | x3 & x4)"},
        "instance": {"point": [1, 1, 1, 1], "label": 1},
    }


def _no_values(doc):
    del doc["features"][0]["values"]


def _float_labels(doc):
    doc["body"] = {"kind": "table", "labels": [0.0] + [1] * 15}


@pytest.mark.parametrize("mutate", [
    _no_values,
    lambda doc: doc.update(body=[1]),
    lambda doc: doc.update(instance={}),
    lambda doc: doc.update(features=[3]),
    lambda doc: doc.update(classes=5),
    _float_labels,
    lambda doc: doc["instance"].update(label=1.0),
], ids=["feature-without-values", "body-not-object", "instance-without-point",
        "feature-not-object", "classes-not-list", "float-label",
        "float-instance-label"])
def test_malformed_model_is_a_usage_error(mutate, tmp_path, capsys):
    doc = _chain_document()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "explain", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _letters_document():
    """A table over two features with domain ["a", "b"], so that the string
    "ab" or the object {"a": 0, "b": 1} would read as a domain or a point."""
    return {
        "features": [{"id": i, "values": ["a", "b"]} for i in (1, 2)],
        "classes": [0, 1],
        "body": {"kind": "table", "labels": [0, 1, 1, 1]},
        "instance": {"point": ["a", "b"], "label": 1},
    }


def _wvg_document():
    return {
        "features": [{"id": i, "values": [0, 1]} for i in (1, 2)],
        "classes": [0, 1],
        "body": {"kind": "wvg", "quota": 2, "weights": [2, 1]},
        "instance": {"point": [1, 0], "label": 1},
    }


_ARRAY_FIELDS = {
    "values": (_letters_document, lambda doc: doc["features"][0]),
    "point": (_letters_document, lambda doc: doc["instance"]),
    "classes": (_letters_document, lambda doc: doc),
    "labels": (_letters_document, lambda doc: doc["body"]),
    "weights": (_wvg_document, lambda doc: doc["body"]),
}


@pytest.mark.parametrize("bad", ["ab", {"a": 0, "b": 1}], ids=["string", "object"])
@pytest.mark.parametrize("field", list(_ARRAY_FIELDS))
@pytest.mark.parametrize("command", ["explain", "score"])
def test_string_or_object_where_an_array_belongs(command, field, bad, tmp_path,
                                                 capsys):
    # a string or an object must not be read as its characters or its keys
    build, holder = _ARRAY_FIELDS[field]
    doc = build()
    code, _, _ = run(capsys, command, "--model", _written(tmp_path, doc))
    assert code == 0
    holder(doc)[field] = bad
    code, out, err = run(capsys, command, "--model", _written(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {field!r} must be a JSON array\n"


def _written(tmp_path, doc) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("node, message", MALFORMED_NODES)
def test_malformed_tree_node_is_a_usage_error(node, message, tmp_path, capsys):
    path = _written(tmp_path, malformed_tree_document(node))
    code, out, err = run(capsys, "explain", "--model", path)
    assert code == 2
    assert out == ""
    assert err == f"error: root/branches[1]/branches[0]/branches[1]: {message}\n"


def test_deep_expression_is_a_usage_error(tmp_path, capsys):
    doc = _chain_document()
    doc["body"]["expr"] = "!" * 3000 + "x1"
    doc["features"] = doc["features"][:1]
    doc["instance"] = {"point": [1]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "explain", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "deeper than" in err


def test_deeply_nested_model_document_is_a_usage_error(tmp_path, capsys, deep_document):
    path = tmp_path / "deep.json"
    path.write_text(deep_document)
    code, out, err = run(capsys, "explain", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: model document nests too deeply\n"


def _tree_split_on(feature):
    doc = _chain_document()
    doc["body"] = {"kind": "tree", "root": {"feature": feature, "branches": [
        {"value": 0, "child": {"class": 0}}, {"value": 1, "child": {"class": 1}}]}}
    return doc


def _feature_id(feature, value):
    doc = _chain_document()
    doc["features"][feature - 1]["id"] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (_feature_id(1, True), "feature id must be an integer, got True"),
    (_feature_id(2, 2.0), "feature id must be an integer, got 2.0"),
    (_tree_split_on(True), "tree split feature must be an integer, got True"),
], ids=["true-id", "float-id", "true-split-feature"])
def test_non_integer_feature_is_a_usage_error(doc, message, tmp_path, capsys):
    # true and 2.0 equal 1 and 2, so they would pass every range check and
    # be written back as true and 2.0
    code, out, err = run(capsys, "explain", "--model", _written(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value, message", [
    (True, "instance value True of feature 1 is not the domain's 1"),
    (1.0, "instance value 1.0 of feature 1 is not the domain's 1"),
], ids=["true", "float"])
def test_instance_value_of_another_type_is_a_usage_error(value, message, tmp_path, capsys):
    # true and 1.0 equal the domain's 1, so they would find its rank and be
    # written back into the report as true and 1.0
    doc = _chain_document()
    doc["instance"]["point"][0] = value
    code, out, err = run(capsys, "explain", "--model", _written(tmp_path, doc),
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_instance_token_naming_two_domain_values_is_a_usage_error(tmp_path, capsys):
    # "1" writes both the domain's "1" and its 1: taking the first match
    # would report the instance ("1", 0) with label 0, and no token could
    # name the document's own instance (1, 0) of label 1
    doc = {"features": [{"id": 1, "values": ["1", 1]}, {"id": 2, "values": [0, 1]}],
           "classes": [0, 1], "body": {"kind": "table", "labels": [0, 0, 1, 0]},
           "instance": {"point": [1, 0], "label": 1}}
    model = _written(tmp_path, doc)
    code, out, err = run(capsys, "explain", "--model", model, "--instance", "1,0")
    assert code == 2
    assert out == ""
    assert err == "error: value '1' names 2 values of feature 1: ['1', 1]\n"
    code, out, _ = run(capsys, "explain", "--model", model, "--format", "json")
    assert code == 0
    assert json.loads(out)["instance"] == [1, 0] and json.loads(out)["label"] == 1


@pytest.mark.parametrize("value, message", [
    (True, "tree branch value True of feature 1 is not the domain's 1"),
    (0.0, "tree branch value 0.0 of feature 1 is not the domain's 0"),
], ids=["true", "float"])
def test_tree_branch_value_of_another_type_is_a_usage_error(value, message, tmp_path,
                                                            capsys):
    doc = _tree_split_on(1)
    doc["body"]["root"]["branches"][int(value)]["value"] = value
    code, out, err = run(capsys, "explain", "--model", _written(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("workers, expected", [
    (0, 2), ((os.cpu_count() or 1) + 1, 2), (1, 0)])
def test_workers_limited_to_cpu_count(workers, expected, chain_model, capsys):
    # both rejected values fail in argument parsing, before any pool starts
    code, out, err = run(capsys, "score", "--model", chain_model, "--fis", "D",
                         "--workers", str(workers))
    assert code == expected
    if expected:
        assert out == ""
        assert "--workers" in err


@pytest.mark.parametrize("flag, argv", [
    ("--budget", ["props", "--duality", "--budget", "-3"]),
    ("--budget", ["props", "--budget", "0"]),
    ("--corpus", ["props", "--corpus", "-2"]),
    ("--fis", ["score", "--fis", ""]),
    ("--fis", ["score", "--fis", " , "]),
    ("--fis", ["props", "--duality", "--fis", ","]),
], ids=["negative-budget", "zero-budget", "negative-corpus", "empty-fis",
        "blank-fis", "blank-props-fis"])
def test_argv_that_would_report_nothing_is_a_usage_error(flag, argv, chain_model,
                                                         capsys):
    if argv[0] == "score":
        argv = argv + ["--model", chain_model]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}" in err


@pytest.mark.parametrize("argv, flag", [
    (["--search", "P05", "--duality"], "--duality"),
    (["--fis", "S"], "--fis"),
    (["--search", "P05", "--fis", "E", "--corpus", "5"], "--corpus"),
], ids=["search-and-duality", "fis-in-matrix", "corpus-outside-matrix"])
def test_props_flag_of_a_mode_not_run_is_a_usage_error(argv, flag, capsys):
    code, out, err = run(capsys, "props", "--budget", "1", *argv)
    assert code == 2
    assert out == ""
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and flag in error_lines[0]


@pytest.mark.parametrize("argv", [
    ["explain", "--model", "MODEL"], ["score", "--model", "MODEL"], ["repro"],
    ["wvg", "--quota", "3", "--weights", "2,1,1"]],
    ids=["explain", "score", "repro", "wvg"])
def test_seed_only_on_props(argv, chain_model, capsys):
    # only props draws random problems; the other subcommands refuse --seed
    argv = [chain_model if arg == "MODEL" else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--seed", "9")
    assert code == 2
    assert out == ""
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and "--seed" in error_lines[0]


def test_wvg_voter_limit(monkeypatch, capsys):
    monkeypatch.delenv("FISLAB_MAX_FEATURES", raising=False)
    code, out, err = run(capsys, "wvg", "--quota", "2", "--weights", ",".join("1" * 17))
    assert code == 2
    assert out == ""
    assert err == "error: 17 voters exceeds the limit of 16\n"


def test_invariant_error_has_its_own_exit_path(chain_model, monkeypatch, capsys):
    # the contrastive family loses a member, so relevancy disagrees
    cxps = explain.enumerate_cxps

    def short_cxps(problem):
        family = cxps(problem)
        first = family.members[0]
        return explain.ExplanationFamily(
            family.kind, bytes(s == first for s in range(len(family.flags))))

    monkeypatch.setattr(explain, "enumerate_cxps", short_cxps)
    code, out, err = run(capsys, "explain", "--model", chain_model)
    assert INTERNAL_ERROR not in (0, 1, 2)
    assert code == INTERNAL_ERROR
    assert out == ""
    assert err.startswith("internal error: relevancy mismatch")
    assert err.count("\n") == 1


def test_hitting_set_duality_failure_is_an_internal_error(chain_model, monkeypatch,
                                                         capsys):
    # the duality is a theorem, so a FAIL is a bug and no report is printed
    monkeypatch.setattr(explain, "minimal_hitting_sets",
                        lambda members, universe: tuple(members)[:1])
    code, out, err = run(capsys, "explain", "--model", chain_model)
    assert code == INTERNAL_ERROR
    assert out == ""
    assert err.startswith("internal error: hitting-set duality")
    assert err.count("\n") == 1


def test_parser_is_built_once_and_reused(chain_model, ternary_tree_model, capsys):
    # one parser serves every command of a process; no parse leaks into the
    # next, so each report matches its pin or the first call of its argv
    build_parser.cache_clear()
    code, out, err = run(capsys, "score")  # --model is required
    assert (code, out) == (2, "")
    assert "--model" in err
    score_argv = ["score", "--model", chain_model, "--fis", "all", "--dual", "--rank",
                  "--format", "json"]
    code, first, _ = run(capsys, *score_argv)
    assert code == 0
    assert sha256(first) == ("171e6642d755ee37e12a8d2e8de75ecf"
                             "1f2eb77a6180a612410d522f1863ff9a")
    code, out, _ = run(capsys, "explain", "--model", ternary_tree_model, "--format", "json")
    assert code == 0
    assert sha256(out) == ("1238360228877fe5f41cccbcae5987fe"
                           "fadf22f6d0bad2053a04ecd292579d6c")
    # after a call that set --dual, --rank and --format, the defaults are back
    code, text, _ = run(capsys, "score", "--model", chain_model, "--fis", "D")
    assert code == 0 and text.startswith("feature")
    assert run(capsys, *score_argv) == (0, first, "")
    code, out, _ = run(capsys, "props", "--corpus", "20", "--budget", "200",
                       "--format", "json")
    assert code == 0
    assert sha256(out) == ("fb47c63031aeedd527ad6ccd95e51718"
                           "330b77e583b24caffd865c1ac88cfd70")
    assert run(capsys, "score", "--model", chain_model, "--fis", "D") == (0, text, "")
    code, out, err = run(capsys, "score", "--model", chain_model, "--fis", "D",
                         "--workers", str((os.cpu_count() or 1) + 1))
    assert (code, out) == (2, "")
    assert "--workers" in err
    assert build_parser.cache_info().misses == 1


def test_usage_error_exit_code(capsys):
    assert main(["score"]) == 2  # --model is required
    capsys.readouterr()


HALF_EVEN_CASES = [
    (Fraction(1, 3), "0.333333"),
    (Fraction(5, 16), "0.312500"),
    (Fraction(1, 2) + Fraction(5, 10**7), "0.500000"),
    (Fraction(15, 10**7), "0.000002"),
    (Fraction(-1, 3), "-0.333333"),
    (Fraction(-5, 16), "-0.312500"),
    (Fraction(-7), "-7.000000"),
    (Fraction(0), "0.000000"),
    (Fraction(-3, 2 * 10**6), "-0.000002"),
    # negative values that round to zero keep their sign
    (Fraction(-1, 2 * 10**6), "-0.000000"),
    (Fraction(-1, 3 * 10**6), "-0.000000"),
]


def check_decimals(cases):
    """Each case through decimal_str, and through _decimal on its reduced
    pair and on unreduced ones (a score vector's num / den need not be
    reduced on its own)."""
    for value, expected in cases:
        assert decimal_str(value) == expected, value
        for k in (1, 2, 3, 10**6):
            assert _decimal(value.numerator * k, value.denominator * k) == expected, (value, k)


def test_decimal_display_half_even():
    check_decimals(HALF_EVEN_CASES)


@pytest.fixture
def huge_label_model(tmp_path):
    """One feature; the instance's class has 61 digits, so the expected
    value's decimal needs more than 50 significant digits."""
    doc = {
        "features": [{"id": 1, "values": [0, 1]}],
        "classes": [0, 10**60],
        "body": {"kind": "table", "labels": [0, 10**60]},
        "instance": {"point": [1], "label": 10**60},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_decimal_of_a_value_past_50_digits(huge_label_model, capsys):
    value = "5" + "0" * 59
    decimal = value + ".000000"
    code, out, err = run(capsys, "score", "--model", huge_label_model, "--fis", "E")
    assert (code, err) == (0, "")
    assert f"{value} ({decimal})" in out
    code, out, err = run(capsys, "score", "--model", huge_label_model, "--fis", "E",
                         "--format", "json")
    assert (code, err) == (0, "")
    entry = json.loads(out)["scores"]["E"]
    assert (entry["values"], entry["decimals"]) == ([value], [decimal])
    code, out, err = run(capsys, "score", "--model", huge_label_model, "--fis", "E",
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert list(csv.DictReader(io.StringIO(out))) == [
        {"fis": "E", "feature": "1", "value": value, "decimal": decimal}]


BIG = 10**60
PAST_50_DIGITS_CASES = [
    (Fraction(BIG * 10**7 + 5, 10**7), f"{BIG}.000000"),
    (Fraction(BIG * 10**7 + 15, 10**7), f"{BIG}.000002"),
    (Fraction(-BIG * 10**7 - 5000001, 10**7), f"-{BIG}.500000"),
    # rounding up adds a digit
    (Fraction(BIG * 10**7 - 5, 10**7), f"{BIG}.000000"),
    (Fraction(-BIG, 3), "-" + "3" * 60 + ".333333"),
    (Fraction(-1, 10**9), "-0.000000"),
    # rounded values of 50 and of 51 digits
    (Fraction(10**44 - 1) + Fraction(1, 3), "9" * 44 + ".333333"),
    (Fraction(10**44) + Fraction(1, 3), f"{10**44}.333333"),
    (Fraction(10**51 - 5, 10**7), f"{10**44}.000000"),
]


def test_decimal_rounds_half_even_past_50_digits():
    check_decimals(PAST_50_DIGITS_CASES)


def _env_with_src() -> dict:
    """This environment with the package's own directory on the path, as in
    a checkout without install."""
    src = str(Path(fislab.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_python_dash_m_runs_the_command_line():
    result = subprocess.run([sys.executable, "-m", "fislab", "--help"], env=_env_with_src(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: fislab ")


def test_chain_probe_matches_the_command_line_in_process(tmp_path, capsys):
    # tools/chain_probe.py runs each command in a process of its own; its
    # digests must be those of the same commands through cli.main here
    path = Path(__file__).resolve().parents[1] / "tools" / "chain_probe.py"
    spec = importlib.util.spec_from_file_location("chain_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    result = subprocess.run([sys.executable, str(path), "--m", "6"], env=_env_with_src(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2, lines
    model = tmp_path / "chain6.json"
    model.write_text(json.dumps(probe.chain_document(6)))
    for line in lines:
        command, digest = line.split()[0], line.split()[-1]
        code, out, _ = run(capsys, *probe.COMMANDS[command], "--model", str(model),
                           "--format", "json")
        assert code == 0
        assert digest == hashlib.sha256(out.encode("utf-8")).hexdigest(), line
