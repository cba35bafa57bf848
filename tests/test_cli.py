import csv
import hashlib
import io
import json

import pytest

from fislab.cli import decimal_str, main
from fractions import Fraction


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


def test_props_search(capsys):
    code, out, _ = run(capsys, "props", "--search", "P05", "--fis", "E",
                       "--budget", "50", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["witness_found"] is True
    assert report["witness"]["generator"]["index"] == 0


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


def test_props_duality_tabulation(capsys):
    code, out, _ = run(capsys, "props", "--duality", "--fis", "S,B",
                       "--budget", "25", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["levels"]["S"] == {"strong": 25}
    assert report["levels"]["B"] == {"strong": 25}


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


def test_wvg_quota_above_total_weight(capsys):
    code, _, err = run(capsys, "wvg", "--quota", "5", "--weights", "2,1,1")
    assert code == 2
    assert "quota" in err


# ---------------------------------------------------------------------------
# report discipline

def test_reports_byte_identical(chain_model, capsys):
    _, first, _ = run(capsys, "score", "--model", chain_model, "--fis", "all",
                      "--format", "json", "--seed", "0")
    _, second, _ = run(capsys, "score", "--model", chain_model, "--fis", "all",
                       "--format", "json", "--seed", "0")
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


def test_usage_error_exit_code(capsys):
    assert main(["score"]) == 2  # --model is required
    capsys.readouterr()


def test_decimal_display_half_even():
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(5, 16)) == "0.312500"
    assert decimal_str(Fraction(1, 2) + Fraction(5, 10**7)) == "0.500000"
    assert decimal_str(Fraction(15, 10**7)) == "0.000002"
    assert decimal_str(Fraction(-1, 3)) == "-0.333333"
