"""tools/paired_bench.py: its reading of bench/run.py output and its
summary of paired runs, on canned lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
_SPEC = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def run_output(ops_per_s: float, rss: float, sha: str = "ab" * 32) -> str:
    """Lines as bench/run.py prints them, the result object last."""
    return "\n".join([
        "workload wide seed 10 trace 0",
        "unscaled op_ms_p50 9.800; kernel median 3.600 ms (KERNEL_S 3.5 ms)",
        "12 passes of 5 ops, 60 latency samples, failed_frac 0.000000",
        f"report_sha256 {sha}",
        '{"correct": true, "attempted": 60, "failed": 0, "metrics": {'
        f'"ops_per_s": {{"value": {ops_per_s}, "unit": "1/s"}}, '
        f'"peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}'])


def paired_runs(parent, tree):
    """Runs of both sides, one pair per seed, the first side alternating."""
    runs = []
    for k, ((p_ops, p_rss), (t_ops, t_rss)) in enumerate(zip(parent, tree)):
        for side, (ops, rss) in (("parent", (p_ops, p_rss)), ("tree", (t_ops, t_rss))):
            runs.append({"side": side, "seed": 10 + k,
                         "order": (side == "tree") ^ (k % 2),
                         **paired.parse_run(run_output(ops, rss))})
    return runs


def test_parse_run_reads_the_last_line_and_the_digest():
    run = paired.parse_run(run_output(93.8, 61.5, "cd" * 32) + "\n")
    assert run == {"metrics": {"ops_per_s": 93.8, "peak_rss_mb": 61.5},
                   "attempted": 60, "failed": 0, "report_sha256": "cd" * 32}


def test_summary_counts_pairs_won_and_reads_the_parent_quartiles():
    parent = [(93.8, 60.0), (93.7, 60.0), (95.0, 60.0), (95.6, 60.0), (93.1, 60.0)]
    tree = [(101.5, 61.0), (100.7, 59.0), (102.0, 66.5), (93.0, 59.5), (100.5, 60.0)]
    ops, rss = paired.summarize(paired_runs(parent, tree), END_TO_END)
    assert ops["pairs"] == 5 and ops["won"] == 4
    assert ops["parent_median"] == 93.8 and ops["tree_median"] == 100.7
    assert (ops["parent_q1"], ops["parent_q3"]) == (93.7, 95.0)
    assert ops["beyond_iqr"] and ops["within_bound"]
    assert ops["change"] == pytest.approx(100.7 / 93.8 - 1)
    # lower is better: 59.0 and 59.5 win, the tie at 60.0 does not
    assert rss["won"] == 2 and rss["tree_median"] == 60.0
    assert rss["within_bound"] and not rss["beyond_iqr"]


def test_summary_flags_a_metric_past_its_bound():
    parent = [(100.0, 60.0), (100.0, 60.0)]
    tree = [(70.0, 67.0), (74.0, 67.0)]   # 28 % slower, 11.7 % more memory
    ops, rss = paired.summarize(paired_runs(parent, tree), END_TO_END)
    assert not ops["within_bound"] and not rss["within_bound"]
    assert ops["won"] == rss["won"] == 0


def test_report_has_a_row_per_pair_and_a_line_per_metric():
    runs = paired_runs([(93.8, 60.0), (95.0, 60.0)], [(101.5, 59.0), (100.0, 61.0)])
    runs[-1]["report_sha256"] = "ef" * 32
    text = paired.format_report("wide", runs, paired.summarize(runs, END_TO_END))
    lines = text.splitlines()
    assert lines[0] == "== wide"
    assert lines[2].split()[:3] == ["10", "parent", "same"]
    assert lines[3].split()[:3] == ["11", "tree", "DIFFERS"]
    assert "won 2 of 2" in lines[4] and "won 1 of 2" in lines[5]
    assert len(lines) == 6


def test_seeds_read_as_a_range_or_a_list():
    assert paired.parse_seeds("10-13") == [10, 11, 12, 13]
    assert paired.parse_seeds("3,5,8") == [3, 5, 8]


def test_a_workload_with_no_complete_pair_keeps_its_runs(tmp_path, monkeypatch, capsys):
    # every parent run of the first workload fails: its runs are still
    # recorded, with no summary, the next workload still runs, and the tool
    # exits 1 instead of raising
    spec = {"run_seconds": 1, "workloads": [{"name": "wide"}, {"name": "sweep"}],
            "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(paired, "ROOT", tmp_path)
    monkeypatch.setattr(paired, "git_commit", lambda tree: None)

    def run_bench(tree, workload, seed, seconds):
        if workload == "wide" and tree != tmp_path:
            return {"metrics": {}, "attempted": 0, "failed": 1, "report_sha256": None,
                    "exit": 1}
        return paired.parse_run(run_output(90.0 + seed, 60.0))
    monkeypatch.setattr(paired, "run_bench", run_bench)
    assert paired.main(["--parent", str(tmp_path / "parent"), "--seeds", "10,11"]) == 1
    wide = json.loads((tmp_path / "BENCH_wide.json").read_text())
    assert len(wide) == 1 and wide[0]["summary"] == []
    assert [(run["side"], run["failed"]) for run in wide[0]["runs"]] == [
        ("parent", 1), ("tree", 0), ("tree", 0), ("parent", 1)]
    sweep = json.loads((tmp_path / "BENCH_sweep.json").read_text())
    assert [row["pairs"] for row in sweep[0]["summary"]] == [2, 2]
    out = capsys.readouterr().out
    assert "== wide\n" in out and "no complete pair" in out and "== sweep\n" in out
