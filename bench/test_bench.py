"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import gzip
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import pace
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
import fislab  # noqa: E402
import fislab.cli  # noqa: E402,F401

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _sweep_ops(count, seed=0):
    return workloads.sweep(seed, fislab, run.WORKDIR)[:count]


def _names_and_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_print_with_units(capsys):
    result = run.measure(_sweep_ops(5), [0.1, 0.2, 0.3], seconds=0)
    assert result["correct"] and result["failed"] == 0
    assert _names_and_units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result


def test_per_layer_metrics_print_with_units(tmp_path, capsys):
    ops = workloads.sweep(0, fislab, run.WORKDIR)[-4:]  # m = 6, as in the p99 cluster
    result = run.measure(ops, [0.1], seconds=0, trace_path=tmp_path / "t.json.gz")
    assert result["correct"]
    assert _names_and_units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for layer in tracing.LAYERS:
        assert values[f"{layer}.self_s"] > 0, layer
    assert values["root.unattributed_frac"] < 0.05
    with gzip.open(tmp_path / "t.json.gz", "rt") as handle:
        header = json.loads(next(handle))
        rows = [json.loads(line) for line in handle]
    assert len(rows) == header["spans"] == values["trace.spans"]
    assert all(start <= end for _, start, end, _ in rows)


def test_tracer_restores_the_library():
    before = fislab.cli.load_problem, fislab.props.relabel_classes, fislab.Classifier.__post_init__
    tracer = tracing.Tracer()
    tracer.install(tracing.fislab_modules())
    assert fislab.cli.load_problem is fislab.model.load_problem is not before[0]
    assert fislab.props.relabel_classes is fislab.model.relabel_classes
    tracer.uninstall()
    assert (fislab.cli.load_problem, fislab.props.relabel_classes,
            fislab.Classifier.__post_init__) == before


def test_lazy_scan_is_charged_to_model(tmp_path):
    table = next(op for op in workloads.wide(0, fislab, tmp_path) if "table" in op.model.name)
    problem = fislab.make_problem(fislab.parse_model(table.model.document), table.model.point)
    expected = list(problem.select_ranks(0))
    tracer = tracing.Tracer()
    tracer.install(tracing.fislab_modules())
    tracer.active = True
    try:
        with tracer.root():
            ranks = list(problem.select_ranks(0))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert ranks == expected and len(ranks) == 1 << len(table.model.domains)
    assert tracer.self_ns["model"] > 2 * tracer.self_ns[tracing.ROOT]


class WrongS(workloads.SweepOp):
    """Reports one Shapley value moved by 1."""

    def run(self):
        out = super().run()
        values = out["scores"]["S"]["values"]
        values[0] = str(Fraction(values[0]) + 1)
        return out


def test_paced_pass_rescales_each_op_by_the_kernel_runs_around_it(monkeypatch):
    monkeypatch.setattr(run, "PACE_EVERY_S", 0.0)   # every op a group of its own
    runner = run.Runner(_sweep_ops(3))
    runner.run_pass(paced=True)
    k = runner.kernel_times
    assert len(k) == 4
    for index in range(3):
        (wall,), (scaled,) = runner.wall[index], runner.latencies[index]
        assert scaled == pytest.approx(wall * pace.KERNEL_S * 2 / (k[index] + k[index + 1]))


def test_short_ops_share_the_kernel_runs_around_their_group(monkeypatch):
    monkeypatch.setattr(run, "PACE_EVERY_S", 1e9)    # one group for the pass
    runner = run.Runner(_sweep_ops(3))
    runner.run_pass(paced=True)
    k = runner.kernel_times
    assert len(k) == 2
    for index in range(3):
        (wall,), (scaled,) = runner.wall[index], runner.latencies[index]
        assert scaled == pytest.approx(wall * pace.KERNEL_S * 2 / (k[0] + k[1]))


def test_wrong_score_vector_counts_as_failed_op(capsys):
    op = _sweep_ops(1)[0]
    runner = run.Runner([op, WrongS(op.fl, op.classifier, op.model, op.point)])
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "S total" in capsys.readouterr().err


class FailingAudit(workloads.AuditOp):
    """Reports one audit verdict as not holding."""

    def run(self):
        out = super().run()
        out["audits"]["P07/S"] = False
        return out


def test_failed_audit_and_inconsistent_matrix_count_as_failed_ops(capsys):
    ops = workloads.audit(0, fislab, run.WORKDIR)
    matrix, problem = ops[0], ops[1]
    wrong = workloads.CliOp(fislab.cli, matrix.argv, expect={"consistent": False})
    runner = run.Runner([problem, FailingAudit(problem.fl, problem.classifier,
                                               problem.model, problem.point), wrong])
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (3, 2)
    err = capsys.readouterr().err
    assert "P07/S does not hold" in err and "reports consistent True" in err


def test_output_change_between_passes_counts_as_failed_op():
    op = _sweep_ops(1)[0]
    runner = run.Runner([op])
    runner.run_pass()
    runner.ops = [WrongS(op.fl, op.classifier, op.model, op.point)]
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_inputs_follow_the_seed():
    def documents(seed):
        return [op.model.document for op in workloads.sweep(seed, fislab, run.WORKDIR)]
    assert documents(3) == documents(3)
    assert documents(3) != documents(4)
    assert len(documents(5)) == sum(n * (k or 1 << m)
                                    for m, (n, k) in workloads.SWEEP_TABLES.items())


@pytest.mark.parametrize("present", [False, True])
def test_refuses_to_run_without_sources(tmp_path, present):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    if present:
        shutil.copytree(run.SRC, tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    if present:
        assert proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    else:
        assert proc.returncode != 0 and '"correct"' not in proc.stdout
