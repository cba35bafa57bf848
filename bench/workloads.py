"""The benchmark workloads and their operations.

An operation is one request a user would make: a CLI command run in-process
(``wide``, and the matrix of ``audit``) or one problem sent through the
library (``sweep``, ``audit``).  ``run`` is timed; ``report`` and ``check``
run off the clock.  A workload's operations form one pass; the same
classifiers serve every pass, and each operation builds a fresh
``ExplanationProblem``, so no pass reuses another pass's cached tables.

Why these three (one line each also sits in BENCHMARK.json):

* ``wide``: four large models, one per body kind, each scored and explained
  through the CLI, plus ``repro``.  Tables of 2^m entries are built from
  Theta(3^m) scans; this is what a CLI user waits for.  The model shapes are
  fixed and the seed renumbers the features, so every seed takes the same
  work.
* ``sweep``: 1,016 tiny problems (every instance of 52 tables with m = 2..5,
  and 4 instances each of 6 tables with m = 6), where per-problem Fraction
  arithmetic in template scoring dominates.
* ``audit``: the ``props`` property matrix through the CLI, then 1,000 small
  problems (m = 2..5), each audited for P05, P07 and P08 on every audited
  FIS and checked for strong S and B duality.  The only workload where
  ``props`` leads: cached tables are read many times per problem and every
  P07 relabelling builds a new ``Classifier``.

``repro`` in ``wide`` and the duality check and decimal rendering in
``sweep`` are small, but they put all six layers on every workload.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import checks
import gen


class Op:
    """One timed request; subclasses fill in run/report/check."""

    cli_output = False   # report bytes count as CLI output

    def run(self):
        raise NotImplementedError

    def report(self, out) -> bytes:
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError


class CliOp(Op):
    """One command through cli.main; expect maps JSON report fields to the
    values they must have."""

    cli_output = True

    def __init__(self, cli, argv: list[str], expect: dict | None = None):
        self.cli = cli
        self.argv = argv
        self.expect = expect or {}

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        return code, buf.getvalue()

    def report(self, out) -> bytes:
        return out[1].encode("utf-8")

    def check(self, out):
        code, text = out
        if code != 0:
            return [f"{self.argv[0]} exit code {code}"]
        report = json.loads(text) if self.expect else {}
        return [f"{self.argv[0]} reports {key} {report.get(key)!r}, not {value!r}"
                for key, value in self.expect.items() if report.get(key) != value]


class ModelOp(Op):
    """One wide model: `score --fis all --dual --rank`, then `explain`, both JSON."""

    cli_output = True

    def __init__(self, cli, path: Path, model: gen.Model):
        common = ["--model", str(path), "--format", "json", "--workers", "1"]
        self.score = CliOp(cli, ["score", "--fis", "all", "--dual", "--rank"] + common)
        self.explain = CliOp(cli, ["explain"] + common)
        self.model = model

    def run(self):
        return self.score.run() + self.explain.run()

    def report(self, out) -> bytes:
        return (out[1] + out[3]).encode("utf-8")

    def check(self, out):
        score_code, score_text, explain_code, explain_text = out
        ref = checks.Reference(self.model.domains, self.model.labels,
                               self.model.point, self.model.label)
        return checks.check_reports(ref, score_code, json.loads(score_text),
                                    explain_code, json.loads(explain_text))


class ProblemOp(Op):
    """One library problem: a prebuilt classifier and one instance.

    run returns the problem's report, a JSON-able dict with the instance, its
    label and score vectors (primal and dual); the check reads the report
    alone, so its bytes decide whether a later pass can reuse the verdict of
    the first.
    """

    def __init__(self, fl, classifier, model: gen.Model, point: tuple):
        self.fl = fl
        self.classifier = classifier
        self.model = model
        self.point = point

    def report(self, out) -> bytes:
        return json.dumps(out, sort_keys=True).encode("utf-8")

    def check(self, out) -> list[str]:
        scores = out["scores"]
        ref = checks.Reference(self.model.domains, self.model.labels, self.point,
                               self.model.label_at(self.point))
        errors = []
        if out["instance"] != list(ref.point) or out["label"] != ref.label:
            errors.append("problem reports another instance")
        output = checks.Output(
            {f: tuple(map(Fraction, e["values"])) for f, e in scores.items()},
            {f: tuple(map(Fraction, e["dual_values"])) for f, e in scores.items()},
            **self.families(out))
        return errors + self.verdicts(out) + checks.check_output(ref, output)

    def families(self, out) -> dict:
        """Explanation families of the report, as checks.Output fields."""
        return {}

    def verdicts(self, out) -> list[str]:
        """The report's own verdicts that do not hold."""
        return []


class SweepOp(ProblemOp):
    """All twelve scores, primal and dual, plus AXPs, CXPs and both
    hitting-set maps."""

    def run(self):
        fl = self.fl
        problem = fl.make_problem(self.classifier, self.point)
        duality = [fl.props.check_duality(problem, f) for f in fl.scores.FIS_IDS]
        decimal = fl.cli.decimal_str
        return {
            "instance": list(problem.v), "label": problem.c,
            "scores": {dv.fis_id: {"values": dv.primal.as_strings(),
                                   "decimals": [decimal(v) for v in dv.primal.values],
                                   "dual_values": dv.dual.as_strings(),
                                   "duality": dv.level.value} for dv in duality},
            **self.explanations(problem),
        }

    def explanations(self, problem) -> dict:
        explain = self.fl.explain
        axps = explain.enumerate_axps(problem)
        cxps = explain.enumerate_cxps(problem)
        full = problem.full_mask
        return {"axps": axps.member_lists(), "cxps": cxps.member_lists(),
                "hitting": [[list(self.fl.features_of(s)) for s in
                             explain.minimal_hitting_sets(family.members, full)]
                            for family in (cxps, axps)]}

    def families(self, out) -> dict:
        return {"axps": {checks.mask_of(s) for s in out["axps"]},
                "cxps": {checks.mask_of(s) for s in out["cxps"]},
                "hitting": tuple({checks.mask_of(s) for s in h} for h in out["hitting"])}


AUDITS = ("P05", "P07", "P08")
STRONG_DUALS = ("S", "B")


class AuditOp(ProblemOp):
    """P05, P07 and P08 on every audited FIS, and the duality of S and B,
    which must be strong."""

    def run(self):
        props = self.fl.props
        problem = self.fl.make_problem(self.classifier, self.point)
        audits = {f"{prop}/{fis}": props.audit(prop, fis, problem).holds
                  for prop in AUDITS for fis in props.AUDITED_FIS}
        duality = [props.check_duality(problem, f) for f in STRONG_DUALS]
        return {
            "instance": list(problem.v), "label": problem.c, "audits": audits,
            "scores": {dv.fis_id: {"values": dv.primal.as_strings(),
                                   "dual_values": dv.dual.as_strings(),
                                   "duality": dv.level.value} for dv in duality},
        }

    def verdicts(self, out) -> list[str]:
        return ([f"{key} does not hold" for key, holds in out["audits"].items() if not holds]
                + [f"{f} duality {e['duality']}, not strong"
                   for f, e in out["scores"].items() if e["duality"] != "strong"])


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, then the ops of one pass

WIDE_SIZES = {"boolexpr": 11, "table": 11, "wvg": 10, "tree": 9}
# Per feature count m: tables and the instances taken from each (None for
# every point).  Latency clusters by m.  The counts put p50 well inside
# one cluster and p99 near the middle of the top one (about 2% of the
# operations, from several tables), so that neither jumps between clusters or
# hangs on one table from seed to seed.  They also keep a pass short enough
# for several passes to fit in one run.
SWEEP_TABLES = {2: (8, None), 3: (8, None), 4: (16, None), 5: (20, None), 6: (6, 4)}
# 1,000 problems: p50 falls among the 480 with m = 4, p99 among the 160
# with m = 5, each well away from the edges of its cluster.
AUDIT_TABLES = {2: (30, None), 3: (30, None), 4: (30, None), 5: (20, 8)}
# The matrix command is the same on every seed: its corpus and searches
# follow its own --seed, and their work varies with it.
MATRIX_ARGV = ["props", "--format", "json", "--workers", "1", "--seed", "0"]


def wide(seed: int, fl, workdir: Path) -> list[Op]:
    """The same four model shapes on every seed; the seed renumbers their features."""
    shape = random.Random("wide:shape")
    rng = random.Random(f"wide:{seed}")

    def perm(m):
        return rng.sample(range(1, m + 1), m)

    models = [gen.boolexpr_chain(shape, WIDE_SIZES["boolexpr"], perm(WIDE_SIZES["boolexpr"])),
              gen.random_table(shape, WIDE_SIZES["table"], perm(WIDE_SIZES["table"])),
              gen.balanced_wvg(WIDE_SIZES["wvg"]),
              gen.ternary_tree(shape, WIDE_SIZES["tree"], perm(WIDE_SIZES["tree"]))]
    folder = workdir / f"wide-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for model in models:
        path = folder / f"{model.name}.json"
        path.write_text(json.dumps(model.document), encoding="utf-8")
        ops.append(ModelOp(fl.cli, path, model))
    ops.append(CliOp(fl.cli, ["repro", "--format", "json", "--workers", "1"],
                     expect={"status": "PASS"}))
    return ops


def problems(kind, rng: random.Random, fl, tables: dict) -> list[Op]:
    """One `kind` op per instance of random boolean tables, per `tables`."""
    ops: list[Op] = []
    for m, (count, instances) in tables.items():
        for _ in range(count):
            model = gen.random_table(rng, m)
            classifier = fl.parse_model(model.document)
            points = list(itertools.product(*model.domains))
            if instances is not None:
                points = rng.sample(points, instances)
            ops += [kind(fl, classifier, model, point) for point in points]
    return ops


def sweep(seed: int, fl, workdir: Path) -> list[Op]:
    return problems(SweepOp, random.Random(f"sweep:{seed}"), fl, SWEEP_TABLES)


def audit(seed: int, fl, workdir: Path) -> list[Op]:
    matrix = CliOp(fl.cli, MATRIX_ARGV, expect={"consistent": True})
    return [matrix] + problems(AuditOp, random.Random(f"audit:{seed}"), fl, AUDIT_TABLES)


WORKLOADS = {"wide": wide, "sweep": sweep, "audit": audit}
