"""Paired benchmark runs of a parent tree against the working tree.

For each workload and seed, bench/run.py runs once in each tree, one run
after the other with the same environment: a pair.  The side that goes
first alternates from pair to pair, so that a slow phase of the host does
not always fall on the same side.  Run from the repository root, with the
parent commit checked out elsewhere (a clone or a ``git worktree``, so
that its commit can be recorded):

    python tools/paired_bench.py --parent ../parent --seeds 10-19 \\
        [--workload wide ...]

Each run lasts the run_seconds of BENCHMARK.json.

Per workload it prints one row per pair (whether the two report_sha256
agree, and each end-to-end metric of the parent and of the working tree),
then per metric the two medians, the parent's quartiles, the pairs the
working tree won and whether the change of the medians stays within the
metric's bound in BENCHMARK.json.  It also appends one record per workload
to ``BENCH_<workload>.json`` in the working tree: both commits, the date,
the CPU count, the seeds and every run's metrics and ``report_sha256``; a
workload with no complete pair gets its runs and an empty summary.  It
exits 1 if a run failed or an operation failed in one.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "tree")


def parse_run(stdout: str) -> dict:
    """The metrics, operation counts and report_sha256 of one bench/run.py
    output: the last line is the result object, an earlier one starts
    with report_sha256."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sha = next((line.split()[1] for line in lines if line.startswith("report_sha256 ")), None)
    return {"metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "report_sha256": sha}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """Per end-to-end metric of BENCHMARK.json: the medians of both sides,
    the parent's quartiles, the pairs (runs of one seed) the working tree
    won, and whether the tree's median is worse than the parent's by more
    than the metric's bound (a fraction of the parent's median).  No
    complete pair gives no rows."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [sides for sides in by_seed.values() if set(sides) == set(SIDES)]
    if not pairs:
        return []
    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [sides["parent"][name] for sides in pairs]
        tree = [sides["tree"][name] for sides in pairs]
        q1, parent_median, q3 = quartiles(parent)
        tree_median = statistics.median(tree)
        change = (tree_median - parent_median) / parent_median if parent_median else 0.0
        won = sum((t > p) if higher else (t < p) for p, t in zip(parent, tree))
        rows.append({"metric": name, "better": spec["better"], "parent_median": parent_median,
                     "tree_median": tree_median, "parent_q1": q1, "parent_q3": q3,
                     "change": change, "won": won, "pairs": len(pairs),
                     "beyond_iqr": abs(tree_median - parent_median) > q3 - q1,
                     "within_bound": (change if not higher else -change) <= spec["bound"]})
    return rows


def format_report(workload: str, runs: list[dict], rows: list[dict]) -> str:
    """The per-pair table and the summary lines of one workload."""
    names = [row["metric"] for row in rows]
    out = [f"== {workload}",
           "seed  first   report   " + "  ".join(f"{name:^25}" for name in names)]
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    for seed, sides in by_seed.items():
        if set(sides) != set(SIDES):
            continue
        first = min(SIDES, key=lambda side: sides[side]["order"])
        cells = [f"{sides['parent']['metrics'][n]:>11.4g} -> {sides['tree']['metrics'][n]:<10.4g}"
                 for n in names]
        same = sides["parent"]["report_sha256"] == sides["tree"]["report_sha256"]
        out.append(f"{seed:<5} {first:<7} {'same' if same else 'DIFFERS':<8} "
                   + "  ".join(cells))
    if not rows:
        out.append("no complete pair: every run on one side failed")
    for row in rows:
        out.append(
            f"{row['metric']:>12} ({row['better']} is better): median "
            f"{row['parent_median']:.4g} -> {row['tree_median']:.4g} "
            f"({100 * row['change']:+.1f}%), parent quartiles "
            f"{row['parent_q1']:.4g}-{row['parent_q3']:.4g}, won {row['won']} of "
            f"{row['pairs']}, {'beyond' if row['beyond_iqr'] else 'within'} the parent's IQR, "
            f"{'within' if row['within_bound'] else 'OUTSIDE'} its bound")
    return "\n".join(out)


def parse_seeds(text: str) -> list[int]:
    """Seeds as 10-19 (inclusive) or 10,12,15."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def git_commit(tree: Path) -> str | None:
    """The tree's HEAD commit, with +dirty when its files differ from it,
    or None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=False)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One bench/run.py run in tree; failed is set when it exits non-zero."""
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True, check=False)
    if child.returncode:
        print(child.stderr, file=sys.stderr, end="")
        return {"metrics": {}, "attempted": 0, "failed": 1, "report_sha256": None,
                "exit": child.returncode}
    return parse_run(child.stdout)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeat for several (default: every workload)")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("10-19"),
                        help="one pair per seed: 10-19 or 10,12 (default 10-19)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "tree": ROOT}
    # read before any record is appended, which would mark the tree dirty
    commits = {side: git_commit(tree) for side, tree in trees.items()}
    failed = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for k, seed in enumerate(args.seeds):
            for order, side in enumerate(SIDES if k % 2 == 0 else SIDES[::-1]):
                run = run_bench(trees[side], workload, seed, spec["run_seconds"])
                failed |= run["failed"] > 0
                runs.append({"side": side, "seed": seed, "order": order, **run})
        ok = [run for run in runs if run["metrics"]]
        rows = summarize(ok, spec["end_to_end"])
        print(format_report(workload, ok, rows), flush=True)
        record = {"workload": workload, "commit": commits["tree"],
                  "parent_commit": commits["parent"],
                  "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                      timespec="seconds"),
                  "cpu_count": os.cpu_count(), "python": platform.python_version(),
                  "seconds": spec["run_seconds"], "seeds": args.seeds, "runs": runs,
                  "summary": rows}
        path = ROOT / f"BENCH_{workload}.json"
        records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        path.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
