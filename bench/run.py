"""fislab benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload wide|sweep|audit --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  The
workload's inputs are generated from the seed.  The operations run in whole
passes: at least two, and another while it is expected to end within
``--seconds`` of wall time.  Outputs are checked off the clock, after each
pass; an operation that raises, exits non-zero or fails a check counts as
failed.

Every timed step sits between two readings of a fixed reference kernel
(short operations in groups of at least PACE_EVERY_S of timed work), and
its time is rescaled to a host on which that kernel takes
``pace.KERNEL_S`` (see pace.py): the shared hosts this runs on change speed
by up to 2x from second to second and from minute to minute, and the
rescaled times do not follow.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, all from rescaled times:

* ``setup_s``      median time to import fislab and build the inputs, over
                   the setup before the first pass and SETUPS_PER_PASS more
                   after each pass
* ``ops_per_s``    operations per second over one run of every operation
                   at its median latency
* ``op_ms_p50``    median over operations of each one's median latency
                   across passes
* ``op_ms_p99``    99th percentile of the same per-operation latencies
* ``peak_rss_mb``  peak resident set size of this process

With ``--trace 1`` it runs one untraced pass and then the same pass with
spans around every public function of the six layers, and reports the
per-layer metrics (tracing.Tracer.metrics); the spans go to
``.bench_work/trace-<workload>-seed<N>.jsonl.gz``.

Lines before the last one give the pass count, the samples, failed_frac
(failed / attempted), the unscaled wall-clock op_ms_p50 beside the kernel's
median time (how fast the host ran), and the SHA-256 of the first pass's
report bytes, which is the same for the same seed on any correct commit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import pace
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUPS_PER_PASS = 5
MIN_PASSES = 2
PACE_EVERY_S = 0.025


def import_fislab():
    """Import fislab afresh from src/ and return the package."""
    for name in [n for n in sys.modules if n == "fislab" or n.startswith("fislab.")]:
        del sys.modules[name]
    fl = importlib.import_module("fislab")
    importlib.import_module("fislab.cli")
    if Path(fl.__file__).resolve().parent != SRC / "fislab":
        raise ImportError(f"fislab imported from {fl.__file__}, not from {SRC}")
    return fl


class Runner:
    """Runs passes over one list of operations and keeps the tallies."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: dict[int, list[float]] = {}   # op index -> one per paced pass
        self.wall: dict[int, list[float]] = {}        # the same, unscaled
        self.kernel_times: list[float] = []
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.report_sha = hashlib.sha256()
        self._first: dict[int, tuple[bytes, list[str]]] = {}

    def run_pass(self, tracer=None, paced=False) -> float:
        """One pass; returns the summed on-clock time of its operations.

        With paced, a kernel reading (pace.kernel_s) precedes the first
        operation and follows every group of operations that has taken
        PACE_EVERY_S, and each operation's latency is recorded rescaled by
        the readings on either side of its group.  Outputs are checked after
        the pass, so that checking work does not sit between timed
        operations.
        """
        done = []
        on_clock = 0.0
        group: list[tuple[int, float]] = []   # (op index, elapsed) since the last reading
        before = self._kernel() if paced else None
        for index, op in enumerate(self.ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.root():
                        out = op.run()
            except Exception:
                self._fail(index, traceback.format_exc())
                done.append((index, op, None))
                continue
            elapsed = time.perf_counter() - start
            self.samples += 1
            on_clock += elapsed
            done.append((index, op, out))
            if paced:
                group.append((index, elapsed))
                if sum(e for _, e in group) >= PACE_EVERY_S:
                    before = self._record(group, before)
        if group:
            self._record(group, before)
        for index, op, out in done:
            if out is None:
                continue
            try:
                data = op.report(out)
                if tracer is not None and op.cli_output:
                    tracer.counts["cli.report_bytes"] += len(data)
                errors = self._verdict(index, op, out, data)
            except Exception:
                errors = [traceback.format_exc()]
            if errors:
                self._fail(index, "; ".join(errors))
        self.passes += 1
        return on_clock

    def _record(self, group: list, before: float) -> float:
        """Close a group with a kernel reading and record its rescaled
        latencies; returns that reading, the next group's `before`."""
        after = self._kernel(sum(e for _, e in group))
        for index, elapsed in group:
            self.latencies.setdefault(index, []).append(pace.scale(elapsed, before, after))
            self.wall.setdefault(index, []).append(elapsed)
        group.clear()
        return after

    def _kernel(self, after_s: float = 0.0) -> float:
        seconds = pace.kernel_s(after_s)
        self.kernel_times.append(seconds)
        return seconds

    def _verdict(self, index, op, out, data) -> list[str]:
        digest = hashlib.sha256(data).digest()
        if index in self._first:
            first_digest, errors = self._first[index]
            return errors if digest == first_digest else ["output differs between passes"]
        errors = op.check(out)
        self._first[index] = (digest, errors)
        self.report_sha.update(data)
        return errors

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"op {index} failed: {why}", file=sys.stderr)


def percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def setup(workload: str, seed: int):
    """Import fislab afresh and build the workload's operations; returns (ops, seconds)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    fl = import_fislab()
    ops = workloads.WORKLOADS[workload](seed, fl, WORKDIR)
    return ops, time.perf_counter() - start


def setup_again(workload: str, seed: int) -> float:
    """Time one more setup, rescaled (pace.scale), then put back the fislab
    modules the live operations use."""
    live = tracing.fislab_modules()
    before = pace.kernel_s()
    _, seconds = setup(workload, seed)
    after = pace.kernel_s(seconds)
    for name in tracing.fislab_modules():
        del sys.modules[name]
    sys.modules.update(live)
    return pace.scale(seconds, before, after)


def measure(ops, setup_times: list, seconds: float, trace_path: Path | None = None,
            more_setups=None) -> dict:
    """Run whole passes and return the result object printed as the last line.

    Without trace_path: MIN_PASSES paced passes, then more while the next
    is expected to end within `seconds` of wall time; end-to-end metrics
    from setup_times and the operations' rescaled latencies.  With
    it: one untraced pass, one traced pass, the per-layer metrics, and the
    spans written to trace_path.  more_setups, if given, times one setup; it
    runs SETUPS_PER_PASS times after each untraced pass, so that the setup
    times, like the passes, are spread over the run.
    """
    runner = Runner(ops)
    gc.collect()  # start from the same heap state whatever setup left behind
    if trace_path is not None:
        untraced = runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install(tracing.fislab_modules())
        tracer.active = True
        try:
            traced = runner.run_pass(tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        metrics = tracer.metrics(traced, untraced)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
    else:
        start = time.perf_counter()
        last_pass = 0.0
        while (runner.passes < MIN_PASSES
               or time.perf_counter() - start + last_pass <= seconds):
            pass_start = time.perf_counter()
            runner.run_pass(paced=True)
            if more_setups is not None:
                gc.collect()
                setup_times += [more_setups() for _ in range(SETUPS_PER_PASS)]
                gc.collect()
            last_pass = time.perf_counter() - pass_start
        latency = [statistics.median(v) for v in runner.latencies.values()]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(latency) / sum(latency), "1/s"),
            "op_ms_p50": (statistics.median(latency) * 1e3, "ms"),
            "op_ms_p99": (percentile(latency, 99) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wall = [statistics.median(v) for v in runner.wall.values()]
        print(f"unscaled op_ms_p50 {statistics.median(wall) * 1e3:.3f}; kernel median "
              f"{statistics.median(runner.kernel_times) * 1e3:.3f} ms "
              f"(KERNEL_S {pace.KERNEL_S * 1e3:g} ms)")
    print(f"{runner.passes} passes of {len(ops)} ops, {runner.samples} latency "
          f"samples, failed_frac {runner.failed / max(1, runner.attempted):.6f}")
    print(f"report_sha256 {runner.report_sha.hexdigest()}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fislab" / "__init__.py").is_file():
        print(f"error: no fislab sources under {SRC}", file=sys.stderr)
        return 2
    before = pace.kernel_s()
    ops, first_setup = setup(args.workload, args.seed)
    first_setup = pace.scale(first_setup, before, pace.kernel_s(first_setup))
    trace_path = (WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
                  if args.trace else None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    result = measure(ops, [first_setup], args.seconds, trace_path,
                     lambda: setup_again(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
