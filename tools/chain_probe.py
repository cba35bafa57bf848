"""Time the command line on the chain (x1 & x2) | (x3 & x4) | ... | (x_{m-1} & x_m).

The chain is a boolean model of m features (m even, at most 20) read at
the all-ones instance.  Its CXPs pick one feature of every pair, so the
explain report lists 2^(m/2) of them, and every score reads tables of 2^m
entries.  Run from the repository root:

    PYTHONPATH=src python tools/chain_probe.py [--m 20]

Each of ``score --fis all --format json`` and ``explain --format json``
runs through ``cli.main`` in a process of its own, so that the peak
resident set size is that command's.  FISLAB_MAX_FEATURES is set to m for
it.  One line per command gives the wall time of ``cli.main``, the peak
RSS of its process, and the report's size and SHA-256.  It exits 1 if a
command exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

COMMANDS = {"score": ["score", "--fis", "all"], "explain": ["explain"]}


def chain_document(m: int) -> dict:
    expr = " | ".join(f"(x{i} & x{i + 1})" for i in range(1, m, 2))
    return {"features": [{"id": i, "values": [0, 1]} for i in range(1, m + 1)],
            "classes": [0, 1], "body": {"kind": "boolexpr", "expr": expr},
            "instance": {"point": [1] * m, "label": 1}}


def run_one(command: str, model: str) -> dict:
    """One command through cli.main in this process."""
    from fislab import cli
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(COMMANDS[command] + ["--model", model, "--format", "json"])
    wall = time.perf_counter() - start
    report = out.getvalue().encode("utf-8")
    return {"command": command, "code": code, "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bytes": len(report), "sha256": hashlib.sha256(report).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=20,
                        help="feature count, even, from 2 to 20 (default 20)")
    parser.add_argument("--run", choices=sorted(COMMANDS),
                        help="run this one command here and print its JSON line")
    parser.add_argument("--model", help="model path for --run")
    args = parser.parse_args()
    if args.run:
        print(json.dumps(run_one(args.run, args.model)))
        return 0
    if args.m % 2 or not 2 <= args.m <= 20:
        parser.error("--m must be even, from 2 to 20")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, f"chain{args.m}.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(chain_document(args.m), handle)
        env = {**os.environ, "FISLAB_MAX_FEATURES": str(args.m)}
        for command in COMMANDS:
            child = subprocess.run(
                [sys.executable, __file__, "--run", command, "--model", model],
                env=env, capture_output=True, text=True, check=False)
            if child.returncode:
                print(f"{command}: probe failed\n{child.stderr}", end="")
                failed = True
                continue
            line = json.loads(child.stdout.splitlines()[-1])
            failed |= line["code"] != 0
            print(f"{command:8} m={args.m}  exit {line['code']}  "
                  f"{line['wall_s']:.2f} s  {line['peak_rss_mb']:.0f} MB  "
                  f"{line['bytes']} B  sha256 {line['sha256']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
