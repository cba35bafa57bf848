"""Command-line front-end.

Subcommands: explain, score, props, repro, wvg.  Reports are deterministic
for a fixed configuration and seed; rational values are authoritative, the
6-place decimals are display only.  Exit codes: 0 success / all checks pass,
1 a check failed, 2 bad usage or unparsable input, 3 internal error (a
result contradicted a theorem the library relies on, reported on one
``internal error:`` line).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import charfun, explain, props, reference, scores
from .model import (DomainError, ExplanationProblem, ParseError, RelabelError,
                    ScaleLimitError, WeightedVotingGame, load_problem,
                    make_problem, parse_model)
from .scores import FIS_IDS, TemplateId

USAGE_ERROR = 2
CHECK_FAILURE = 1
INTERNAL_ERROR = 3
FIS_PROPERTIES = ("P05", "P06", "P07", "P08", "P09")


def _decimal(num: int, den: int) -> str:
    """num / den (den >= 1) rounded half-even to 6 places."""
    units, rest = divmod(abs(num) * 10**6, den)
    if 2 * rest > den or 2 * rest == den and units % 2:
        units += 1
    whole, places = divmod(units, 10**6)
    return f"{'-' if num < 0 else ''}{whole}.{places:06d}"


def decimal_str(value: Fraction) -> str:
    """The exact value rounded half-even to 6 places; display only, never
    used in comparisons.  A negative value that rounds to zero keeps its
    minus sign."""
    return _decimal(value.numerator, value.denominator)


def _json(obj, depth: int = 0) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, byte for
    byte, at the given nesting depth.  A dict key that is not a str raises
    TypeError.

    json.dumps runs its pure-Python encoder whenever it indents; this writes
    a list of only ints or only strs with one join, and escapes each str
    with the C function json.dumps uses.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a str")
        inner = depth + 1
        items = [f"{_json_str(key)}: {_json(obj[key], inner)}" for key in keys]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = depth + 1
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        elif all(type(v) is str for v in obj):
            items = map(_json_str, obj)
        else:
            items = [_json(v, inner) for v in obj]
        opening, closing = "[", "]"
    elif type(obj) is int:
        return int.__repr__(obj)
    else:
        return json.dumps(obj)
    indent = "\n" + "  " * inner
    return opening + indent + ("," + indent).join(items) + indent[:-2] + closing


def _emit(report: dict, rows, text, fmt: str) -> None:
    """Write the report in fmt.  rows and text are zero-argument functions
    that make the csv rows and the text; only the one fmt needs is called."""
    if fmt == "json":
        sys.stdout.write(_json(report) + "\n")
    elif fmt == "csv":
        built = rows()
        buf = io.StringIO()
        if built:
            writer = csv.DictWriter(buf, fieldnames=list(built[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(built)
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(text())


def _load_problem(args) -> ExplanationProblem:
    with open(args.model, "r", encoding="utf-8") as handle:
        document = handle.read()  # JSON text: the library parses it
    if args.instance is None:
        return load_problem(document)
    classifier = parse_model(document)
    point = _parse_point(classifier, args.instance)
    return make_problem(classifier, point, args.label)


def _parse_point(classifier, text: str) -> tuple:
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != classifier.m:
        raise DomainError(f"instance has {len(tokens)} values, "
                          f"model has {classifier.m} features")
    point = []
    for token, dom in zip(tokens, classifier.features):
        for value in dom.values:
            if str(value) == token:
                point.append(value)
                break
        else:
            raise DomainError(f"value {token!r} not in the domain of "
                              f"feature {dom.feature_id}")
    return tuple(point)


def _parse_fis_list(text: str) -> list[tuple[str, bool]]:
    if text.strip().lower() == "all":
        return [(fid, False) for fid in FIS_IDS]
    return [scores.parse_fis_id(part) for part in text.split(",") if part.strip()]


def _grid(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(headers[k])), *(len(str(r[k])) for r in rows))
              if rows else len(str(headers[k])) for k in range(len(headers))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# explain

def cmd_explain(args) -> int:
    problem = _load_problem(args)
    axps = explain.enumerate_axps(problem)
    cxps = explain.enumerate_cxps(problem)
    relevant = explain.relevant_features(problem)
    full = problem.full_mask
    # each family is the set of minimal hitting sets of the other (a
    # theorem), so a mismatch is a bug, not a failed check
    if (explain.minimal_hitting_sets(cxps.members, full) != axps.members
            or explain.minimal_hitting_sets(axps.members, full) != cxps.members):
        raise explain.InvariantError(
            "hitting-set duality fails between the minimal explanation families")
    report = {
        "command": "explain",
        "instance": list(problem.v),
        "label": problem.c,
        "axps": axps.member_lists(),
        "cxps": cxps.member_lists(),
        "relevant_features": [i for i in range(1, problem.m + 1)
                              if relevant >> (i - 1) & 1],
        "checks": {"hitting_set_duality": "PASS"},
    }

    def build_rows():
        rows = [{"kind": "axp", "features": " ".join(map(str, s))}
                for s in report["axps"]]
        rows += [{"kind": "cxp", "features": " ".join(map(str, s))}
                 for s in report["cxps"]]
        rows += [{"kind": "relevant", "features": " ".join(map(str, report["relevant_features"]))},
                 {"kind": "check:hitting_set_duality",
                  "features": report["checks"]["hitting_set_duality"]}]
        return rows

    def build_text():
        text = [
            f"instance: {report['instance']}  label: {problem.c}",
            "abductive (minimal sufficient): " + "; ".join(map(str, report["axps"])),
            "contrastive (minimal changeable): " + "; ".join(map(str, report["cxps"])),
            f"relevant features: {report['relevant_features']}",
            f"hitting-set duality: {report['checks']['hitting_set_duality']}",
        ]
        return "\n".join(text) + "\n"

    _emit(report, build_rows, build_text, args.format)
    return 0


# ---------------------------------------------------------------------------
# score

def cmd_score(args) -> int:
    problem = _load_problem(args)
    wanted = _parse_fis_list(args.fis)
    result: dict[str, dict] = {}
    for fis_id, dual in wanted:
        label = f"DUAL({fis_id})" if dual else fis_id
        vec = scores.compute_fis(fis_id, problem, dual=dual)
        entry = {
            "name": scores.FIS_NAMES[fis_id],
            "values": vec.as_strings(),
            "decimals": [_decimal(n, vec.den) for n in vec.nums],
        }
        if args.dual and not dual:
            dvec = scores.compute_fis(fis_id, problem, dual=True)
            entry["dual_values"] = dvec.as_strings()
        if args.rank:
            entry["ranking"] = list(vec.ranking())
        if args.oracle:
            template = scores._FIS_RECIPES.get(fis_id, (None,))[0]
            if template is TemplateId.SHAPLEY_SHUBIK and not dual:
                table = charfun.build_table(scores._FIS_RECIPES[fis_id][1], problem)
                oracle = scores.shapley_permutation_oracle(problem, table)
                # Shapley-Shubik is the permutation average, so a mismatch
                # is a bug and no report is printed
                if oracle != vec:
                    raise explain.InvariantError(
                        f"permutation oracle disagrees with {label}")
                entry["oracle"] = "PASS"
        result[label] = entry
    report = {"command": "score", "instance": list(problem.v),
              "label": problem.c, "scores": result}

    def build_rows():
        rows = []
        for label, entry in result.items():
            for i, (val, dec) in enumerate(zip(entry["values"], entry["decimals"]), 1):
                row = {"fis": label, "feature": i, "value": val, "decimal": dec}
                if args.rank:
                    row["rank"] = entry["ranking"][i - 1]
                rows.append(row)
        return rows

    def build_text():
        headers = ["feature"] + [label for label, _ in
                                 ((f"DUAL({f})" if d else f, d) for f, d in wanted)]
        table_rows = []
        for i in range(1, problem.m + 1):
            row = [str(i)]
            for fis_id, dual in wanted:
                label = f"DUAL({fis_id})" if dual else fis_id
                entry = result[label]
                row.append(f"{entry['values'][i - 1]} ({entry['decimals'][i - 1]})")
            table_rows.append(row)
        text = _grid(headers, table_rows)
        notes = []
        for label, entry in result.items():
            if "oracle" in entry:
                notes.append(f"permutation oracle {label}: {entry['oracle']}")
            if "dual_values" in entry:
                notes.append(f"dual {label}: {','.join(entry['dual_values'])}")
        if notes:
            text += "\n".join(notes) + "\n"
        return text

    _emit(report, build_rows, build_text, args.format)
    return 0


# ---------------------------------------------------------------------------
# props

def cmd_props(args) -> int:
    if args.corpus is not None and (args.search is not None or args.duality):
        raise ValueError("props --corpus sizes the matrix audit; "
                         "--search and --duality do not read it")
    if args.search is not None:
        subject, prop = args.fis, args.search.split("-")[0]
        if prop in FIS_PROPERTIES:
            # P01..P04 take a template name ("banzhaf" names a template
            # and a score), the others a score id in any spelling
            subject, dual = scores.parse_fis_id(subject or "E")
            if dual:
                raise ValueError("props --search takes a score id, not DUAL(...)")
        elif subject is None and prop in props.PROPERTY_IDS:
            raise ValueError(f"props --search {args.search} needs a template "
                             f"name in --fis, e.g. banzhaf")
        witness = props.search_counterexample(
            args.search, subject, seed=args.seed, budget=args.budget,
            workers=args.workers)
        found = witness is not None
        report = {"command": "props", "mode": "search",
                  "property": args.search, "subject": subject,
                  "budget": args.budget, "seed": args.seed,
                  "witness_found": found,
                  "witness": witness.data if found else None}
        rows = [{"property": args.search, "subject": subject,
                 "witness_found": found}]
        text = (f"{args.search} on {subject}: "
                + ("witness found at index "
                   f"{witness.data['generator']['index']}" if found
                   else f"no violation in {args.budget} problems") + "\n")
        _emit(_jsonable(report), lambda: rows, lambda: text, args.format)
        return 0
    if args.duality:
        parsed = _parse_fis_list(args.fis or "S,B")
        if any(dual for _, dual in parsed):
            # a duality check compares a score with its dual already
            raise ValueError("props --duality takes a score id, not DUAL(...)")
        fis_list = list(dict.fromkeys(f for f, _ in parsed))  # each score once
        counts: dict[str, dict[str, int]] = {f: {} for f in fis_list}
        for _, problem in props.problem_stream(args.seed, args.budget):
            for fis_id in fis_list:
                level = props.check_duality(problem, fis_id).level.value
                counts[fis_id][level] = counts[fis_id].get(level, 0) + 1
        report = {"command": "props", "mode": "duality", "budget": args.budget,
                  "seed": args.seed, "levels": counts}
        rows = [{"fis": f, "level": lvl, "count": n}
                for f in fis_list for lvl, n in sorted(counts[f].items())]
        text = "".join(f"{f}: " + ", ".join(f"{lvl}={n}" for lvl, n in

                                            sorted(counts[f].items())) + "\n"
                       for f in fis_list)
        _emit(report, lambda: rows, lambda: text, args.format)
        return 0

    if args.fis is not None:
        raise ValueError("props --fis names the subject of --search or "
                         "--duality; the matrix audits every score")
    matrix = props.property_matrix(
        seed=args.seed, corpus_count=60 if args.corpus is None else args.corpus,
        search_budget=args.budget)
    cells_json = {}
    witnesses = {}
    rows = []
    for row_id in matrix.row_ids():
        for prop in props.PROPERTY_IDS:
            cell = matrix.cells[(row_id, prop)]
            cells_json[f"{row_id}/{prop}"] = cell.status
            if cell.witness is not None:
                witnesses[f"{row_id}/{prop}"] = _jsonable(cell.witness.data)
            rows.append({"subject": row_id, "property": prop,
                         "cell": cell.status})
    report = {"command": "props", "mode": "matrix", "seed": args.seed,
              "cells": cells_json,
              "witnesses": witnesses,
              "inconsistencies": list(matrix.inconsistencies),
              "consistent": matrix.consistent}
    headers = ["subject"] + list(props.PROPERTY_IDS)
    table_rows = [[row_id] + [matrix.cells[(row_id, p)].status
                              for p in props.PROPERTY_IDS]
                  for row_id in matrix.row_ids()]
    text = _grid(headers, table_rows)
    text += ("legend: holds* = no violation found on this data (not a proof)\n")
    for key in sorted(witnesses):
        data = witnesses[key]
        brief = {k: v for k, v in data.items()
                 if k in ("pair", "feature", "sum", "target", "scores",
                          "cf_ids", "generator")}
        text += f"witness {key}: {brief}\n"
    if matrix.inconsistencies:
        text += "INCONSISTENT with the pinned classification:\n"
        for line in matrix.inconsistencies:
            text += f"  {line}\n"
    else:
        text += "pinned classification: CONSISTENT\n"
    _emit(report, lambda: rows, lambda: text, args.format)
    return 0 if matrix.consistent else CHECK_FAILURE


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


# ---------------------------------------------------------------------------
# repro

def cmd_repro(args) -> int:
    results = reference.run_checks()
    variants = reference.responsibility_variants(reference.and_or_chain_problem())
    all_ok = all(r.ok for r in results)
    rows = [{"section": r.section, "name": r.name, "expected": r.expected,
             "got": r.got, "status": "PASS" if r.ok else "FAIL"}
            for r in results]
    report = {
        "command": "repro",
        "checks": rows,
        "responsibility_variants": variants,
        "status": "PASS" if all_ok else "FAIL",
    }
    lines = [f"{'PASS' if r.ok else 'FAIL'} [{r.section}] {r.name}: "
             f"expected {r.expected}, got {r.got}" for r in results]
    lines.append("responsibility variants (plain vs family-normalized): "
                 f"{variants['plain']} vs {variants['normalized']} "
                 f"(factor {variants['family_size']})")
    lines.append(f"overall: {report['status']}")
    text = "\n".join(lines) + "\n"
    _emit(report, lambda: rows, lambda: text, args.format)
    return 0 if all_ok else CHECK_FAILURE


# ---------------------------------------------------------------------------
# wvg

def cmd_wvg(args) -> int:
    weights = tuple(int(w) for w in args.weights.split(","))
    game = WeightedVotingGame(args.quota, weights)
    if args.template.strip().lower() == "all":
        templates = list(TemplateId)
    else:
        templates = [TemplateId(t.strip()) for t in args.template.split(",")]
    result = {}
    for template in templates:
        vec = scores.wvg_power_index(game, template)
        result[template.value] = {
            "values": vec.as_strings(),
            "decimals": [_decimal(n, vec.den) for n in vec.nums],
        }
    report = {"command": "wvg", "quota": args.quota, "weights": list(weights),
              "indices": result}
    rows = [{"template": name, "voter": i, "value": entry["values"][i - 1],
             "decimal": entry["decimals"][i - 1]}
            for name, entry in result.items()
            for i in range(1, game.m + 1)]
    headers = ["voter"] + [t.value for t in templates]
    table_rows = []
    for i in range(1, game.m + 1):
        row = [str(i)]
        for t in templates:
            entry = result[t.value]
            row.append(f"{entry['values'][i - 1]} ({entry['decimals'][i - 1]})")
        table_rows.append(row)
    text = (f"game: quota {args.quota}, weights {list(weights)}\n"
            + _grid(headers, table_rows))
    _emit(report, lambda: rows, lambda: text, args.format)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _int_in(low: int, high: int | None = None):
    """argparse type: an integer from low to high (no upper bound if None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is above {high}")
        return value
    return parse


def _fis_list(text: str) -> str:
    """argparse type for --fis: at least one score id."""
    if not any(part.strip() for part in text.split(",")):
        raise argparse.ArgumentTypeError("no score id given")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls and returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="fislab",
        description="Exact feature-importance scores for discrete classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False):
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--workers", type=_int_in(1, os.cpu_count() or 1),
                       default=1)
        if model:
            p.add_argument("--model", required=True, help="model document (JSON)")
            p.add_argument("--instance", default=None,
                           help="comma-separated point, e.g. 1,1,1,1")
            p.add_argument("--label", type=int, default=None)

    p_explain = sub.add_parser("explain", help="enumerate minimal explanations")
    common(p_explain, model=True)

    p_score = sub.add_parser("score", help="compute feature-importance scores")
    common(p_score, model=True)
    p_score.add_argument("--fis", type=_fis_list, default="all",
                         help="comma list of score ids (or DUAL(id)), or 'all'")
    p_score.add_argument("--dual", action="store_true",
                         help="also report the dual of each score")
    p_score.add_argument("--oracle", action="store_true",
                         help="cross-check ordering-based scores against the "
                              "permutation oracle")
    p_score.add_argument("--rank", action="store_true")

    p_props = sub.add_parser("props", help="audit the property matrix")
    common(p_props)
    p_props.add_argument("--seed", type=int, default=0)
    mode = p_props.add_mutually_exclusive_group()
    mode.add_argument("--search", default=None, metavar="PROPERTY",
                      help="hunt a counterexample for one property (e.g. P05)")
    mode.add_argument("--duality", action="store_true",
                      help="tabulate duality levels over random problems")
    p_props.add_argument("--fis", type=_fis_list, default=None)
    p_props.add_argument("--budget", type=_int_in(1), default=600)
    p_props.add_argument("--corpus", type=_int_in(0), default=None,
                         help="random problems behind the matrix audit "
                              "(default 60; matrix only)")

    p_repro = sub.add_parser("repro", help="recompute the frozen reference values")
    common(p_repro)

    p_wvg = sub.add_parser("wvg", help="power indices of a weighted voting game")
    common(p_wvg)
    p_wvg.add_argument("--quota", type=int, required=True)
    p_wvg.add_argument("--weights", required=True, help="comma list, e.g. 2,1,1")
    p_wvg.add_argument("--template", default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # the command is looked up at each call, not bound into the cached
    # parser, so a cmd_* re-bound after the first call is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ParseError, DomainError, ScaleLimitError, RelabelError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except explain.InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
