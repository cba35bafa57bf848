"""Span tracing and per-layer counters, installed from outside the library.

``Tracer.install`` replaces every public function of the six layer modules,
and the public methods of the classes they define, with a wrapper that
records a span: name, start, end and parent.  The wrapper object is bound
wherever the original was bound in a ``fislab`` module, so names re-bound by
``from ... import`` (``cli.load_problem``, ``props.relabel_classes``) are
traced as their home layer.  A layer's self time is its spans' time minus
the part covered by child spans; the benchmark opens a ``root`` span around
every operation, so root self time is time no layer claimed.

``select_ranks`` returns a generator expression, so its scan runs while the
caller consumes it.  The tracer hands back a generator that draws the scan
in chunks of 1, 2, 4, ... (at most ``LAZY_CHUNK_MAX``) ranks, each drawn
inside a ``model`` frame that counts like a child span but is not recorded
as one.  The scan is thus charged to ``model``, at the cost that a caller
that stops early (``is_waxp`` at the first mismatch) makes the traced run
scan up to twice the ranks it reads.

Every span is kept in memory and written out by ``write``.  Counters are
taken at the same boundaries, from call arguments, results and durations.
"""

from __future__ import annotations

import enum
import functools
import gzip
import inspect
import itertools
import json
import sys
import time
import weakref
from array import array
from collections import Counter

LAYERS = ("model", "explain", "charfun", "scores", "props", "cli")
ROOT = "root"

# templates scored over all 2^m subsets; the others read an explanation family
ALL_SUBSET_TEMPLATES = frozenset({"shapley_shubik", "banzhaf", "johnston"})
# returns a generator that scans a cube of the feature space as it is consumed
LAZY_SCAN = "model.ExplanationProblem.select_ranks"
LAZY_CHUNK_MAX = 1024


def _enum_value(x):
    return getattr(x, "value", x)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        # open spans: [span index or -1, layer, start_ns, child_ns]
        self._stack: list[list] = []
        self.self_ns = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.active = False
        self._seen_tables = weakref.WeakValueDictionary()
        self._seen_families = weakref.WeakValueDictionary()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self.modules: dict = {}

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, layer: str, name: str) -> None:
        start = time.perf_counter_ns()
        index = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_start.append(start)
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([index, layer, start, 0])

    def leave(self, failed: bool = False) -> int:
        end = time.perf_counter_ns()
        index, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if index >= 0:  # not an iterator frame
            self.span_end[index] = end
        parent_layer = self._stack[-1][1] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        if failed and parent_layer != layer:
            self.errors[layer] += 1
        return duration

    def parent_layer(self):
        return self._stack[-1][1] if self._stack else None

    def root(self):
        """Context manager for one benchmark operation."""
        return _RootSpan(self)

    # -- installation -------------------------------------------------------

    def install(self, package_modules: dict) -> None:
        """Wrap the public callables of the layer modules.

        package_modules maps module names ("fislab.model", ...) to modules;
        every fislab module is searched for re-bound names.
        """
        self.modules = package_modules
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = package_modules[f"fislab.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = self._wrap(value, layer, f"{layer}.{name}")
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_methods(value, layer)
        for module in package_modules.values():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, name, wrapper)

    def _wrap_methods(self, cls, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return  # exceptions and enums carry no work
        for name, value in list(vars(cls).items()):
            if inspect.isfunction(value) and (not name.startswith("_")
                                        or name == "__post_init__"):
                self._patch(cls, name, self._wrap(
                    value, layer, f"{layer}.{cls.__name__}.{name}"))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str):
        self._originals[name] = fn
        hook = _HOOKS.get(name)
        lazy = name == LAZY_SCAN
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost = tracer.parent_layer() != layer
            tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(failed=True)
                raise
            duration = tracer.leave()
            if hook is not None:
                hook(tracer, outermost, duration, args, kwargs, result)
            if lazy:
                return tracer._consumed(layer, result)
            return result

        return wrapper

    def _consumed(self, layer: str, iterator):
        """Yield from iterator, drawing it in chunks of 1, 2, 4, ... inside frames
        of layer that record no span."""
        size = 1
        while True:
            self._stack.append([-1, layer, time.perf_counter_ns(), 0])
            try:
                chunk = list(itertools.islice(iterator, size))
            except BaseException:
                self.leave(failed=True)
                raise
            self.leave()
            if not chunk:
                return
            yield from chunk
            size = min(2 * size, LAZY_CHUNK_MAX)

    def original(self, name: str):
        return self._originals[name]

    # -- counters fed by hooks ----------------------------------------------

    def note_table(self, table) -> None:
        """One table request from outside charfun; a hit returns a table seen before."""
        self.counts["charfun.table_requests"] += 1
        key = id(table)
        if self._seen_tables.get(key) is table:
            self.counts["charfun.cache_hits"] += 1
            return
        self._seen_tables[key] = table
        self.counts["charfun.tables_built"] += 1
        self.counts["charfun.table_entries"] += len(table.values)

    def note_family(self, family) -> None:
        key = id(family)
        if self._seen_families.get(key) is family:
            return
        self._seen_families[key] = family
        self.counts["explain.family_members"] += len(family.members)

    # -- results --------------------------------------------------------------

    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; wall_s is the traced operations' on-clock time."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for layer in LAYERS:
            put(f"{layer}.self_s", self.self_ns[layer] / 1e9, "s")
            put(f"{layer}.errors", self.errors[layer], "count")
        put("model.classifiers_built", c["model.classifiers_built"], "count")
        put("model.points_labelled", c["model.points_labelled"], "count")
        put("model.select_ranks_calls", c["model.select_ranks_calls"], "count")
        put("model.select_ranks_points", c["model.select_ranks_points"], "count")
        put("explain.predicate_calls", c["explain.predicate_calls"], "count")
        put("explain.family_members", c["explain.family_members"], "count")
        put("explain.member_yield",
            c["explain.family_members"] / max(1, c["explain.predicate_calls"]), "ratio")
        put("explain.hitting_set_s", c["explain.hitting_set_ns"] / 1e9, "s")
        put("charfun.table_requests", c["charfun.table_requests"], "count")
        put("charfun.tables_built", c["charfun.tables_built"], "count")
        put("charfun.table_entries", c["charfun.table_entries"], "count")
        put("charfun.cache_hit_ratio",
            c["charfun.cache_hits"] / max(1, c["charfun.table_requests"]), "ratio")
        put("scores.vectors", c["scores.vectors"], "count")
        put("scores.subset_terms", c["scores.subset_terms"], "count")
        put("scores.family_terms", c["scores.family_terms"], "count")
        put("props.checks", c["props.checks"], "count")
        put("props.problems_generated", c["props.problems_generated"], "count")
        put("props.relabels", c["props.relabels"], "count")
        put("cli.report_bytes", c["cli.report_bytes"], "B")
        root_self = self.self_ns[ROOT] / 1e9
        put("root.wall_s", wall_s, "s")
        put("root.unattributed_s", root_self, "s")
        put("root.unattributed_frac", root_self / wall_s if wall_s else 0.0, "ratio")
        put("trace.overhead_frac", wall_s / untraced_s - 1 if untraced_s else 0.0, "ratio")
        put("trace.spans", len(self.span_name), "count")
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header, then [name, start_ns, end_ns, parent]
        per span, times in ns since the first span and parent -1 for none."""
        t0 = self.span_start[0] if self.span_start else 0
        header = {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                  "spans": len(self.span_name)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(header) + "\n")
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            while chunk := list(itertools.islice(rows, 65536)):
                handle.writelines(f"[{n},{s - t0},{e - t0},{p}]\n" for n, s, e, p in chunk)


class _RootSpan:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer.active:
            self.tracer.enter(ROOT, ROOT)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.tracer.active:
            self.tracer.leave(failed=exc_type is not None)
        return False


# ---------------------------------------------------------------------------
# counter hooks, keyed by span name; they see arguments and results only

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _on_select_ranks(tr, outermost, duration, args, kwargs, result):
    problem, mask = args[0], _arg(args, kwargs, 1, "subset")
    if not isinstance(mask, int):
        mask = sum(1 << (i - 1) for i in mask)
    points = 1
    for i, dom in enumerate(problem.classifier.features):
        if not mask >> i & 1:
            points *= len(dom.values)
    tr.counts["model.select_ranks_calls"] += 1
    tr.counts["model.select_ranks_points"] += points


def _on_classifier(tr, outermost, duration, args, kwargs, result):
    tr.counts["model.classifiers_built"] += 1
    tr.counts["model.points_labelled"] += len(args[0]._labels)


def _on_predicate(tr, outermost, duration, args, kwargs, result):
    tr.counts["explain.predicate_calls"] += 1


def _on_family(tr, outermost, duration, args, kwargs, result):
    tr.note_family(result)


def _on_table(tr, outermost, duration, args, kwargs, result):
    if outermost:
        tr.note_table(result)


def _on_vector(tr, outermost, duration, args, kwargs, result):
    if outermost:
        tr.counts["scores.vectors"] += 1


def _on_template_score(tr, outermost, duration, args, kwargs, result):
    template = _arg(args, kwargs, 0, "template_id")
    problem = _arg(args, kwargs, 1, "problem")
    mode = _enum_value(_arg(args, kwargs, 3, "family_mode"))
    m = problem.m
    if _enum_value(template) in ALL_SUBSET_TEMPLATES and mode in (None, "all_subsets"):
        tr.counts["scores.subset_terms"] += m << (m - 1)
    else:
        if mode is None:
            mode = {"andjiga": "waxp"}.get(_enum_value(template), "axp")
        kind = tr.modules["fislab.explain"].ExplanationKind(mode)
        members = tr.original("explain.family")(problem, kind).members
        tr.counts["scores.family_terms"] += sum(s.bit_count() for s in members)
    _on_vector(tr, outermost, duration, args, kwargs, result)


def _on_family_score(tr, outermost, duration, args, kwargs, result):
    members = _arg(args, kwargs, 1, "members")
    tr.counts["scores.family_terms"] += sum(
        s.bit_count() if isinstance(s, int) else len(tuple(s)) for s in members)
    _on_vector(tr, outermost, duration, args, kwargs, result)


def _on_wvg_index(tr, outermost, duration, args, kwargs, result):
    game, template = args[0], _arg(args, kwargs, 1, "template_id")
    if _enum_value(template) in ALL_SUBSET_TEMPLATES:
        tr.counts["scores.subset_terms"] += game.m << (game.m - 1)
    _on_vector(tr, outermost, duration, args, kwargs, result)


def _on_check(tr, outermost, duration, args, kwargs, result):
    tr.counts["props.checks"] += 1


def _on_generated(tr, outermost, duration, args, kwargs, result):
    tr.counts["props.problems_generated"] += 1


def _on_relabel(tr, outermost, duration, args, kwargs, result):
    tr.counts["props.relabels"] += 1


def _on_hitting_sets(tr, outermost, duration, args, kwargs, result):
    tr.counts["explain.hitting_set_ns"] += duration


_HOOKS = {
    "model.ExplanationProblem.select_ranks": _on_select_ranks,
    "model.Classifier.__post_init__": _on_classifier,
    "explain.is_waxp": _on_predicate,
    "explain.is_wcxp": _on_predicate,
    "explain.family": _on_family,
    "explain.minimal_hitting_sets": _on_hitting_sets,
    "explain.enumerate_waxps": _on_family,
    "explain.enumerate_wcxps": _on_family,
    "explain.enumerate_axps": _on_family,
    "explain.enumerate_cxps": _on_family,
    "scores.template_score": _on_template_score,
    "scores.family_score": _on_family_score,
    "scores.wvg_power_index": _on_wvg_index,
    "scores.compute_fis": _on_vector,
    "scores.coverage_score": _on_vector,
    "scores.shapley_permutation_oracle": _on_vector,
    "props.random_problem": _on_generated,
    "props.relabeled_problem": _on_relabel,
}
for _name in ("build_table", "cf_expected", "cf_similarity", "cf_waxp", "cf_wcxp",
              "cf_axp", "cf_cxp", "cf_generator", "cf_wvg", "cf_sum", "dual_table"):
    _HOOKS[f"charfun.{_name}"] = _on_table
for _name in ("check_efficiency", "check_symmetry", "check_additivity", "check_dummy",
              "check_minimal_monotonicity", "check_class_relabeling",
              "check_relevancy_consistency", "check_duality"):
    _HOOKS[f"props.{_name}"] = _on_check


def fislab_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "fislab" or name.startswith("fislab.")}
