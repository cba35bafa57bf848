"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a model document (the
only thing the program sees) together with the label of every point of the
feature space, computed here without the library, in the library's point
order (feature 1 varies slowest).  The checker uses those labels as an
independent reference.

The large models draw their shape from one ``random.Random`` and, through
``perm``, take their feature numbering from another: ``perm[i - 1]`` is the
number that base feature ``i`` gets in the document.  Renumbering features
gives a different document that takes the same work, so the wide workload's
seed varies the input without varying how much work it is.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Model:
    """One generated model: its document, the instance, and the reference labels."""

    name: str
    document: dict          # model document, instance included
    domains: tuple          # value tuple per feature
    labels: tuple           # label per point, lexicographic point order
    point: tuple
    label: int

    def label_at(self, point) -> int:
        rank = 0
        for dom, x in zip(self.domains, point):
            rank = rank * len(dom) + dom.index(x)
        return self.labels[rank]


def _points(domains):
    return itertools.product(*domains)


def _finish(name, domains, classes, body, label_of, point) -> Model:
    labels = tuple(label_of(p) for p in _points(domains))
    label = label_of(point)
    document = {
        "features": [{"id": i, "values": list(d)} for i, d in enumerate(domains, 1)],
        "classes": list(classes),
        "body": body,
        "instance": {"point": list(point), "label": label},
    }
    return Model(name, document, tuple(domains), labels, point, label)


def _renumber(perm, point) -> tuple:
    """The document point of a base point: base feature i becomes feature perm[i-1]."""
    out = [None] * len(point)
    for i, x in enumerate(point):
        out[perm[i] - 1] = x
    return tuple(out)


def boolexpr_chain(rng: random.Random, m: int, perm) -> Model:
    """Alternating and/or chain l1 op (l2 op (l3 ...)) over shuffled, partly negated literals."""
    order = [perm[i - 1] for i in rng.sample(range(1, m + 1), m)]
    negated = [rng.random() < 0.25 for _ in range(m)]
    and_first = rng.random() < 0.5
    ops = ["&" if (k % 2 == 0) == and_first else "|" for k in range(m - 1)]

    def literal(k):
        return ("!" if negated[k] else "") + f"x{order[k]}"

    text = literal(m - 1)
    for k in range(m - 2, -1, -1):
        text = f"{literal(k)} {ops[k]} ({text})"

    def label_of(point):
        def lit(k):
            return 1 - point[order[k] - 1] if negated[k] else point[order[k] - 1]
        value = lit(m - 1)
        for k in range(m - 2, -1, -1):
            value = (lit(k) & value) if ops[k] == "&" else (lit(k) | value)
        return value

    domains = [(0, 1)] * m
    point = _renumber(perm, [rng.randrange(2) for _ in range(m)])
    return _finish(f"boolexpr_m{m}", domains, (0, 1),
                   {"kind": "boolexpr", "expr": text}, label_of, point)


def random_table(rng: random.Random, m: int, perm=None) -> Model:
    """Uniformly random non-constant boolean truth table."""
    size = 1 << m
    while True:
        base = [rng.randrange(2) for _ in range(size)]
        if 0 < sum(base) < size:
            break
    domains = [(0, 1)] * m
    point = tuple(rng.randrange(2) for _ in range(m))
    if perm is None:
        perm = range(1, m + 1)
    rank = {_renumber(perm, p): k for k, p in enumerate(_points(domains))}
    table = [base[rank[p]] for p in _points(domains)]
    return _finish(f"table_m{m}", domains, (0, 1),
                   {"kind": "table", "labels": table},
                   lambda p: base[rank[p]], _renumber(perm, point))


def balanced_wvg(m: int) -> Model:
    """Equal weights, a majority quota and the all-ones instance: every majority
    is a minimal explanation.  Renumbering features leaves this game as it is."""
    weights = [1] * m
    quota = (m + 1) // 2

    def label_of(point):
        return int(sum(w for w, x in zip(weights, point) if x == 1) >= quota)

    domains = [(0, 1)] * m
    return _finish(f"wvg_m{m}", domains, (0, 1),
                   {"kind": "wvg", "quota": quota, "weights": weights}, label_of,
                   (1,) * m)


def ternary_tree(rng: random.Random, m: int, perm, depth: int = 6,
                 classes: int = 3) -> Model:
    """Random multi-way tree over ternary domains with `classes` leaf classes."""
    values = (0, 1, 2)

    def grow(level, free):
        if level == depth or not free or (level >= 2 and rng.random() < 0.3):
            return {"class": rng.randrange(classes)}
        feature = perm[rng.choice(free) - 1]
        rest = [f for f in free if perm[f - 1] != feature]
        return {"feature": feature,
                "branches": [{"value": v, "child": grow(level + 1, rest)}
                             for v in values]}

    def walk(node, point):
        while "class" not in node:
            node = node["branches"][point[node["feature"] - 1]]["child"]
        return node["class"]

    domains = [values] * m
    while True:
        root = grow(0, list(range(1, m + 1)))
        labels = {walk(root, p) for p in _points(domains)}
        if len(labels) > 1:
            break
    point = _renumber(perm, [rng.choice(values) for _ in range(m)])
    return _finish(f"tree_m{m}", domains, tuple(range(classes)),
                   {"kind": "tree", "root": root}, lambda p: walk(root, p), point)

