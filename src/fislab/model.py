"""Discrete classifiers, instances, feature spaces and explanation problems.

Features are numbered 1..m.  A feature subset is a plain int bit mask in
which bit (i - 1) stands for feature i; helpers below convert between masks
and sorted index lists.  Points in feature space are tuples with one value
per feature, enumerated lexicographically by feature index (feature 1 varies
slowest), which fixes the order of every report and of table-body documents.
Label tables and agreement facts are built with the mask kernel of
fislab.kernel.  Model documents are parsed here too, so that load_problem,
which bench/tracing.py times as part of the model layer, stays in it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import add, lshift, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .kernel import (CACHED_SELECTOR_BYTES, FLIP_FLAGS, axis_fold, field_ints, lacking_bit,
                     le_fields, reverse_bits, superset_fold)

HARD_FEATURE_CAP = 20
DEFAULT_FEATURE_LIMIT = 16
POINT_LIMIT = 1 << 20

class DomainError(ValueError):
    """A point, value or subset falls outside the declared feature space."""


class ScaleLimitError(ValueError):
    """The model exceeds the desk-scale enumeration limits."""


class RelabelError(ValueError):
    """A class relabeling map is not a bijection on the class set."""


class ParseError(ValueError):
    """Bad model document or boolean-expression text.

    For expression input, ``token_index`` (1-based) and ``position`` (char
    offset) locate the offending token.
    """

    def __init__(self, message: str, token_index: int | None = None,
                 position: int | None = None):
        if token_index is not None:
            message = f"{message} (at token {token_index}, position {position})"
        super().__init__(message)
        self.token_index = token_index
        self.position = position


def max_feature_limit() -> int:
    """Feature-count limit; FISLAB_MAX_FEATURES may raise it up to 20."""
    raw = os.environ.get("FISLAB_MAX_FEATURES")
    if raw is None:
        return DEFAULT_FEATURE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise ScaleLimitError(f"FISLAB_MAX_FEATURES is not an integer: {raw!r}")
    return max(1, min(limit, HARD_FEATURE_CAP))


# ---------------------------------------------------------------------------
# feature subsets as bit masks

def mask_of(features: Iterable[int], m: int) -> int:
    """Bit mask for a collection of 1-based feature indices."""
    mask = 0
    for i in features:
        if not 1 <= i <= m:
            raise DomainError(f"feature index {i} outside 1..{m}")
        mask |= 1 << (i - 1)
    return mask


def features_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based feature indices present in a mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def as_mask(subset, m: int) -> int:
    """Normalize a subset argument (mask int or iterable of indices)."""
    if isinstance(subset, int):
        if subset < 0 or subset >= (1 << m):
            raise DomainError(f"mask {subset:#x} references features beyond 1..{m}")
        return subset
    return mask_of(subset, m)


def _rank_sums(rows) -> list[int]:
    """Per point, in rank order, the sum over features i of rows[i][k] with
    k the index of the point's value of feature i.  Each feature expands the
    list for the features before it, so feature 1 varies slowest."""
    sums = [0]
    for row in rows:
        sums = [s + x for s in sums for x in row]
    return sums


# ---------------------------------------------------------------------------
# domains and instances

@dataclass(frozen=True)
class FeatureDomain:
    """One feature's ordered, finite value list."""

    feature_id: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if type(self.feature_id) is not int:
            raise DomainError(f"feature id must be an integer, got {self.feature_id!r}")
        if self.feature_id < 1:
            raise DomainError(f"feature id must be >= 1, got {self.feature_id}")
        if not self.values:
            raise DomainError(f"feature {self.feature_id} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise DomainError(f"feature {self.feature_id} has duplicate values")

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Instance:
    """A concrete point together with its predicted class."""

    point: tuple
    label: int

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(self.point))


# ---------------------------------------------------------------------------
# classifier bodies

@dataclass(frozen=True)
class TableBody:
    """Explicit class per point, in lexicographic point order."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for label in self.labels:
            if type(label) is not int:
                raise DomainError(f"table labels must be integers, got {label!r}")

    def to_json(self):
        return {"kind": "table", "labels": list(self.labels)}


@dataclass(frozen=True)
class TreeLeaf:
    label: int


@dataclass(frozen=True)
class TreeSplit:
    """Multi-way test on one feature; one branch per domain value."""

    feature: int
    branches: tuple  # ((value, node), ...)


@dataclass(frozen=True)
class TreeBody:
    root: object

    def to_json(self):
        return {"kind": "tree", "root": _tree_to_json(self.root)}


def _tree_to_json(node):
    if isinstance(node, TreeLeaf):
        return {"class": node.label}
    return {
        "feature": node.feature,
        "branches": [{"value": v, "child": _tree_to_json(c)}
                     for v, c in node.branches],
    }


# boolean expression AST; operands evaluate on 0/1 feature values

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


_PREC = {Or: 1, And: 2, Not: 3, Var: 4}


def expr_to_text(node) -> str:
    """Canonical text form with precedence !(not) > &(and) > |(or)."""
    def render(n, parent_prec, right_side):
        p = _PREC[type(n)]
        if isinstance(n, Var):
            s = f"x{n.index}"
        elif isinstance(n, Not):
            s = "!" + render(n.operand, p, False)
        else:
            op = " & " if isinstance(n, And) else " | "
            s = render(n.left, p, False) + op + render(n.right, p, True)
        if p < parent_prec or (right_side and p == parent_prec):
            return f"({s})"
        return s
    return render(node, 0, False)


@dataclass(frozen=True)
class BoolExprBody:
    ast: object

    def to_json(self):
        return {"kind": "boolexpr", "expr": expr_to_text(self.ast)}


@dataclass(frozen=True)
class WeightedVotingGame:
    """[quota; w_1..w_m] with non-negative integer weights and quota <= total."""

    quota: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise DomainError("a voting game needs at least one voter")
        limit = max_feature_limit()
        if len(self.weights) > limit:
            # scoring enumerates all 2^m coalitions
            raise ScaleLimitError(
                f"{len(self.weights)} voters exceeds the limit of {limit}")
        if any(type(w) is not int or w < 0 for w in self.weights):
            raise DomainError("weights must be non-negative integers")
        if type(self.quota) is not int:
            raise DomainError(f"quota must be an integer, got {self.quota!r}")
        if self.quota < 0 or self.quota > sum(self.weights):
            raise DomainError(
                f"quota {self.quota} must lie in 0..{sum(self.weights)}")

    @property
    def m(self) -> int:
        return len(self.weights)

    def coalition_weight(self, mask: int) -> int:
        total = 0
        for i, w in enumerate(self.weights):
            if mask >> i & 1:
                total += w
        return total

    def is_winning(self, mask: int) -> bool:
        return self.coalition_weight(mask) >= self.quota

    def winning_flags(self) -> bytes:
        """The flag table of the winning coalitions, one byte per mask.  The
        weights of every mask come from one doubling expansion: voter 1 is
        bit 0, so it varies fastest, which puts it last in _rank_sums'
        order."""
        weights = _rank_sums([(0, w) for w in reversed(self.weights)])
        return bytes(map(self.quota.__le__, weights))


@dataclass(frozen=True)
class WVGBody(WeightedVotingGame):
    """Threshold body: class 1 iff the weights of the 1-valued features reach the quota."""

    def to_json(self):
        return {"kind": "wvg", "quota": self.quota, "weights": list(self.weights)}


# ---------------------------------------------------------------------------
# label tables as whole-space bit operations
#
# A rank bitmap is an int whose bit r is set iff the point of rank r belongs
# to a set; every body is labelled by combining such ints.

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _value_bitmaps(cls: Classifier) -> list[int]:
    """Per feature, the rank bitmap of its domain's first value: a block of
    stride ones, repeated every size * stride ranks by a repunit.  Shifted
    left by k * stride it gives the ranks taking value k."""
    n = cls.space_size
    bitmaps = []
    for dom, stride in zip(cls.features, cls._strides):
        period = stride * dom.size
        repunit, ones = 1, 1  # a one every period bits, doubled up to n bits
        while ones < n // period:
            repunit |= repunit << ones * period
            ones *= 2
        bitmaps.append(((1 << stride) - 1) * (repunit & (1 << n) - 1))
    return bitmaps


def _expr_bitmap(node, ones: list[int], full: int) -> int:
    """Ranks on which a boolean expression is true; ones[i] holds the ranks
    with feature i + 1 equal to 1."""
    if isinstance(node, Var):
        return ones[node.index - 1]
    if isinstance(node, Not):
        return full ^ _expr_bitmap(node.operand, ones, full)
    left = _expr_bitmap(node.left, ones, full)
    right = _expr_bitmap(node.right, ones, full)
    return left & right if isinstance(node, And) else left | right


def _tree_planes(cls: Classifier, root) -> tuple[list[int], list[int]]:
    """A tree's leaf classes and their ranks, bit-sliced for _label_table,
    from one walk (_walk_split).  A feature's value bitmaps are one tuple
    when it fits CACHED_SELECTOR_BYTES; a larger one is its first value's
    bitmap shifted per branch, so that a few rank bitmaps per level live."""
    n = cls.space_size
    features = []  # per feature: its values, value -> index, index -> rank bitmap
    for first, dom, stride, index in zip(_value_bitmaps(cls), cls.features,
                                         cls._strides, cls._value_index):
        if dom.size * n <= 8 * CACHED_SELECTOR_BYTES:
            bits_of = tuple(first << k * stride for k in range(dom.size)).__getitem__
        else:
            bits_of = lambda k, first=first, stride=stride: first << k * stride
        features.append((dom.values, index.get, bits_of))
    if isinstance(root, TreeLeaf):
        return [root.label], []
    labels, planes = [], []
    _walk_split(root, (1 << n) - 1, (features, labels, {}, planes))
    return labels, planes


def _walk_split(split, reach, tree):
    """Check a split reached by the ranks of reach, then walk its branches
    in order, so that a malformed tree fails at its first bad split in
    pre-order.  A branch is reached by the ranks of reach with its value,
    and a subtree no rank reaches (below a second test of one feature) is
    walked with none: checked, but its leaves take no class.  A class takes
    the next position in the class list when a leaf first reaches it, and
    plane b ORs the ranks of every leaf whose class position has bit b set."""
    features, labels, position, planes = tree
    feature = split.feature
    if type(feature) is not int:
        raise ParseError(f"tree split feature must be an integer, got {feature!r}")
    if not 1 <= feature <= len(features):
        raise ParseError(f"tree tests unknown feature {feature}")
    domain, index, bits_of = features[feature - 1]
    values = [v for v, _ in split.branches]
    ranks = list(map(index, values))
    if len(ranks) != len(domain) or None in ranks or len(set(ranks)) != len(domain):
        raise ParseError(f"tree node on feature {feature} must branch on exactly "
                         f"the domain values {list(domain)}")
    for value, k in zip(values, ranks):  # true or 1.0 is not the domain's 1
        if type(value) is not type(domain[k]):
            raise ParseError(f"tree branch value {value!r} of feature {feature} "
                             f"is not the domain's {domain[k]!r}")
    for (_, child), k in zip(split.branches, ranks):
        sub = reach and reach & bits_of(k)
        if not isinstance(child, TreeLeaf):
            _walk_split(child, sub, tree)
        elif sub:
            at = position.get(child.label)
            if at is None:
                at = position[child.label] = len(labels)
                labels.append(child.label)
                if at.bit_length() > len(planes):
                    planes.append(0)
            while at:  # the set bits of the class's position, top first
                b = at.bit_length() - 1
                planes[b] |= sub
                at ^= 1 << b


def _label_table(labels: list, planes: list, n: int, as_bytes: bool) -> bytes | tuple:
    """The label of each of n ranks, given bit-sliced: bit b of a rank's
    position in labels is that rank's bit of planes[b].  A plane's binary
    digits, spread to one byte per rank and shifted left by b mod 8, add up
    to byte b // 8 of every rank's position.  When as_bytes, one-byte
    positions of labels in 0..255 become bytes by one translate."""
    width = 1  # bytes per position, a size memoryview.cast reads
    while len(planes) > 8 * width:
        width *= 2
    digits = [0] * width
    for b, plane in enumerate(planes):
        spread = int.from_bytes(format(plane, f"0{n}b").encode().translate(_BIT_BYTES), "big")
        digits[b // 8] += spread << b % 8
    if as_bytes and width == 1:
        try:
            return digits[0].to_bytes(n, "little").translate(bytes(labels).ljust(256, b"\0"))
        except (TypeError, ValueError):  # a leaf class outside 0..255, refused later
            pass
    codes = bytearray(n * width)
    for d, digit in enumerate(digits):
        start = d if sys.byteorder == "little" else width - 1 - d
        codes[start::width] = digit.to_bytes(n, "little")
    positions = memoryview(codes).cast({1: "B", 2: "H", 4: "I"}[width])
    return tuple(map(labels.__getitem__, positions))


# ---------------------------------------------------------------------------
# classifier

@dataclass(frozen=True)
class Classifier:
    """A total, non-constant map from a finite discrete feature space to int labels.

    The full label table is materialized at construction (desk-scale limits
    apply), so every later evaluation is a rank lookup and all predicates can
    enumerate exhaustively.  ``_labels`` holds the label of every point in
    rank order: one byte per point when every class is below 256, a tuple
    of ints otherwise.
    """

    features: tuple[FeatureDomain, ...]
    classes: frozenset[int]
    body: object
    m: int = field(init=False, compare=False, repr=False)
    _labels: bytes | tuple[int, ...] = field(init=False, compare=False, repr=False)
    _strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _value_index: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        classes = tuple(self.classes)  # checked one by one: a set merges true and 1.0 into 1
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "classes", frozenset(classes))
        object.__setattr__(self, "m", len(self.features))
        self._validate_shape(classes)
        strides = [1] * self.m
        for i in range(self.m - 2, -1, -1):
            strides[i] = strides[i + 1] * self.features[i + 1].size
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_value_index",
                           tuple({v: k for k, v in enumerate(d.values)}
                                 for d in self.features))
        narrow = max(self.classes) < 256
        labels = self._build_labels(narrow)
        try:
            labels = bytes(labels) if narrow else tuple(labels)
        except (TypeError, ValueError):  # a label outside 0..255, refused below
            pass
        object.__setattr__(self, "_labels", labels)
        undeclared = set(labels.translate(None, bytes(self.classes))
                         if type(labels) is bytes else labels) - self.classes
        if undeclared:
            raise DomainError(f"labels {sorted(undeclared)} not in the class set")
        if labels.count(labels[0]) == len(labels):
            raise DomainError("classification function is constant")

    def _validate_shape(self, classes: tuple):
        if not self.features:
            raise DomainError("classifier needs at least one feature")
        for pos, dom in enumerate(self.features, start=1):
            if dom.feature_id != pos:
                raise ParseError(f"feature ids must be 1..m in order; "
                                 f"position {pos} has id {dom.feature_id}")
        limit = max_feature_limit()
        if self.m > limit:
            raise ScaleLimitError(f"{self.m} features exceeds the limit of {limit}")
        size = 1
        for dom in self.features:
            size *= dom.size
            if size > POINT_LIMIT:
                raise ScaleLimitError(
                    f"feature space larger than {POINT_LIMIT} points")
        if not self.classes:
            raise DomainError("empty class set")
        for c in classes:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise DomainError(f"class labels must be non-negative integers, got {c!r}")

    def _build_labels(self, as_bytes: bool) -> bytes | tuple[int, ...]:
        """The label of every point, in rank order, from whole-space
        operations on the body: rank sums for a voting game, rank bitmaps
        for an expression or a tree; as_bytes asks _label_table for bytes."""
        body = self.body
        if isinstance(body, TableBody):
            if len(body.labels) != self.space_size:
                raise ParseError(
                    f"table body has {len(body.labels)} entries, "
                    f"feature space has {self.space_size} points")
            return body.labels
        if isinstance(body, WVGBody):
            _check_boolean_domains(self.features, "wvg")
            if len(body.weights) != self.m:
                raise ParseError("wvg body needs one weight per feature")
            # each rank's coalition weight: the weights of its 1-valued features
            weights = _rank_sums([[w if x == 1 else 0 for x in dom.values]
                                  for w, dom in zip(body.weights, self.features)])
            return bytes(map(body.quota.__le__, weights))
        if isinstance(body, BoolExprBody):
            _check_boolean_domains(self.features, "boolexpr")
            _check_expr_vars(body.ast, self.m)
            first = _value_bitmaps(self)
            ones = [bits << index[1] * stride for bits, index, stride
                    in zip(first, self._value_index, self._strides)]
            true = _expr_bitmap(body.ast, ones, (1 << self.space_size) - 1)
            return _label_table([0, 1], [true], self.space_size, as_bytes)
        if isinstance(body, TreeBody):
            return _label_table(*_tree_planes(self, body.root), self.space_size, as_bytes)
        raise TypeError(f"not a classifier body: {body!r}")

    @property
    def space_size(self) -> int:
        n = 1
        for dom in self.features:
            n *= dom.size
        return n

    def points(self) -> Iterator[tuple]:
        """All points of the feature space, lexicographic by feature index."""
        return itertools.product(*(d.values for d in self.features))

    def point_rank(self, point) -> int:
        if len(point) != self.m:
            raise DomainError(f"point has {len(point)} coordinates, expected {self.m}")
        rank = 0
        for i, x in enumerate(point):
            try:
                rank += self._value_index[i][x] * self._strides[i]
            except (KeyError, TypeError):
                raise DomainError(
                    f"value {x!r} not in the domain of feature {i + 1}") from None
        return rank

    def evaluate(self, point) -> int:
        return self._labels[self.point_rank(point)]

    def to_document(self) -> dict:
        return {
            "features": [{"id": d.feature_id, "values": list(d.values)}
                         for d in self.features],
            "classes": sorted(self.classes),
            "body": self.body.to_json(),
        }


def _check_boolean_domains(features, kind: str):
    for dom in features:
        if set(dom.values) != {0, 1}:
            raise ParseError(f"{kind} bodies require 0/1 feature domains; "
                             f"feature {dom.feature_id} has {list(dom.values)}")


def _check_expr_vars(node, m: int):
    if isinstance(node, Var):
        if not 1 <= node.index <= m:
            raise ParseError(f"unknown feature reference x{node.index}")
    elif isinstance(node, Not):
        _check_expr_vars(node.operand, m)
    elif isinstance(node, (And, Or)):
        _check_expr_vars(node.left, m)
        _check_expr_vars(node.right, m)


def relabel_classes(classifier: Classifier, sigma: Mapping[int, int]) -> Classifier:
    """New classifier emitting sigma(old label) everywhere.

    sigma must be total and injective on the class set; the result carries an
    explicit table body.
    """
    missing = classifier.classes - set(sigma)
    if missing:
        raise RelabelError(f"relabeling not total, missing {sorted(missing)}")
    image = [sigma[c] for c in sorted(classifier.classes)]
    if len(set(image)) != len(image):
        raise RelabelError("relabeling is not injective on the class set")
    return Classifier(classifier.features, frozenset(image),
                      TableBody(tuple(map(sigma.__getitem__, classifier._labels))))


# ---------------------------------------------------------------------------
# explanation problems and point-set selection

@dataclass(frozen=True)
class ExplanationProblem:
    """A classifier fixed at one instance; the parameter of every score."""

    classifier: Classifier
    instance: Instance
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        got = self.classifier.evaluate(self.instance.point)
        if got != self.instance.label:
            raise DomainError(
                f"label mismatch: instance says {self.instance.label}, "
                f"classifier says {got}")

    @property
    def m(self) -> int:
        return self.classifier.m

    @property
    def v(self) -> tuple:
        return self.instance.point

    @property
    def c(self) -> int:
        return self.instance.label

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def select_points(self, subset) -> list[tuple]:
        """Points agreeing with the instance on the given features, lexicographic."""
        mask = as_mask(subset, self.m)
        axes = [(self.v[i],) if mask >> i & 1 else dom.values
                for i, dom in enumerate(self.classifier.features)]
        return list(itertools.product(*axes))

    def select_ranks(self, subset) -> Iterator[int]:
        """Ranks of select_points(subset), avoiding tuple construction."""
        mask = as_mask(subset, self.m)
        cls = self.classifier
        base = 0
        axes = []
        for i in range(self.m):
            if mask >> i & 1:
                base += cls._value_index[i][self.v[i]] * cls._strides[i]
            else:
                stride = cls._strides[i]
                axes.append(tuple(k * stride for k in range(cls.features[i].size)))
        if not axes:
            return iter((base,))
        return (base + sum(offsets) for offsets in itertools.product(*axes))

    def __reduce__(self):
        # the memo is derived data: a problem sent to a worker goes
        # without it
        return ExplanationProblem, (self.classifier, self.instance)

    def _memo(self, key, build):
        """The value kept on the problem under key, from build() on first use."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def _mask_labels(self) -> bytes | None:
        """The label of the one point at each agreement mask with the
        instance, or None unless every domain has two values and every class
        is below 256 (see _mask_labels); built on first use."""
        return self._memo(("mask_labels",), lambda: _mask_labels(self))

    def _sufficient_flags(self) -> bytes:
        """The flag table of the sufficient subsets, the masks S such that
        every point agreeing with the instance on S has its class; built on
        first use, from the labels alone, without agreement_sums.  Every
        explanation family reads it."""
        return self._memo(("sufficient",), lambda: _sufficient_flags(self))


def _mask_labels(problem: ExplanationProblem) -> bytes | None:
    """The label of each point, one byte each, moved from its rank to its
    agreement mask with the instance, when every domain has two values and
    every class is below 256 (otherwise None).  With two values per domain
    each mask holds exactly one point, so this is an index permutation,
    done in whole-table swaps on the bytes read as one little-endian int.

    Rank order puts feature 1 in the top bit of the rank, and mask order in
    bit 0, so m // 2 delta swaps (Knuth, TAOCP 4A, 7.1.3) of bits j and
    m - 1 - j first reverse the index bits: entry q then holds the point
    whose value index on feature i is bit i of q.  That point agrees with
    the instance on i when the two indices are equal, so for each feature
    whose instance value has index 0 a half-swap on bit i (each block of
    2^i entries trades places with its neighbour) flips bit i of every
    entry's index.
    """
    cls = problem.classifier
    labels = cls._labels
    if type(labels) is not bytes or any(dom.size != 2 for dom in cls.features):
        return None
    n = len(labels)
    lacking = list(lacking_bit(n))
    table = reverse_bits(int.from_bytes(labels, "little"), n, 1)
    for i, (index, v) in enumerate(zip(cls._value_index, problem.v)):
        if index[v] == 0:
            shift = 8 << i
            table = ((table & lacking[i]) << shift) | ((table >> shift) & lacking[i])
    return table.to_bytes(n, "little")


def _fold_order(problem: ExplanationProblem):
    """(labels, fold): the problem's labels, in the order its fold reads,
    and the fold, called as fold(data, width, combine) (see
    superset_fold).  A problem with mask labels folds them in mask order
    by superset_fold; any other folds its classifier's labels (bytes, or
    a tuple when a class is above 255) in rank order by axis_fold."""
    labels = problem._mask_labels()
    if labels is not None:
        return labels, superset_fold
    cls = problem.classifier
    # per feature, feature 1 first, (domain size, index of the instance's value)
    axes = [(dom.size, index[v])
            for dom, index, v in zip(cls.features, cls._value_index, problem.v)]
    return cls._labels, functools.partial(axis_fold, axes=axes)


def _class_bytes(problem: ExplanationProblem, labels: bytes | tuple, same: int) -> bytes:
    """One byte per point of labels, in their order: same (0 or 1) where
    the point has the instance's class, 1 - same elsewhere."""
    c = problem.c
    if type(labels) is tuple:
        return bytes(map(c.__eq__ if same else c.__ne__, labels))
    rest = bytes((1 - same,))
    return labels.translate(rest * c + bytes((same,)) + rest * (255 - c))


def _sufficient_flags(problem: ExplanationProblem) -> bytes:
    """S is sufficient iff no point of another class agrees with the
    instance on a superset of S: the problem's fold ORs the flags of the
    points of another class and the complement is the table."""
    labels, fold = _fold_order(problem)
    return fold(_class_bytes(problem, labels, 0), 1, or_).translate(FLIP_FLAGS)


# the limbs of labels too large for 4-byte fields: 32 bits each, whose sums
# over at most POINT_LIMIT points fit 8-byte fields
_LIMB_BYTES = 4


def agreement_sums(problem: ExplanationProblem) -> tuple[Sequence[int], Sequence[int]]:
    """(label_sum, same), indexed by subset mask S, over the points x with
    x_i = v_i for every feature i in S: label_sum adds their labels and
    same counts those of the instance's class.  The CF_E and CF_M tables,
    the only readers, scale each mask by the domain sizes (charfun).

    One fold (see _fold_order) of fields that hold a point's label in their
    low half and its same-class flag in their high half gives both, as
    arrays of its fields.  Labels whose total needs more than 4 bytes fold
    in 32-bit limbs, recombined at the end into a tuple, and the flags fold
    alone."""
    labels, fold = _fold_order(problem)
    flags = _class_bytes(problem, labels, 1)
    # bounds every label sum and every count: some label is below the top
    # class, since no classifier is constant
    bits = (max(problem.classifier.classes) * len(labels) - 1).bit_length()
    half = next((size for size in (1, 2, 4) if 8 * size >= bits), None)
    if half is not None:
        # each label in the low half of its field, each flag in the high half
        width = 2 * half
        if type(labels) is tuple:
            fused = bytearray(le_fields(labels, width))
        else:
            fused = bytearray(len(labels) * width)
            fused[::width] = labels
        fused[half::width] = flags
        halves = field_ints(fold(fused, width, add), half)
        return halves[0::2], halves[1::2]
    # A total past 4 bytes needs a class above 4096, with at most
    # POINT_LIMIT points, so its labels are a tuple in rank order.
    width = 8  # holds the flag sums and the sums of one limb
    spread = bytearray(len(labels) * width)
    spread[::width] = flags
    same = field_ints(fold(spread, width, add), width)
    n_limbs = -(-max(labels).bit_length() // (8 * _LIMB_BYTES))
    limbs = field_ints(b"".join(map(int.to_bytes, labels, itertools.repeat(
        n_limbs * _LIMB_BYTES), itertools.repeat("little"))), _LIMB_BYTES)
    label_sum = itertools.repeat(0)
    for t in range(n_limbs):
        fields = le_fields(limbs[t::n_limbs], width)
        sums = field_ints(fold(fields, width, add), width)
        shift = itertools.repeat(8 * _LIMB_BYTES * t)
        label_sum = map(add, label_sum, map(lshift, sums, shift))
    return tuple(label_sum), same


def make_problem(classifier: Classifier, point, label: int | None = None) -> ExplanationProblem:
    """Bundle a classifier with an instance, deriving the label when omitted."""
    point = tuple(point)
    if label is None:
        label = classifier.evaluate(point)
    return ExplanationProblem(classifier, Instance(point, label))


def agreement_set(x, v) -> int:
    """Mask of the coordinates on which the two points agree."""
    if len(x) != len(v):
        raise DomainError("points live in different feature spaces")
    mask = 0
    for i, (a, b) in enumerate(zip(x, v)):
        if a == b:
            mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# boolean expression parsing

_TOKEN_RE = re.compile(r"\s*(?:(x\d+)|(&|∧)|(\||∨)|(!|~|¬)|(\()|(\)))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             token_index=len(tokens) + 1, position=at)
        kind = ("var", "and", "or", "not", "lparen", "rparen")[match.lastindex - 1]
        tokens.append((kind, match.group(match.lastindex), match.start(match.lastindex)))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# Deepest expression accepted.  Every walk over the AST recurses once per
# level and the parser up to four times per level of parentheses, so this
# keeps all of them well inside Python's default recursion limit of 1000.
MAX_EXPR_DEPTH = 128


class _ExprParser:
    """Recursive descent over var/()/!/&/| with precedence ! > & > |.

    Each parse method returns the node and the depth of its subtree; the
    parser refuses to nest or build deeper than MAX_EXPR_DEPTH.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.idx = 0
        self.nesting = 0  # open parentheses and negations

    def _fail(self, expected):
        kind, text, pos = self.tokens[self.idx]
        shown = "end of input" if kind == "eof" else repr(text)
        raise ParseError(f"expected {expected}, found {shown}",
                         token_index=self.idx + 1, position=pos)

    def _too_deep(self):
        _kind, _text, pos = self.tokens[self.idx - 1]
        raise ParseError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels",
                         token_index=self.idx, position=pos)

    def _open(self):
        """Count the '(' or '!' just consumed."""
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            self._too_deep()

    def _node(self, node, depth):
        if depth > MAX_EXPR_DEPTH:
            self._too_deep()
        return node, depth

    def parse(self):
        node, _depth = self.parse_or()
        if self.tokens[self.idx][0] != "eof":
            self._fail("end of input")
        return node

    def parse_or(self):
        node, depth = self.parse_and()
        while self.tokens[self.idx][0] == "or":
            self.idx += 1
            right, right_depth = self.parse_and()
            node, depth = self._node(Or(node, right), max(depth, right_depth) + 1)
        return node, depth

    def parse_and(self):
        node, depth = self.parse_not()
        while self.tokens[self.idx][0] == "and":
            self.idx += 1
            right, right_depth = self.parse_not()
            node, depth = self._node(And(node, right), max(depth, right_depth) + 1)
        return node, depth

    def parse_not(self):
        if self.tokens[self.idx][0] == "not":
            self.idx += 1
            self._open()
            operand, depth = self.parse_not()
            self.nesting -= 1
            return self._node(Not(operand), depth + 1)
        return self.parse_atom()

    def parse_atom(self):
        kind, text, _pos = self.tokens[self.idx]
        if kind == "var":
            self.idx += 1
            index = int(text[1:])
            if index < 1:
                self._fail("a feature reference x1, x2, ...")
            return Var(index), 1
        if kind == "lparen":
            self.idx += 1
            self._open()
            result = self.parse_or()
            if self.tokens[self.idx][0] != "rparen":
                self._fail("')'")
            self.idx += 1
            self.nesting -= 1
            return result
        self._fail("a feature reference or '('")


def _max_var(node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Not):
        return _max_var(node.operand)
    return max(_max_var(node.left), _max_var(node.right))


def parse_boolean_expression(text: str, n_features: int | None = None) -> Classifier:
    """Classifier over boolean features from an &/|/! expression.

    n_features defaults to the highest feature index mentioned; extra unused
    features are allowed when a larger count is given.
    """
    ast = _ExprParser(_tokenize(text)).parse()
    m = _max_var(ast)
    if n_features is not None:
        if n_features < m:
            raise ParseError(f"expression references x{m} but only "
                             f"{n_features} features were declared")
        m = n_features
    features = tuple(FeatureDomain(i, (0, 1)) for i in range(1, m + 1))
    return Classifier(features, frozenset({0, 1}), BoolExprBody(ast))


# ---------------------------------------------------------------------------
# model documents

class _TreeFault(ParseError):
    """A malformed tree node; path gets the branch index of each level
    above it as the parse unwinds."""


def _parse_tree_node(obj, leaves: dict):
    """The tree of a document object; leaves shares one TreeLeaf per class."""
    if not isinstance(obj, dict):
        fault = "tree node must be an object"
    elif "class" in obj:
        label = obj["class"]
        if isinstance(label, int) and not isinstance(label, bool):
            return leaves.get(label) or leaves.setdefault(label, TreeLeaf(label))
        fault = "leaf class must be an integer"
    elif "feature" in obj and "branches" in obj:
        branches = obj["branches"]
        try:
            return TreeSplit(obj["feature"], tuple([
                (b["value"], _parse_tree_node(b["child"], leaves)) for b in branches]))
        except _TreeFault as error:  # the first branch holding the bad node
            error.path.append(next(k for k, b in enumerate(branches)
                                   if b["child"] is error.node))
            error.node = obj
            raise
    else:
        fault = "tree node needs 'class' or 'feature'+'branches'"
    error = _TreeFault(fault)
    error.node, error.path = obj, []
    raise error


def _as_document(document):
    """A model document given as JSON text, parsed; any other value as is."""
    if not isinstance(document, str):
        return document
    with _reading_document():
        try:
            return json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from None


def _array(raw: dict, key: str) -> tuple:
    """The JSON array under key, as a tuple; a string or an object there
    would otherwise be read as its characters or its keys."""
    value = raw[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a JSON array")
    return tuple(value)


def parse_model(document) -> Classifier:
    """Build a validated classifier from a model document (dict or JSON text)."""
    document = _as_document(document)
    if not isinstance(document, dict):
        raise ParseError("model document must be a single JSON object")
    with _reading_document():
        raw_features = document["features"]
        raw_body = document["body"]
        features = tuple(FeatureDomain(f["id"], _array(f, "values"))
                         for f in raw_features)
        classes = _array(document, "classes")
        kind = raw_body.get("kind")
        if kind == "table":
            body = TableBody(_array(raw_body, "labels"))
        elif kind == "tree":
            try:
                body = TreeBody(_parse_tree_node(raw_body["root"], {}))
            except _TreeFault as error:
                path = "".join(f"/branches[{k}]" for k in reversed(error.path))
                raise ParseError(f"root{path}: {error}") from None
        elif kind == "boolexpr":
            ast = _ExprParser(_tokenize(raw_body["expr"])).parse()
            body = BoolExprBody(ast)
        elif kind == "wvg":
            body = WVGBody(raw_body["quota"], _array(raw_body, "weights"))
        else:
            raise ParseError(f"unknown body kind {kind!r}")
        return Classifier(features, classes, body)


def load_problem(document) -> ExplanationProblem:
    """Classifier plus embedded instance from one document."""
    document = _as_document(document)
    classifier = parse_model(document)
    raw = document.get("instance")
    if raw is None:
        raise ParseError("model document carries no instance")
    with _reading_document():
        point, label = _array(raw, "point"), raw.get("label")
    if label is not None and type(label) is not int:
        raise ParseError(f"instance label must be an integer, got {label!r}")
    problem = make_problem(classifier, point, label)
    for i, (x, domain) in enumerate(zip(problem.v, classifier.features), 1):
        own = domain.values[domain.values.index(x)]  # the domain value x equals
        if type(x) is not type(own):
            raise ParseError(f"instance value {x!r} of feature {i} is not the domain's {own!r}")
    return problem


@contextmanager
def _reading_document():
    """Report a document of the wrong shape (a missing key, a value of the
    wrong JSON type, nesting too deep for Python's recursion limit) as a
    ParseError."""
    try:
        yield
    except RecursionError:
        raise ParseError("model document nests too deeply") from None
    except KeyError as exc:
        raise ParseError(f"model document misses key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None


def problem_to_document(problem: ExplanationProblem) -> dict:
    doc = problem.classifier.to_document()
    doc["instance"] = {"point": list(problem.v), "label": problem.c}
    return doc
