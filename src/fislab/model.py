"""Discrete classifiers, instances, feature spaces and explanation problems.

Features are numbered 1..m.  A feature subset is a plain int bit mask in
which bit (i - 1) stands for feature i; helpers below convert between masks
and sorted index lists.  Points in feature space are tuples with one value
per feature, enumerated lexicographically by feature index (feature 1 varies
slowest), which fixes the order of every report and of table-body documents.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

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


# ---------------------------------------------------------------------------
# domains and instances

@dataclass(frozen=True)
class FeatureDomain:
    """One feature's ordered, finite value list."""

    feature_id: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.feature_id < 1:
            raise DomainError(f"feature id must be >= 1, got {self.feature_id}")
        if not self.values:
            raise DomainError(f"feature {self.feature_id} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise DomainError(f"feature {self.feature_id} has duplicate values")

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def trivial(self) -> bool:
        # single-valued domains make the feature irrelevant by construction
        return len(self.values) == 1


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


def _expr_eval(node, point) -> int:
    if isinstance(node, Var):
        return 1 if point[node.index - 1] else 0
    if isinstance(node, Not):
        return 1 - _expr_eval(node.operand, point)
    if isinstance(node, And):
        return _expr_eval(node.left, point) and _expr_eval(node.right, point)
    return _expr_eval(node.left, point) or _expr_eval(node.right, point)


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


@dataclass(frozen=True)
class WVGBody(WeightedVotingGame):
    """Threshold body: class 1 iff the weights of the 1-valued features reach the quota."""

    def to_json(self):
        return {"kind": "wvg", "quota": self.quota, "weights": list(self.weights)}


def _eval_body(body, features: tuple[FeatureDomain, ...], point) -> int:
    if isinstance(body, TreeBody):
        node = body.root
        while isinstance(node, TreeSplit):
            x = point[node.feature - 1]
            for value, child in node.branches:
                if value == x:
                    node = child
                    break
            else:  # construction guarantees totality; defensive
                raise DomainError(f"tree has no branch for feature {node.feature} value {x!r}")
        return node.label
    if isinstance(body, BoolExprBody):
        return _expr_eval(body.ast, point)
    if isinstance(body, WVGBody):
        return int(body.is_winning(sum(1 << i for i, x in enumerate(point) if x == 1)))
    raise TypeError(f"not a classifier body: {body!r}")


# ---------------------------------------------------------------------------
# classifier

@dataclass(frozen=True)
class Classifier:
    """A total, non-constant map from a finite discrete feature space to int labels.

    The full label table is materialized at construction (desk-scale limits
    apply), so every later evaluation is a rank lookup and all predicates can
    enumerate exhaustively.
    """

    features: tuple[FeatureDomain, ...]
    classes: frozenset[int]
    body: object
    _labels: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _value_index: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "classes", frozenset(self.classes))
        self._validate_shape()
        strides = [1] * self.m
        for i in range(self.m - 2, -1, -1):
            strides[i] = strides[i + 1] * self.features[i + 1].size
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_value_index",
                           tuple({v: k for k, v in enumerate(d.values)}
                                 for d in self.features))
        object.__setattr__(self, "_labels", self._build_labels())
        self._validate_labels()

    def _validate_shape(self):
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
        for c in self.classes:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise DomainError(f"class labels must be non-negative integers, got {c!r}")

    def _build_labels(self) -> tuple[int, ...]:
        if isinstance(self.body, TableBody):
            if len(self.body.labels) != self.space_size:
                raise ParseError(
                    f"table body has {len(self.body.labels)} entries, "
                    f"feature space has {self.space_size} points")
            return self.body.labels
        if isinstance(self.body, BoolExprBody):
            _check_boolean_domains(self.features, "boolexpr")
            _check_expr_vars(self.body.ast, self.m)
        if isinstance(self.body, WVGBody):
            _check_boolean_domains(self.features, "wvg")
            if len(self.body.weights) != self.m:
                raise ParseError("wvg body needs one weight per feature")
        if isinstance(self.body, TreeBody):
            _check_tree(self.body.root, self.features)
        return tuple(_eval_body(self.body, self.features, p) for p in self.points())

    def _validate_labels(self):
        emitted = set(self._labels)
        if not emitted <= self.classes:
            raise DomainError(f"labels {sorted(emitted - self.classes)} not in the class set")
        if len(emitted) < 2:
            raise DomainError("classification function is constant")

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def space_size(self) -> int:
        n = 1
        for dom in self.features:
            n *= dom.size
        return n

    @property
    def trivial_features(self) -> tuple[int, ...]:
        """Features flagged for having single-valued domains."""
        return tuple(d.feature_id for d in self.features if d.trivial)

    def domain_values(self, i: int) -> tuple:
        return self.features[i - 1].values

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

    def label_by_rank(self, rank: int) -> int:
        return self._labels[rank]

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


def _check_tree(node, features):
    if isinstance(node, TreeLeaf):
        return
    if not 1 <= node.feature <= len(features):
        raise ParseError(f"tree tests unknown feature {node.feature}")
    dom = features[node.feature - 1]
    values = [v for v, _ in node.branches]
    if len(values) != len(set(values)) or set(values) != set(dom.values):
        raise ParseError(
            f"tree node on feature {node.feature} must branch on exactly "
            f"the domain values {list(dom.values)}")
    for _, child in node.branches:
        _check_tree(child, features)


def evaluate(classifier: Classifier, point) -> int:
    """Class of a point; raises DomainError outside the feature space."""
    return classifier.evaluate(point)


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
    labels = tuple(sigma[c] for c in classifier._labels)
    return Classifier(
        features=classifier.features,
        classes=frozenset(image),
        body=TableBody(labels),
    )


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

    def upsilon_size(self, subset) -> int:
        mask = as_mask(subset, self.m)
        n = 1
        for i, dom in enumerate(self.classifier.features):
            if not mask >> i & 1:
                n *= dom.size
        return n

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


def make_problem(classifier: Classifier, point, label: int | None = None) -> ExplanationProblem:
    """Bundle a classifier with an instance, deriving the label when omitted."""
    point = tuple(point)
    actual = classifier.evaluate(point)
    if label is None:
        label = actual
    return ExplanationProblem(classifier, Instance(point, label))


def select_points(problem: ExplanationProblem, subset) -> list[tuple]:
    return problem.select_points(subset)


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


class _ExprParser:
    """Recursive descent over var/()/!/&/| with precedence ! > & > |."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.idx = 0

    def _fail(self, expected):
        kind, text, pos = self.tokens[self.idx]
        shown = "end of input" if kind == "eof" else repr(text)
        raise ParseError(f"expected {expected}, found {shown}",
                         token_index=self.idx + 1, position=pos)

    def parse(self):
        node = self.parse_or()
        if self.tokens[self.idx][0] != "eof":
            self._fail("end of input")
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.tokens[self.idx][0] == "or":
            self.idx += 1
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.tokens[self.idx][0] == "and":
            self.idx += 1
            node = And(node, self.parse_not())
        return node

    def parse_not(self):
        if self.tokens[self.idx][0] == "not":
            self.idx += 1
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        kind, text, _pos = self.tokens[self.idx]
        if kind == "var":
            self.idx += 1
            index = int(text[1:])
            if index < 1:
                self._fail("a feature reference x1, x2, ...")
            return Var(index)
        if kind == "lparen":
            self.idx += 1
            node = self.parse_or()
            if self.tokens[self.idx][0] != "rparen":
                self._fail("')'")
            self.idx += 1
            return node
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

def _parse_tree_node(obj, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: tree node must be an object")
    if "class" in obj:
        label = obj["class"]
        if not isinstance(label, int) or isinstance(label, bool):
            raise ParseError(f"{where}: leaf class must be an integer")
        return TreeLeaf(label)
    if "feature" not in obj or "branches" not in obj:
        raise ParseError(f"{where}: tree node needs 'class' or 'feature'+'branches'")
    branches = tuple(
        (b["value"], _parse_tree_node(b["child"], f"{where}/branches[{k}]"))
        for k, b in enumerate(obj["branches"]))
    return TreeSplit(obj["feature"], branches)


def parse_model(document) -> Classifier:
    """Build a validated classifier from a model document (dict or JSON text)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ParseError("model document must be a single JSON object")
    with _reading_document():
        raw_features = document["features"]
        raw_classes = document["classes"]
        raw_body = document["body"]
        features = tuple(FeatureDomain(f["id"], tuple(f["values"]))
                         for f in raw_features)
        classes = frozenset(raw_classes)
        kind = raw_body.get("kind")
        if kind == "table":
            body = TableBody(tuple(raw_body["labels"]))
        elif kind == "tree":
            body = TreeBody(_parse_tree_node(raw_body["root"], "root"))
        elif kind == "boolexpr":
            ast = _ExprParser(_tokenize(raw_body["expr"])).parse()
            body = BoolExprBody(ast)
        elif kind == "wvg":
            body = WVGBody(raw_body["quota"], tuple(raw_body["weights"]))
        else:
            raise ParseError(f"unknown body kind {kind!r}")
        return Classifier(features, classes, body)


def load_problem(document) -> ExplanationProblem:
    """Classifier plus embedded instance from one document."""
    if isinstance(document, str):
        document = json.loads(document)
    classifier = parse_model(document)
    raw = document.get("instance")
    if raw is None:
        raise ParseError("model document carries no instance")
    with _reading_document():
        point, label = tuple(raw["point"]), raw.get("label")
    if label is not None and type(label) is not int:
        raise ParseError(f"instance label must be an integer, got {label!r}")
    return make_problem(classifier, point, label)


@contextmanager
def _reading_document():
    """Report a document of the wrong shape (a missing key, a value of the
    wrong JSON type) as a ParseError."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"model document misses key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None


def problem_to_document(problem: ExplanationProblem) -> dict:
    doc = problem.classifier.to_document()
    doc["instance"] = {"point": list(problem.v), "label": problem.c}
    return doc
