"""Classifiers over a feature space, in three interchangeable forms.

All forms are total over the full cartesian space, not merely over the
constrained subset, so the same classifier can be audited with and
without constraints. Expression classifiers are binary (true maps to
label 1); tables and trees may carry any number of classes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from operator import add
from typing import Mapping, NoReturn, Sequence, Union

from . import boolexpr
from .boolexpr import BoolExpr, Value
from .errors import DocumentError, ModelSemanticError
from .model import (
    ConstrainedSpace,
    ConstraintSet,
    FeatureSpace,
    Instance,
    canonical_document,
    flat_labels,
    pack_bits,
    rank_masks,
)

# each form's label_masks(masks, size) gives, per label it assigns, the
# ranks of the full space with that label, evaluated bit-parallel on
# model.rank_masks of the space's domains; every label has that one producer
RankMasks = Sequence[Mapping[Value, int]]


def _hash_fields(k) -> None:
    """Classifiers key caches, so each hashes its fields once; equality
    stays the dataclass's field-by-field comparison."""
    object.__setattr__(k, "_hash", hash(tuple(getattr(k, f.name) for f in fields(k))))


def _stored_hash(k) -> int:
    return k._hash


@dataclass(frozen=True)
class ExpressionClassifier:
    expr: BoolExpr

    def __post_init__(self):
        _hash_fields(self)

    __hash__ = _stored_hash

    @property
    def class_count(self) -> int:
        return 2

    def evaluate(self, x: Instance) -> int:
        return 1 if boolexpr.evaluate(self.expr, x) else 0

    def label_masks(self, masks: RankMasks, size: int) -> dict[int, int]:
        ones = (1 << size) - 1
        true = boolexpr.evaluate_mask(self.expr, masks, ones)
        return {0: ones ^ true, 1: true}


@dataclass(frozen=True)
class TableClassifier:
    """Labels for every instance of the full space, in canonical order."""

    domains: tuple[tuple[Value, ...], ...]
    labels: tuple[int, ...]
    class_count: int

    def __post_init__(self):
        size = 1
        for d in self.domains:
            size *= len(d)
        if size != len(self.labels):
            raise ModelSemanticError(
                f"table has {len(self.labels)} rows, the space has {size} instances"
            )
        if self.class_count < 2:
            raise ModelSemanticError("a classifier needs at least two classes")
        if not 0 <= min(self.labels, default=0) <= max(self.labels, default=0) < self.class_count:
            lab = next(lab for lab in self.labels if not 0 <= lab < self.class_count)
            raise ModelSemanticError(f"label {lab} out of range")
        _hash_fields(self)

    __hash__ = _stored_hash

    def _rank(self, x: Instance) -> int:
        rank = 0
        for d, v in zip(self.domains, x):
            rank = rank * len(d) + d.index(v)
        return rank

    def evaluate(self, x: Instance) -> int:
        return self.labels[self._rank(x)]

    def label_masks(self, masks: RankMasks, size: int) -> dict[int, int]:
        """The rows are laid out over the table's own domains, so the
        masks must be over those, types and all: (0, 1) == (False, True)."""
        typed = lambda domains: [[(type(v), v) for v in d] for d in domains]
        if typed(masks) != typed(self.domains):
            raise ModelSemanticError("table domains differ from the space's")
        return {c: pack_bits(map(c.__eq__, self.labels)) for c in set(self.labels)}


@dataclass(frozen=True)
class TreeNode:
    id: int
    feature: int
    value: Value
    if_true: int
    if_false: int


@dataclass(frozen=True)
class TreeLeaf:
    id: int
    label: int


@dataclass(frozen=True)
class TreeClassifier:
    """Binary tree whose internal nodes test feature = value."""

    nodes: tuple[Union[TreeNode, TreeLeaf], ...]
    root: int
    class_count: int

    def __post_init__(self):
        by_id = {}
        for node in self.nodes:
            if node.id in by_id:
                raise ModelSemanticError(f"duplicate tree node id {node.id}")
            by_id[node.id] = node
        object.__setattr__(self, "_by_id", by_id)
        if self.root not in by_id:
            raise ModelSemanticError(f"tree root {self.root} is not a node")
        self._check_paths()
        _hash_fields(self)

    __hash__ = _stored_hash

    def _check_paths(self) -> None:
        """Depth first from the root, with an explicit stack: an entry
        (id, True) enters a node, (id, False) leaves it. Each node is
        entered once. A node reached again by another path needs only
        the tests below it checked against that path's, by _first_retest;
        so a tree without shared nodes costs one visit per node, and one
        with them at most one walk of the nodes below per edge into a
        shared node. The nodes in reverse order of leaving are kept as a
        topological order."""
        on_path: set[int] = set()
        tested: set[tuple] = set()
        left: list[int] = []
        done: set[int] = set()
        stack = [(self.root, True)]
        while stack:
            node_id, entering = stack.pop()
            node = self._by_id.get(node_id)
            if not entering:
                on_path.remove(node_id)
                tested.remove((node.feature, node.value))
                left.append(node_id)
                done.add(node_id)
                continue
            if node_id in on_path:
                raise ModelSemanticError("tree contains a cycle")
            if node_id in done:
                if hit := self._first_retest(node_id, tested):
                    raise _tested_twice(hit)
                continue
            if node is None:
                raise ModelSemanticError(f"tree edge points to missing node {node_id}")
            if isinstance(node, TreeLeaf):
                if not 0 <= node.label < self.class_count:
                    raise ModelSemanticError(f"leaf label {node.label} out of range")
                left.append(node_id)
                done.add(node_id)
                continue
            test = (node.feature, node.value)
            if test in tested:
                raise _tested_twice(node)
            on_path.add(node_id)
            tested.add(test)
            stack += [(node_id, False), (node.if_false, True), (node.if_true, True)]
        object.__setattr__(self, "_order", left[::-1])

    def _first_retest(self, top: int, tested: set[tuple]) -> TreeNode | None:
        """In preorder from top, true branch first, each node once: the
        first node whose test is in tested, the one a walk of every path
        would meet first; None when none is. Every node under top was
        walked, so none is missing and they hold no cycle."""
        seen: set[int] = set()
        stack = [top]
        while stack:
            node = self._by_id[stack.pop()]
            if node.id in seen or isinstance(node, TreeLeaf):
                continue
            if (node.feature, node.value) in tested:
                return node
            seen.add(node.id)
            stack += [node.if_false, node.if_true]
        return None

    def evaluate(self, x: Instance) -> int:
        node = self._by_id[self.root]
        while isinstance(node, TreeNode):
            branch = node.if_true if x[node.feature] == node.value else node.if_false
            node = self._by_id[branch]
        return node.label

    def label_masks(self, masks: RankMasks, size: int) -> dict[int, int]:
        """Each label's ranks are the OR of the reaches of its leaves. A
        node's reach, the ranks whose path passes it, goes to its
        children in topological order, split by the node's test."""
        by_label: dict[int, int] = {}
        reach = {self.root: (1 << size) - 1}
        for node_id in self._order:
            ranks = reach.pop(node_id, 0)
            if not ranks:
                continue
            node = self._by_id[node_id]
            if isinstance(node, TreeLeaf):
                by_label[node.label] = by_label.get(node.label, 0) | ranks
                continue
            hit = masks[node.feature].get(node.value, 0)
            for child, sub in ((node.if_true, ranks & hit), (node.if_false, ranks & ~hit)):
                if sub:
                    reach[child] = reach.get(child, 0) | sub
        return by_label


def _tested_twice(node: TreeNode) -> ModelSemanticError:
    return ModelSemanticError(f"path tests feature {node.feature} = {node.value!r} twice")


Classifier = Union[ExpressionClassifier, TableClassifier, TreeClassifier]


def evaluate(space: FeatureSpace, k: Classifier, x: Sequence[Value]) -> int:
    """Evaluate with instance validation; k.evaluate skips the check."""
    return k.evaluate(space.validate_instance(x))


def equivalent_on(
    k1: Classifier, k2: Classifier, cs: ConstrainedSpace
) -> tuple[bool, Instance | None]:
    """Check agreement on every constrained instance.

    Returns (True, None) or (False, first disagreeing instance in
    canonical order).
    """
    for x in cs.instances:
        if k1.evaluate(x) != k2.evaluate(x):
            return False, x
    return True, None


def to_table(k: Classifier, space: FeatureSpace) -> TableClassifier:
    """Tabulate any classifier over the full space."""
    domains = tuple(f.domain for f in space.features)
    size = space.full_size()
    labels = flat_labels(k.label_masks(rank_masks(domains), size), size)
    return TableClassifier(domains, tuple(labels), k.class_count)


def expression_to_tree(expr: BoolExpr, space: FeatureSpace) -> TreeClassifier:
    """Expand an expression into a chain-of-tests decision tree."""
    nodes: list[Union[TreeNode, TreeLeaf]] = []

    def build(index: int, partial: tuple[Value, ...]) -> int:
        node_id = len(nodes)
        if index == space.n:
            nodes.append(TreeLeaf(node_id, 1 if boolexpr.evaluate(expr, partial) else 0))
            return node_id
        domain = space.features[index].domain
        nodes.append(None)  # reserve the slot so ids follow preorder
        if len(domain) == 1:
            child = build(index + 1, partial + (domain[0],))
            nodes[node_id] = TreeNode(node_id, index, domain[0], child, child)
            return node_id
        # chain: test values in domain order, the last one is the default
        def chain(vals: tuple[Value, ...], slot: int) -> None:
            value, rest = vals[0], vals[1:]
            hit = build(index + 1, partial + (value,))
            if len(rest) == 1:
                miss = build(index + 1, partial + (rest[0],))
            else:
                miss = len(nodes)
                nodes.append(None)
                chain(rest, miss)
            nodes[slot] = TreeNode(slot, index, value, hit, miss)

        chain(domain, node_id)
        return node_id

    root = build(0, ())
    return TreeClassifier(tuple(nodes), root, 2)


# ---------------------------------------------------------------------------
# Document form


def parse_classifier(obj, space: FeatureSpace) -> Classifier:
    if not isinstance(obj, dict) or "form" not in obj:
        raise DocumentError("'classifier' must be an object with a 'form' field")
    form = obj["form"]
    if form == "expression":
        expr = obj.get("expr")
        if not isinstance(expr, str):
            raise DocumentError("expression classifier needs an 'expr' string")
        return ExpressionClassifier(boolexpr.parse_expr(expr, space))
    if form == "table":
        return _parse_table(obj, space)
    if form == "tree":
        return _parse_tree(obj, space)
    raise DocumentError(f"unknown classifier form {form!r}")


def _parse_table(obj: dict, space: FeatureSpace) -> TableClassifier:
    """Rows may come in any order, each instance exactly once. When they
    number the space's instances, they are checked in bulk, a column at a
    time, and each label is placed at its instance's rank. Otherwise, or
    when a bulk check fails, the row by row pass of _refuse_rows names
    the first bad row or missing instance. The rank index of the full
    space is built only when the rows are as many as its instances, so
    the cost is bounded by the document's size, however large the
    space."""
    rows = obj.get("rows")
    if not isinstance(rows, list):
        raise DocumentError("table classifier needs a 'rows' list")
    domains = tuple(f.domain for f in space.features)
    ranks = _table_ranks(rows, domains) if len(rows) == space.full_size() else None
    if ranks is None:
        _refuse_rows(rows, space)
    if len(set(ranks)) < len(ranks):
        seen: set[int] = set()
        for i, r in enumerate(ranks):
            if r in seen:
                raise DocumentError(f"table row #{i} repeats instance {tuple(rows[i][:-1])!r}")
            seen.add(r)
    labels: list = [None] * len(ranks)
    for r, row in zip(ranks, rows):
        labels[r] = row[-1]
    return TableClassifier(domains, tuple(labels), _class_count(obj, labels))


def _table_ranks(rows: list, domains: tuple[tuple[Value, ...], ...]) -> list[int] | None:
    """Each row's rank in the full space, None unless every row is a
    list of the space's values, each of its domain's exact type, and a
    non-negative integer label."""
    width = len(domains) + 1
    if not all(map(isinstance, rows, itertools.repeat(list))):
        return None
    if set(map(len, rows)) - {width}:
        return None
    *columns, labels = zip(*rows) if rows else [()] * width
    for column, d in zip(columns, domains):
        if set(map(type, column)) - {type(d[0])}:
            return None
    if set(map(type, labels)) - {int} or min(labels, default=0) < 0:
        return None
    index = dict(zip(itertools.product(*domains), itertools.count()))
    try:
        return list(map(index.__getitem__, zip(*columns)))
    except KeyError:  # a value outside its domain
        return None


def _refuse_rows(rows: list, space: FeatureSpace) -> NoReturn:
    """Raise the error of the first row that is malformed or repeats an
    earlier one; with none, name the first instance in canonical order
    that no row gives. That search stops at most one past the rows."""
    seen: set[Instance] = set()
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != space.n + 1:
            raise DocumentError(f"table row #{i} must hold {space.n} values and a label")
        x = space.validate_instance(row[: space.n])
        label = row[space.n]
        if type(label) is not int or label < 0:
            raise DocumentError(f"table row #{i}: label must be a non-negative integer")
        if x in seen:
            raise DocumentError(f"table row #{i} repeats instance {x!r}")
        seen.add(x)
    for x in itertools.product(*(f.domain for f in space.features)):
        if x not in seen:
            raise DocumentError(f"table misses a row for instance {x!r}")
    raise AssertionError("the bulk and row by row table checks disagree")


def _parse_tree(obj: dict, space: FeatureSpace) -> TreeClassifier:
    raw = obj.get("nodes")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("tree classifier needs a non-empty 'nodes' list")
    nodes: list[Union[TreeNode, TreeLeaf]] = []
    labels = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or type(item.get("id")) is not int:
            raise DocumentError(f"tree node #{i} must be an object with an integer 'id'")
        if "label" in item:
            if type(item["label"]) is not int or item["label"] < 0:
                raise DocumentError(
                    f"tree node #{i}: label must be a non-negative integer"
                )
            nodes.append(TreeLeaf(item["id"], item["label"]))
            labels.append(item["label"])
            continue
        for key in ("feature", "value", "if_true", "if_false"):
            if key not in item:
                raise DocumentError(f"tree node #{i} misses {key!r}")
        if not isinstance(item["feature"], str):
            raise DocumentError(f"tree node #{i}: 'feature' must be a name")
        if type(item["if_true"]) is not int or type(item["if_false"]) is not int:
            raise DocumentError(f"tree node #{i}: edges must be integer ids")
        feat = space.feature_named(item["feature"])
        if feat is None:
            raise ModelSemanticError(f"tree node #{i}: unknown feature {item['feature']!r}")
        value = item["value"]
        if type(value) is not type(feat.domain[0]) or value not in feat.domain:
            raise ModelSemanticError(
                f"tree node #{i}: value {value!r} is outside the domain of "
                f"{feat.name!r}"
            )
        nodes.append(
            TreeNode(item["id"], feat.index, value, item["if_true"], item["if_false"])
        )
    return TreeClassifier(tuple(nodes), raw[0]["id"], _class_count(obj, labels))


def _class_count(obj: dict, labels: list[int]) -> int:
    """The declared ``classes``, at least 2; without one, one more than
    the highest label, and 2 when every label is 0."""
    if "classes" not in obj:
        return max(max(labels, default=0) + 1, 2)
    count = obj["classes"]
    if type(count) is not int:
        raise DocumentError("'classes' must be an integer")
    if count < 2:
        raise DocumentError(f"'classes' must be at least 2, got {count}")
    return count


def classifier_to_json(k: Classifier, space: FeatureSpace) -> dict:
    """Canonical JSON form, stable across runs."""
    if isinstance(k, ExpressionClassifier):
        return {"form": "expression", "expr": boolexpr.pretty(k.expr, space.names)}
    if isinstance(k, TableClassifier):
        rows = [
            list(x) + [label]
            for x, label in zip(itertools.product(*k.domains), k.labels)
        ]
        return {"form": "table", "rows": rows, "classes": k.class_count}
    if isinstance(k, TreeClassifier):
        nodes = []
        for node in k.nodes:
            if isinstance(node, TreeLeaf):
                nodes.append({"id": node.id, "label": node.label})
            else:
                nodes.append(
                    {
                        "id": node.id,
                        "feature": space.features[node.feature].name,
                        "value": node.value,
                        "if_true": node.if_true,
                        "if_false": node.if_false,
                    }
                )
        return {"form": "tree", "nodes": nodes, "classes": k.class_count}
    raise TypeError(f"not a classifier: {k!r}")


def model_digest(space: FeatureSpace, constraints: ConstraintSet, k: Classifier) -> str:
    """The sha256 of the canonical document's compact JSON with sorted
    keys, json.dumps(canonical_document(space, constraints,
    classifier_to_json(k, space)), sort_keys=True, separators=(",", ":")).
    A table's rows and a tree's nodes are written from strings instead:
    each domain value's JSON once, then joins and format strings. A
    tree's test value is looked up by ==, so a test of 1 on a boolean
    feature is written true, as it evaluates."""
    if isinstance(k, TableClassifier):
        cells = [[json.dumps(v) + "," for v in d] for d in k.domains]
        ends = {c: f"{c}]" for c in set(k.labels)}
        rows = map(add, map("".join, itertools.product(*cells)), map(ends.__getitem__, k.labels))
        k_text = f'{{"classes":{k.class_count},"form":"table","rows":[[' + ",[".join(rows) + "]}"
    elif isinstance(k, TreeClassifier):
        names = [json.dumps(f.name) for f in space.features]
        values = [{v: json.dumps(v) for v in f.domain} for f in space.features]
        nodes = [
            f'{{"id":{node.id},"label":{node.label}}}'
            if isinstance(node, TreeLeaf)
            else f'{{"feature":{names[node.feature]},"id":{node.id},"if_false":{node.if_false},'
            f'"if_true":{node.if_true},"value":{values[node.feature][node.value]}}}'
            for node in k.nodes
        ]
        k_text = f'{{"classes":{k.class_count},"form":"tree","nodes":[' + ",".join(nodes) + "]}"
    else:
        k_text = json.dumps(classifier_to_json(k, space), sort_keys=True, separators=(",", ":"))
    rest = json.dumps(canonical_document(space, constraints), sort_keys=True, separators=(",", ":"))
    # "classifier" sorts before the document's other keys
    text = '{"classifier":' + k_text + "," + rest[1:]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
