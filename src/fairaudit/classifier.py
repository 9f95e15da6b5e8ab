"""Classifiers over a feature space, in three interchangeable forms.

All forms are total over the full cartesian space, not merely over the
constrained subset, so the same classifier can be audited with and
without constraints. Expression classifiers are binary (true maps to
label 1); tables and trees may carry any number of classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Mapping, Sequence, Union

from . import boolexpr
from .boolexpr import BoolExpr, Value
from .errors import DocumentError, ModelSemanticError
from .model import (
    ConstrainedSpace,
    FeatureSpace,
    Instance,
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
        for lab in self.labels:
            if not 0 <= lab < self.class_count:
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
        (id, True) enters a node, (id, False) leaves it."""
        on_path: set[int] = set()
        tested: set[tuple] = set()
        stack = [(self.root, True)]
        while stack:
            node_id, entering = stack.pop()
            node = self._by_id.get(node_id)
            if not entering:
                on_path.remove(node_id)
                tested.remove((node.feature, node.value))
                continue
            if node_id in on_path:
                raise ModelSemanticError("tree contains a cycle")
            if node is None:
                raise ModelSemanticError(f"tree edge points to missing node {node_id}")
            if isinstance(node, TreeLeaf):
                if not 0 <= node.label < self.class_count:
                    raise ModelSemanticError(f"leaf label {node.label} out of range")
                continue
            test = (node.feature, node.value)
            if test in tested:
                raise ModelSemanticError(
                    f"path tests feature {node.feature} = {node.value!r} twice"
                )
            on_path.add(node_id)
            tested.add(test)
            stack += [(node_id, False), (node.if_false, True), (node.if_true, True)]

    def evaluate(self, x: Instance) -> int:
        node = self._by_id[self.root]
        while isinstance(node, TreeNode):
            branch = node.if_true if x[node.feature] == node.value else node.if_false
            node = self._by_id[branch]
        return node.label

    def label_masks(self, masks: RankMasks, size: int) -> dict[int, int]:
        """Each label's ranks are the OR of the masks of the root-to-leaf
        paths ending in that label; a path's mask ANDs its tests."""
        by_label: dict[int, int] = {}
        stack = [(self.root, (1 << size) - 1)]
        while stack:
            node_id, reach = stack.pop()
            node = self._by_id[node_id]
            if isinstance(node, TreeLeaf):
                by_label[node.label] = by_label.get(node.label, 0) | reach
                continue
            hit = masks[node.feature].get(node.value, 0)
            for child, sub in ((node.if_true, reach & hit), (node.if_false, reach & ~hit)):
                if sub:  # no rank follows an empty path, so the walk stays finite
                    stack.append((child, sub))
        return by_label


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
    rows = obj.get("rows")
    if not isinstance(rows, list):
        raise DocumentError("table classifier needs a 'rows' list")
    domains = tuple(f.domain for f in space.features)
    mapping: dict[Instance, int] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != space.n + 1:
            raise DocumentError(
                f"table row #{i} must hold {space.n} values and a label"
            )
        x = space.validate_instance(row[: space.n])
        label = row[space.n]
        if type(label) is not int or label < 0:
            raise DocumentError(f"table row #{i}: label must be a non-negative integer")
        if x in mapping:
            raise DocumentError(f"table row #{i} repeats instance {x!r}")
        mapping[x] = label
    labels = []
    for x in itertools.product(*domains):
        if x not in mapping:
            raise DocumentError(f"table misses a row for instance {x!r}")
        labels.append(mapping[x])
    return TableClassifier(domains, tuple(labels), _class_count(obj, labels))


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
