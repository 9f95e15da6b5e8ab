"""Feature spaces, constraints, and the constrained instance set.

A model document is a JSON object:

    {"features": [{"name": ..., "domain": [...], "protected": bool}, ...],
     "constraints": ["<expression>", ...],
     "classifier": {...}}            # parsed by fairaudit.classifier

Instances are plain tuples of values aligned with feature indices. The
canonical enumeration order is lexicographic by feature index, values
ordered as declared in each feature's domain.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress, product
from math import prod
from typing import Iterable, Sequence

from . import boolexpr
from .boolexpr import BoolExpr, Value, parse_expr
from .errors import CapacityError, DocumentError, ModelSemanticError

Instance = tuple  # tuple[Value, ...], one entry per feature

DEFAULT_ENUMERATION_CAP = 1 << 24

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Feature:
    index: int
    name: str
    domain: tuple[Value, ...]
    protected: bool

    @property
    def is_boolean(self) -> bool:
        return type(self.domain[0]) is bool


class FeatureSpace:
    """Ordered features with a protected/unprotected partition."""

    def __init__(self, features: Sequence[Feature]):
        features = tuple(features)
        if not features:
            raise ModelSemanticError("a feature space needs at least one feature")
        seen: set[str] = set()
        for i, feat in enumerate(features):
            if feat.index != i:
                raise ModelSemanticError(
                    f"feature {feat.name!r} has index {feat.index}, expected {i}"
                )
            _validate_feature(feat)
            if feat.name in seen:
                raise ModelSemanticError(f"duplicate feature name {feat.name!r}")
            seen.add(feat.name)
        self.features = features
        self._by_name = {f.name: f for f in features}
        self.protected = frozenset(f.index for f in features if f.protected)
        self.unprotected = frozenset(f.index for f in features if not f.protected)

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def feature_named(self, name: str) -> Feature | None:
        return self._by_name.get(name)

    def full_size(self) -> int:
        size = 1
        for f in self.features:
            size *= len(f.domain)
        return size

    def validate_instance(self, x: Sequence[Value]) -> Instance:
        if len(x) != self.n:
            raise ModelSemanticError(
                f"instance has {len(x)} values, expected {self.n}"
            )
        for feat, v in zip(self.features, x):
            if type(v) is not type(feat.domain[0]) or v not in feat.domain:
                raise ModelSemanticError(
                    f"value {v!r} is not in the domain of feature {feat.name!r}"
                )
        return tuple(x)

    def with_protected(self, protected: Iterable[int]) -> "FeatureSpace":
        protected = frozenset(protected)
        return FeatureSpace(
            tuple(
                Feature(f.index, f.name, f.domain, f.index in protected)
                for f in self.features
            )
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSpace) and self.features == other.features

    def __hash__(self) -> int:
        return hash(self.features)

    def __repr__(self) -> str:
        return f"FeatureSpace({list(self.names)!r})"


def _validate_feature(feat: Feature) -> None:
    if not _NAME_RE.match(feat.name):
        raise ModelSemanticError(f"invalid feature name {feat.name!r}")
    if feat.name in boolexpr.RESERVED_WORDS:
        raise ModelSemanticError(f"feature name {feat.name!r} is a reserved word")
    if not feat.domain:
        raise ModelSemanticError(f"feature {feat.name!r} has an empty domain")
    kinds = {type(v) for v in feat.domain}
    if kinds not in ({bool}, {int}):
        raise ModelSemanticError(
            f"domain of feature {feat.name!r} must be all booleans or all integers"
        )
    if len(set(feat.domain)) != len(feat.domain):
        raise ModelSemanticError(f"domain of feature {feat.name!r} repeats a value")


@dataclass(frozen=True)
class Constraint:
    expr: BoolExpr

    @property
    def scope(self) -> frozenset[int]:
        return boolexpr.scope(self.expr)


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...] = ()

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def first_violated(self, x: Instance) -> Constraint | None:
        for c in self.constraints:
            if not boolexpr.evaluate(c.expr, x):
                return c
        return None


@dataclass(frozen=True)
class PartialAssignment:
    """Feature-index to value bindings, the carrier of explanations."""

    values: tuple[tuple[int, Value], ...]  # sorted by feature index

    @classmethod
    def restrict(cls, x: Instance, features: Iterable[int]) -> "PartialAssignment":
        return cls(tuple((i, x[i]) for i in sorted(set(features))))

    def agrees_with(self, y: Instance) -> bool:
        return all(y[i] == v for i, v in self.values)

    def by_name(self, space: FeatureSpace) -> dict[str, Value]:
        return {space.features[i].name: v for i, v in self.values}


class ScopeProfile(Enum):
    NONE = "NONE"
    ONLY_P = "ONLY_P"
    ONLY_N = "ONLY_N"
    P_AND_N_SEPARATE = "P_AND_N_SEPARATE"
    CROSSING = "CROSSING"


def constraint_scope_profile(
    space: FeatureSpace, constraints: ConstraintSet
) -> ScopeProfile:
    """Classify where constraint scopes fall relative to the partition.

    Purely syntactic: a constraint crosses when its scope meets both the
    protected and the unprotected side. Constraints mentioning no feature
    do not contribute.
    """
    has_p = has_n = crossing = False
    for c in constraints:
        sc = c.scope
        if not sc:
            continue
        in_p = bool(sc & space.protected)
        in_n = bool(sc & space.unprotected)
        if in_p and in_n:
            crossing = True
        elif in_p:
            has_p = True
        else:
            has_n = True
    if crossing:
        return ScopeProfile.CROSSING
    if has_p and has_n:
        return ScopeProfile.P_AND_N_SEPARATE
    if has_p:
        return ScopeProfile.ONLY_P
    if has_n:
        return ScopeProfile.ONLY_N
    return ScopeProfile.NONE


class ConstrainedSpace:
    """All instances satisfying the constraints, in canonical order.

    Coverage sets are exposed as bitmasks indexed by position in
    ``instances``; bit i set means ``instances[i]`` belongs to the set.
    Underneath, the full space is indexed by rank, the position in
    ``itertools.product`` order: ``rank_masks[i][v]`` has bit r set when
    rank r gives feature i value v, and ``selector[r]`` is 1 when rank r
    satisfies the constraints. Masks over positions are rank masks
    pushed through the selector.
    """

    def __init__(
        self,
        space: FeatureSpace,
        constraints: ConstraintSet,
        rank_masks: list[dict[Value, int]],
        selector: bytes,
    ):
        self.space = space
        self.constraints = constraints
        self.rank_masks = rank_masks
        self.selector = selector
        domains = [f.domain for f in space.features]
        self.instances = tuple(compress(product(*domains), selector))
        self._position = {x: i for i, x in enumerate(self.instances)}
        self._value_masks: list[dict[Value, int]] | None = None
        self._label_cache: dict[object, tuple[int, ...]] = {}
        self._label_masks: dict[tuple, int] = {}
        self._codes: tuple[int, list[int]] | None = None
        self.axp_cache: dict[tuple, list] = {}

    def __len__(self) -> int:
        return len(self.instances)

    def contains(self, x: Instance) -> bool:
        return x in self._position

    def position(self, x: Instance) -> int:
        try:
            return self._position[x]
        except KeyError:
            raise ModelSemanticError(
                f"instance {x!r} does not satisfy the constraints"
            ) from None

    @property
    def full_mask(self) -> int:
        return (1 << len(self.instances)) - 1

    def _masks(self) -> list[dict[Value, int]]:
        if self._value_masks is None:
            size = len(self.selector)
            # a byte per rank, highest rank first, as the digits of a rank
            # mask are; 0x80 marks the ranks outside F[C] for deletion
            outside = int.from_bytes(self.selector.translate(_OUTSIDE), "little")

            def compact(m: int) -> int:
                digits = int.from_bytes(format(m, f"0{size}b").encode(), "big")
                kept = (digits | outside).to_bytes(size, "big").translate(None, _MARKED)
                return int(kept or b"0", 2)

            self._value_masks = [
                {v: compact(m) for v, m in feat.items()} for feat in self.rank_masks
            ]
        return self._value_masks

    def value_mask(self, feature: int, value: Value) -> int:
        return self._masks()[feature][value]

    def coverage_mask(self, x: Instance, features: Iterable[int]) -> int:
        mask = self.full_mask
        masks = self._masks()
        for i in features:
            mask &= masks[i][x[i]]
            if not mask:
                break
        return mask

    def packed_codes(self) -> tuple[int, list[int]]:
        """(w, codes): each instance's code holds feature i's domain index
        in bits [i * w, (i + 1) * w)."""
        if self._codes is None:
            w = max(len(f.domain) - 1 for f in self.space.features).bit_length() or 1
            shifted = [
                {v: j << (i * w) for j, v in enumerate(f.domain)}
                for i, f in enumerate(self.space.features)
            ]
            self._codes = w, [sum(map(dict.get, shifted, x)) for x in self.instances]
        return self._codes

    def instances_of_mask(self, mask: int) -> tuple[Instance, ...]:
        return tuple(compress(self.instances, bit_flags(mask, len(self.instances))))

    def labels(self, classifier) -> tuple[int, ...]:
        got = self._label_cache.get(classifier)
        if got is None:
            ranked = classifier.rank_labels(self.rank_masks, len(self.selector))
            got = tuple(compress(ranked, self.selector))
            self._label_cache[classifier] = got
        return got

    def label_mask(self, classifier, label: int) -> int:
        key = (classifier, label)
        mask = self._label_masks.get(key)
        if mask is None:
            mask = pack_bits(map(label.__eq__, self.labels(classifier)))
            self._label_masks[key] = mask
        return mask


_FLAG = bytes.maketrans(b"01", b"\0\1")
_DIGIT = bytes.maketrans(b"\0\1", b"01")
_OUTSIDE = bytes.maketrans(b"\0\1", b"\x80\0")
_MARKED = b"\xb0\xb1"  # the digits "0" and "1" marked with 0x80


def bit_flags(mask: int, size: int) -> bytes:
    """Byte i is bit i of mask (0 or 1), for a mask below 2 ** size."""
    return format(mask, f"0{size}b").encode()[::-1].translate(_FLAG)


def pack_bits(flags: Iterable[int]) -> int:
    """The mask whose bit i is flag i; flags are 0/1 or booleans."""
    return int(bytes(flags).translate(_DIGIT)[::-1] or b"0", 2)


def rank_masks(domains: Sequence[Sequence[Value]]) -> list[dict[Value, int]]:
    """Per feature and value, the ranks of ``product(*domains)`` that
    give the feature that value: bit r of masks[i][v]."""
    size = prod(map(len, domains))
    masks = []
    period = size  # ranks per full cycle of feature i's values
    for d in domains:
        run = period // len(d)  # consecutive ranks sharing one value
        # most significant digit first: the highest rank comes first
        masks.append({
            v: int(("0" * (run * (len(d) - 1 - j)) + "1" * run + "0" * (run * j))
                   * (size // period), 2)
            for j, v in enumerate(d)
        })
        period = run
    return masks


def enumerate_space(
    space: FeatureSpace,
    constraints: ConstraintSet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConstrainedSpace:
    """Materialize the constrained instance set in canonical order."""
    size = space.full_size()
    if size > cap:
        raise CapacityError(f"feature space has {size} instances, cap is {cap}")
    masks = rank_masks([f.domain for f in space.features])
    ones = (1 << size) - 1
    satisfied = ones
    for c in constraints:
        satisfied &= boolexpr.evaluate_mask(c.expr, masks, ones)
    return ConstrainedSpace(space, constraints, masks, bit_flags(satisfied, size))


def unconstrained(space: FeatureSpace, cap: int = DEFAULT_ENUMERATION_CAP) -> ConstrainedSpace:
    return enumerate_space(space, ConstraintSet(), cap)


def coverage(cs: ConstrainedSpace, x: Instance, features: Iterable[int]) -> tuple[Instance, ...]:
    """Constrained instances agreeing with x on the given features."""
    if not cs.contains(x):
        raise ModelSemanticError(f"instance {x!r} does not satisfy the constraints")
    return cs.instances_of_mask(cs.coverage_mask(x, features))


# ---------------------------------------------------------------------------
# Documents


def load_json(text: str):
    """Decode a JSON document; syntax errors carry their position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None


def _space_from_obj(obj: dict) -> FeatureSpace:
    raw = obj.get("features")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("'features' must be a non-empty list")
    features = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "name" not in item or "domain" not in item:
            raise DocumentError(f"feature #{i} must be an object with name and domain")
        name = item["name"]
        domain = item["domain"]
        protected = item.get("protected", False)
        if not isinstance(name, str) or not isinstance(domain, list):
            raise DocumentError(f"feature #{i} has a malformed name or domain")
        if not isinstance(protected, bool):
            raise DocumentError(f"feature {name!r}: 'protected' must be a boolean")
        for v in domain:
            if type(v) not in (bool, int):
                raise DocumentError(
                    f"feature {name!r}: domain values must be booleans or integers"
                )
        features.append(Feature(i, name, tuple(domain), protected))
    return FeatureSpace(features)


def _constraints_from_obj(obj: dict, space: FeatureSpace) -> ConstraintSet:
    raw = obj.get("constraints", [])
    if not isinstance(raw, list):
        raise DocumentError("'constraints' must be a list of expression strings")
    parsed = []
    for i, text in enumerate(raw):
        if not isinstance(text, str):
            raise DocumentError(f"constraint #{i} must be a string")
        parsed.append(Constraint(parse_expr(text, space)))
    return ConstraintSet(tuple(parsed))


def parse_document(text: str) -> tuple[FeatureSpace, ConstraintSet, object]:
    """Parse a model document. The classifier section, None when absent,
    is returned undecoded for fairaudit.classifier.parse_classifier."""
    obj = load_json(text)
    if not isinstance(obj, dict):
        raise DocumentError("model document must be a JSON object")
    space = _space_from_obj(obj)
    return space, _constraints_from_obj(obj, space), obj.get("classifier")


def parse_model(text: str) -> tuple[FeatureSpace, ConstraintSet]:
    """Parse a model document, ignoring any classifier section."""
    space, constraints, _ = parse_document(text)
    return space, constraints


def canonical_document(
    space: FeatureSpace,
    constraints: ConstraintSet,
    classifier_obj: dict | None = None,
) -> dict:
    """The document object in canonical form: every feature field
    spelled out, constraints pretty-printed."""
    doc: dict = {
        "features": [
            {"name": f.name, "domain": list(f.domain), "protected": f.protected}
            for f in space.features
        ],
        "constraints": [boolexpr.pretty(c.expr, space.names) for c in constraints],
    }
    if classifier_obj is not None:
        doc["classifier"] = classifier_obj
    return doc


def render_model(
    space: FeatureSpace,
    constraints: ConstraintSet,
    classifier_obj: dict | None = None,
) -> str:
    """Canonical document text; parsing it back reproduces the inputs."""
    doc = canonical_document(space, constraints, classifier_obj)
    return json.dumps(doc, indent=2) + "\n"
